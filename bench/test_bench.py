"""Tests of the benchmark itself, at tiny sizes: python3 -m pytest bench -q"""

import itertools
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import fermitope  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fermitope import fock, noise  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first(workload: workloads.Workload, seed: int, count: int) -> bytes:
    return pickle.dumps(list(itertools.islice(workload.tasks(seed), count)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    count = workload.round_size + 1
    assert _first(workload, 5, count) == _first(workload, 5, count)
    assert _first(workload, 5, count) != _first(workload, 6, count)


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, task=1)


def test_self_times_subtract_direct_children_only():
    synthetic = [
        _span("cli.main", 0.0, 10.0),
        _span("functional.quantum_functional", 1.0, 4.0, parent=0),
        _span("fock.one_rdm", 2.0, 3.0, parent=1),
        _span("noise.evolve_noisy_protocol", 5.0, 9.0, parent=0),
        _span("fock.one_rdm", 11.0, 11.5),
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 1.0, 4.0, 0.5])

    recorder = spans.Recorder()
    recorder.spans = synthetic
    metrics, table = spans.layer_metrics(recorder, traced_wall=12.0, untraced_wall=10.0)
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["fock.one_rdm.self_s"] == pytest.approx(1.5)
    assert metrics["fock.one_rdm.calls"] == 2
    assert metrics["trace.unspanned_s"] == pytest.approx(1.5)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.2)
    layer_total = sum(row["self_s"] for row in table["layers"].values())
    assert layer_total + metrics["trace.unspanned_s"] == pytest.approx(12.0)
    assert metrics["fock.share"] == pytest.approx(1.5 / 12.0)


def test_recorder_sees_calls_across_modules_and_restores_them():
    original = fock.one_rdm
    state = fock.MixedState.from_pure(fermitope.target_state("ghz"))
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert fermitope.one_rdm is fock.one_rdm is not original
        recorder.task = 1
        noise.purity_lower_bound(state)
        recorder.task = None
        noise.purity_lower_bound(state)
    finally:
        recorder.uninstall()
    assert fock.one_rdm is original and fermitope.one_rdm is original
    names = [s.name for s in recorder.spans]
    assert names == ["noise.purity_lower_bound", "fock.one_rdm"]
    assert recorder.spans[1].parent == 0


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 100.0) == 5.0
    assert run.percentile(values, 50.0) == 3.0
    assert run.percentile(values, 85.0) == 5.0
    assert run.percentile(values, 1.0) == 1.0


def test_each_task_is_scaled_by_the_kernel_samples_around_it():
    # Samples before task 0, after task 1 and after task 2.
    calibrations = [(0, 0.007), (2, 0.014), (3, 0.021)]
    scaled = run.at_reference_speed([1.0, 2.0, 3.0], calibrations)
    first, second = run.REFERENCE_S / 0.0105, run.REFERENCE_S / 0.0175
    assert scaled == pytest.approx([1.0 * first, 2.0 * first, 3.0 * second])


def test_reference_kernel_does_not_use_the_program():
    probe = "import sys, calibrate; calibrate.sample(); print('fermitope' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=BENCH, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported(trace, section):
    done = _bench("--workload", "extremal", "--seed", "1", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    if trace:
        # A traced run does a fixed amount of work, whatever --seconds says.
        extremal = workloads.WORKLOADS["extremal"]
        assert result["attempted"] == 2 * extremal.trace_rounds * extremal.round_size


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "extremal", "--seconds", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
