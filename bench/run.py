"""Benchmark of fermitope's paper computations: cold start, closed loop, traced layers.

    python3 bench/run.py --workload thresholds --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, untraced and traced
    python3 bench/run.py --workload sectors --steady 10   # spread of each metric against its bound

Every measurement runs in a fresh interpreter (``bench/worker.py``) that
imports the package from ``src/`` of this checkout.  An untraced run
reports the end-to-end metrics; ``setup_s`` is the median of
SETUP_SAMPLES cold starts.  Their times are scaled to the reference
speed of the machine, the speed at which the kernel of ``calibrate.py``
takes REFERENCE_S.  A traced run (``--trace 1``) reports the
per-layer metrics over a fixed number of rounds.  The metrics reported,
and their units, are the ones ``BENCHMARK.json`` names.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when an
output check failed and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("thresholds", "extremal", "protocols", "sectors")
SETUP_SAMPLES = 5
# The reference kernel's time at which times are reported: its median on
# the 2-core machine described in README.md.
REFERENCE_S = 0.007
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def metric_specs(section: str) -> dict[str, dict]:
    """The metrics that BENCHMARK.json names in ``section``, by name."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {metric["name"]: metric for metric in spec[section]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read {section} from BENCHMARK.json: {exc!r}") from exc


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git checkout.

    The ceiling keeps git from taking the commit of a repository that
    merely encloses the benchmark's directory.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    cmd = [sys.executable, str(WORKER), workload, str(seed), repr(seconds), str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} worker did not finish in {WORKER_TIMEOUT_S} s")
    try:
        raw = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raw = None
    if proc.returncode != 0 or raw is None:
        raise BenchError(f"{workload} worker exited {proc.returncode} without a result")
    raw["setup_s"] = raw["ready_at"] - started
    return raw


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def at_reference_speed(times: list[float], calibrations: list[list[float]]) -> list[float]:
    """Task times scaled to the machine speed at which the kernel takes REFERENCE_S.

    ``calibrations`` holds ``(tasks done, kernel seconds)`` samples taken
    between tasks, the first before the first task and the last after the
    final one.  Each task is scaled by the mean of the two samples around it.
    """
    scaled, j = [], 0
    for i, seconds in enumerate(times):
        while calibrations[j + 1][0] <= i:
            j += 1
        kernel = (calibrations[j][1] + calibrations[j + 1][1]) / 2
        scaled.append(seconds * REFERENCE_S / kernel)
    return scaled


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result plus what the report prints."""
    def cold_starts(count: int) -> list[dict]:
        return [_spawn(workload, seed, seconds, trace, setup_only=True) for _ in range(count)]

    # The machine's speed drifts over tens of seconds, so the cold starts are
    # spread around the measuring run rather than taken back to back.
    starts = [] if trace else cold_starts(SETUP_SAMPLES // 2)
    raw = _spawn(workload, seed, seconds, trace, setup_only=False)
    if trace:
        metrics = raw["layer_metrics"]
    else:
        starts += [raw] + cold_starts(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
        wall = raw["times"]
        times = at_reference_speed(wall, raw["calibrations"])
        tail = percentile(times, raw["tail_pct"])
        metrics = {
            "setup_s": statistics.median(
                s["setup_s"] * REFERENCE_S / s["calibration"] for s in starts
            ),
            "tasks_per_s": len(times) / sum(times),
            "task_p50_s": statistics.median(times),
            "task_tail_s": tail,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        raw["tail_note"] = (
            f"p{raw['tail_pct']:g} of {len(times)} tasks, "
            f"{sum(t > tail for t in times)} beyond it"
        )
        raw["wall"] = {
            "setup_s": statistics.median(s["setup_s"] for s in starts),
            "tasks_per_s": len(wall) / sum(wall),
            "task_p50_s": statistics.median(wall),
            "task_tail_s": percentile(wall, raw["tail_pct"]),
        }
        raw["kernel_s"] = statistics.median(c[1] for c in raw["calibrations"])
    raw["env"].update(git_sha=git_sha(), workload=workload, seed=seed)
    specs = metric_specs("per_layer" if trace else "end_to_end")
    missing = sorted(set(specs) - set(metrics))
    if missing:
        raise BenchError(f"{workload} run gave no value for {', '.join(missing)}")
    return {
        "workload": workload,
        "trace": trace,
        "raw": raw,
        "result": {
            "correct": not raw["failures"],
            "attempted": raw["attempted"],
            "failed": len(raw["failures"]),
            "metrics": {
                name: {"value": metrics[name], "unit": spec["unit"]}
                for name, spec in specs.items()
            },
        },
    }


def report(run: dict) -> None:
    raw, result = run["raw"], run["result"]
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {run['workload']} ({mode}, closed loop, 1 caller)")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    if not run["trace"]:
        print(f"  times at the reference speed: reference kernel {REFERENCE_S * 1e3:g} ms,"
              f" {raw['kernel_s'] * 1e3:.4g} ms in this run (median)")
    for name, metric in result["metrics"].items():
        if run["trace"] and (name.count(".") != 1 or name.endswith(".share")):
            continue  # per-function metrics and shares are in the table below
        notes = []
        if name == "setup_s":
            notes.append(f"median of {SETUP_SAMPLES} cold starts")
        elif name == "task_tail_s":
            notes.append(raw["tail_note"])
        if name in raw.get("wall", {}):
            notes.append(f"wall clock {raw['wall'][name]:.6g}")
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"  {name:<22} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  {'failed_frac':<22} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} tasks)")
    for problem in raw["failures"][:3]:
        print(f"check failed: {problem}", file=sys.stderr)
    if run["trace"]:
        _trace_table(raw, result["metrics"])


def _trace_table(raw: dict, metrics: dict) -> None:
    table = raw["table"]
    print(f"  {'layer / function':<40} {'self_s':>10} {'share':>7} {'calls':>8} {'errors':>6}")
    total = 0.0
    for layer, row in table["layers"].items():
        total += row["self_s"]
        print(f"  {layer:<40} {row['self_s']:>10.4f} {row['share']:>7.3f}")
        for name, fn in sorted(table["functions"].items()):
            if name.split(".", 1)[0] == layer:
                print(f"    {name:<38} {fn['self_s']:>10.4f} {'':>7}"
                      f" {fn['calls']:>8} {fn['errors']:>6}")
    unspanned = metrics["trace.unspanned_s"]["value"]
    print(f"  layers {total:.4f} s + unspanned {unspanned:.4f} s = {total + unspanned:.4f} s;"
          f" traced wall {raw['traced_wall']:.4f} s;"
          f" overhead {metrics['trace.overhead_frac']['value']:+.2%}")


def steadiness(workloads: list[str], seed: int, seconds: float, repeats: int) -> bool:
    """Repeats untraced runs with seeds seed..seed+repeats-1; prints spread vs bound.

    Each time metric is also shown as measured on the wall clock, before
    scaling to the reference speed, to show what the scaling removes.  The
    last line holds every measured value, by workload and metric.
    """
    bounds = {name: spec["bound"] for name, spec in metric_specs("end_to_end").items()}
    steady = True
    measured = {}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for k in range(repeats):
            run = run_workload(workload, seed + k, seconds, trace=0)
            if not run["result"]["correct"]:
                raise BenchError(f"{workload} seed {seed + k}: output check failed")
            for name, metric in run["result"]["metrics"].items():
                values[name].append(metric["value"])
            for name, value in run["raw"]["wall"].items():
                values.setdefault(f"{name} (wall)", []).append(value)
        measured[workload] = values
        print(f"== {workload}: {repeats} runs, seeds {seed}..{seed + repeats - 1}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = bound = ""
            if name in bounds:
                bound = f"{bounds[name]:.0%}"
                verdict = (
                    "ok" if spread <= bounds[name] / 3
                    else "within" if spread <= bounds[name] else "WIDE"
                )
                steady &= spread <= bounds[name]
            print(f"  {name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {spread:>8.2%} {bound:>6} {verdict}")
    print(json.dumps(measured), flush=True)
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS", default=0,
                        help="repeat untraced runs and print each metric's spread")
    args = parser.parse_args()
    if not (ROOT / "src" / "fermitope" / "__init__.py").is_file():
        print(f"bench: no fermitope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.steady:
            return 0 if steadiness(chosen, args.seed, args.seconds, args.steady) else 1
        if args.workload != "all":
            run = run_workload(args.workload, args.seed, args.seconds, args.trace)
            report(run)
            print(json.dumps(run["result"]), flush=True)
            return 0 if run["result"]["correct"] else 1
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in chosen:
            for trace in (0, 1):
                run = run_workload(workload, args.seed, args.seconds, trace)
                report(run)
                result = run["result"]
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined), flush=True)
        return 0 if combined["correct"] else 1
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
