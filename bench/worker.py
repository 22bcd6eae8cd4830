"""Runs one workload in a fresh interpreter and prints its raw measurements.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

``run.py`` starts one of these per measurement.  The worker imports the
package from ``src/``, runs the workload's reduced-size warm-up task and
notes the monotonic clock (the end of set-up), then, unless
``--setup-only``, runs the closed loop for about SECONDS.  It samples the
reference kernel of ``calibrate.py`` right after set-up and, during the
closed loop, between tasks, so that ``run.py`` can express each time at
the reference speed of the machine.  With TRACE=1 it runs
instead a fixed amount of work, the workload's ``trace_rounds`` rounds,
each once untraced and once traced, with the span recorder installed; the
replay is generated again from SEED.  The per-layer totals thus describe
what that work costs, not how long the run lasted.  It prints one JSON
line.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0))
CALIBRATE_EVERY_S = 0.5
CALIBRATE_SHARE = 0.05
# Each CPU of the machine changes speed on its own, so the worker stays on
# one: the reference kernel then measures the CPU the tasks run on.  The
# BLAS pool size is read when numpy is first imported.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "cpu": CPU,
    }


def closed_loop(tasks, seconds: float, round_size: int, recorder=None, first: int = 1,
                calibrations=None):
    """Runs tasks back to back and stops at the round's end nearest to ``seconds``.

    A run therefore lasts within half a round of ``seconds``; a workload
    whose rounds are longer than ``seconds`` runs one round.

    Only ``task.run()`` is timed; its output check runs after the clock
    stops and, in a traced run, outside any span.  Tasks are not kept, so
    the peak memory does not grow with the number run.  Tasks are numbered
    from ``first``, the id their spans carry.  With ``calibrations``, a
    list that holds the kernel sample taken just before the loop as
    ``(0, seconds)``, the kernel is sampled again, untimed, after every
    task that ends CALIBRATE_EVERY_S or more after the last sample, and
    after the last task.  A sample lasts CALIBRATE_SHARE of the time
    since the last one, and at least three kernel runs, so that it
    averages over more of the machine's speed changes after a long task.
    Each sample is appended as ``(tasks done, seconds)``.  Returns the
    task times, the failure messages and the loop's wall time.
    """
    times, failures = [], []
    start = calibrated_at = time.perf_counter()
    for k, task in enumerate(tasks, first):
        if recorder is not None:
            recorder.task = k
        began = time.perf_counter()
        try:
            out = task.run()
        except Exception:
            problem = traceback.format_exc()
        else:
            problem = None
        times.append(time.perf_counter() - began)
        if recorder is not None:
            recorder.task = None
        if problem is None:
            try:
                problem = task.check(out)
            except Exception:
                problem = traceback.format_exc()
        if problem:
            failures.append(problem)
        since = time.perf_counter() - calibrated_at
        if calibrations is not None and since >= CALIBRATE_EVERY_S:
            calibrations.append((len(times), calibrate.sample(CALIBRATE_SHARE * since)))
            calibrated_at = time.perf_counter()
        if k % round_size == 0:
            elapsed = time.perf_counter() - start
            per_round = elapsed / ((k - first + 1) // round_size)
            if elapsed + per_round / 2 >= seconds:
                break
    if calibrations is not None and calibrations[-1][0] != len(times):
        since = time.perf_counter() - calibrated_at
        calibrations.append((len(times), calibrate.sample(CALIBRATE_SHARE * since)))
    return times, failures, time.perf_counter() - start


def traced_rounds(workload: workloads.Workload, seed: int):
    """Runs each of the workload's ``trace_rounds`` rounds untraced, then traced.

    Running a round twice in a row, rather than all rounds untraced and
    then all traced, keeps the machine's slow drifts in speed out of the
    comparison of the two walls.  Returns the untraced task times, the
    failures of both, the recorder and the traced and untraced walls.
    """
    size = workload.round_size
    tasks, replay = workload.tasks(seed), workload.tasks(seed)
    recorder = spans.Recorder()
    times, failures, traced, untraced = [], [], 0.0, 0.0
    for r in range(workload.trace_rounds):
        round_times, round_failures, wall = closed_loop(
            itertools.islice(tasks, size), math.inf, size
        )
        times += round_times
        failures += round_failures
        untraced += wall
        recorder.install()
        try:
            _, round_failures, wall = closed_loop(
                itertools.islice(replay, size), math.inf, size, recorder, first=r * size + 1
            )
        finally:
            recorder.uninstall()
        failures += round_failures
        traced += wall
    return times, failures, recorder, traced, untraced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    workload.warm_up()
    result = {"ready_at": time.monotonic(), "calibration": calibrate.sample()}
    if not args.setup_only:
        if args.trace:
            times, failures, recorder, traced, untraced = traced_rounds(workload, args.seed)
            metrics, table = spans.layer_metrics(recorder, traced, untraced)
            result.update(
                attempted=2 * len(times), layer_metrics=metrics, table=table, traced_wall=traced
            )
        else:
            calibrations = [(0, result["calibration"])]
            times, failures, _ = closed_loop(
                workload.tasks(args.seed), args.seconds, workload.round_size,
                calibrations=calibrations,
            )
            result.update(attempted=len(times), calibrations=calibrations)
        result.update(
            times=times,
            tail_pct=workload.tail_pct,
            failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            env=environment(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
