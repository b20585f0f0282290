#!/usr/bin/env python3
"""Benchmark of the quandles toolkit: one closed-loop workload per run.

    python3 bench/run.py --workload cohomology --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the toolkit is imported from
``src/``. One process runs one task at a time, with no threads. Set-up
(importing the toolkit and generating the seeded inputs) is repeated
SETUP_REPEATS times and its median reported. After a warm-up, whole rounds
of the workload's task list run until ``--seconds`` of task time has been
spent; every result is checked against an independent oracle.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run spends a third of
``--seconds`` on untraced rounds, alternating with as many traced ones,
writes the spans under ``.bench_out/`` and reports per-round layer
metrics. The exit code is 1
if any task failed or returned a wrong answer, 2 if the toolkit sources
are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
WARMUP_SECONDS = 2.0
CAL_KEYS = 12000
CAL_REF = 0.010  # seconds the calibration loop takes at the reference speed
CAL_EVERY = 0.3

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def machine_info():
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, {platform.machine()}"


def import_toolkit():
    """A fresh import of the toolkit (and its CLI) from the checkout's src/."""
    for key in [k for k in sys.modules if k == "quandles" or k.startswith("quandles.")]:
        del sys.modules[key]
    package = importlib.import_module("quandles")
    importlib.import_module("quandles.cli")
    return package


def setup(make_round, seed, workdir):
    """Import plus input generation, SETUP_REPEATS times; returns the
    toolkit package, the last round of tasks and the median normalized
    set-up time."""
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_toolkit()
        tasks = make_round(package, random.Random(seed), workdir)
        seconds = time.perf_counter() - start
        after = calibrate()
        times.append(seconds * CAL_REF / ((before + after) / 2))
        before = after
    return package, tasks, statistics.median(times)


def calibrate():
    """Seconds for a fixed tuple-keyed dict workload, the shape of the
    toolkit's own inner loops; it tracks how fast this machine runs now."""
    start = time.perf_counter()
    table = {}
    for i in range(CAL_KEYS):
        table[(i, i * 7 % 1009)] = i
    total = 0
    for _ in range(3):
        for i in range(CAL_KEYS):
            total += table[(i, i * 7 % 1009)]
    return time.perf_counter() - start


class Runner:
    """Runs tasks, timing each call and checking each answer.

    Task times are normalized to the calibration loop: every CAL_EVERY
    seconds of task time (and at the end of each round) ``calibrate`` runs,
    and each task's time is scaled by CAL_REF over the mean of the two
    calibrations around it. On a shared machine whose speed drifts by tens
    of percent within seconds, this keeps the figures comparable between
    runs; the raw total is kept alongside.
    """

    def __init__(self, tasks):
        self.tasks = tasks
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.raw_seconds = 0.0

    def one(self, task, timed):
        self.attempted += 1
        try:
            result, seconds = timed(task.run)
            ok = task.check(result)
        except Exception:  # a raising task counts as failed, and the run goes on
            seconds, ok = None, False
            self.failures.append(f"{task.label}: {traceback.format_exc(limit=3)}")
        else:
            if not ok:
                self.failures.append(f"{task.label}: wrong answer {result!r:.300}")
        if not ok:
            self.failed += 1
        return seconds

    def rounds(self, timed, seconds=None, count=None):
        """Whole rounds until ``seconds`` of (raw) task time or ``count``
        rounds; returns per-round lists of normalized task durations."""
        out = []
        start = self.raw_seconds
        while (count is None and self.raw_seconds - start < seconds) or (
            count is not None and len(out) < count
        ):
            durations, segment = [], []
            before = calibrate()
            for i, task in enumerate(self.tasks):
                d = self.one(task, timed)
                if d is not None:
                    segment.append(d)
                    self.raw_seconds += d
                if segment and (sum(segment) >= CAL_EVERY or i == len(self.tasks) - 1):
                    after = calibrate()
                    scale = CAL_REF / ((before + after) / 2)
                    durations += [d * scale for d in segment]
                    segment, before = [], after
            out.append(durations)
        return out


def timed_call(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def end_to_end(rounds, setup_s):
    rounds = [r for r in rounds if r]  # a round whose every task raised has no times
    latencies = sorted(d for r in rounds for d in r)
    deciles = statistics.quantiles(latencies, n=10)
    above = sum(1 for d in latencies if d > deciles[8])
    metrics = {
        "setup_s": setup_s,
        "tasks_per_s": statistics.median(len(r) / sum(r) for r in rounds),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = (f"{len(latencies)} tasks in {len(rounds)} rounds, {above} above p90; "
             f"round seconds {[round(sum(r), 3) for r in rounds]}")
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quandles", "__init__.py")):
        print(f"toolkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print(f"machine: {machine_info()}")

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        package, tasks, setup_s = setup(workloads.WORKLOADS[args.workload], args.seed, workdir)
        runner = Runner(tasks)
        warm = 0.0
        for task in tasks:  # warm-up: untimed for the metrics, still checked
            warm += runner.one(task, timed_call) or 0.0
            if warm >= WARMUP_SECONDS:
                break
        # set-up objects stay alive for the whole run; freezing them keeps
        # the collector's full passes, and so task times, independent of them
        gc.collect()
        gc.freeze()
        if args.trace:
            # untraced and traced rounds alternate, so drift within the
            # process falls on both sides of the overhead estimate
            tracer = tracing.Tracer()
            task_ids = iter(range(10**9))
            plain, traced = [], []
            plain_seconds = 0.0
            while not plain or plain_seconds < args.seconds / 3:
                start = runner.raw_seconds
                plain += runner.rounds(timed_call, count=1)
                plain_seconds += runner.raw_seconds - start
                tracer.install(package)
                try:
                    traced += runner.rounds(lambda fn: tracer.task(next(task_ids), fn), count=1)
                finally:
                    tracer.restore()
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
            metrics = tracer.layer_metrics(traced, plain)
            units = tracing.LAYER_METRICS
            self_sum = sum(metrics[m] for m in tracer.self_time)
            notes = (f"{len(traced)} traced rounds; layer self times sum to "
                     f"{self_sum:.6f} s/round against traced wall {metrics['trace.wall_s']:.6f}")
        else:
            rounds = runner.rounds(timed_call, seconds=args.seconds)
            metrics, notes = end_to_end(rounds, setup_s)
            notes += f"; raw {sum(map(len, rounds)) / runner.raw_seconds:.4g} tasks/s"
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}, seed {args.seed}: {notes}")
    fail_ratio = runner.failed / max(runner.attempted, 1)
    print(f"fail_ratio {fail_ratio:.6f} ratio ({runner.failed} of {runner.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
