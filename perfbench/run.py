"""Benchmark of groupvna: certificates, character tables and the oracle.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

One process is one closed-loop client: each job starts only after the
previous one returns.  A run prepares the workload, makes a warm-up pass over
its job list, then makes passes while another pass of the average length so
far is expected to end within --seconds (at least MIN_PASSES).  Every job's
output is checked after the job, outside the timed region.

The machine this was built on changes speed by itself, each CPU on its own,
by up to 1.8x within seconds.  So the process pins itself (and the set-up
probes it starts) to one CPU, and every time is scaled to a fixed machine
speed: a fixed reference loop is timed right before and right after each job
(and each set-up probe), and the job's wall time is multiplied by
NOMINAL_LOOP_S over the mean of the two.  Raw wall times are printed beside
the result.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 untraced and traced passes alternate and the metrics are the
per-layer ones from the traced passes (see spans.py).
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported, here and in the
# set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify", "chartab", "oracle")
MIN_PASSES = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# reference_loop() at full speed on the 2-core VM of README.md; times are
# reported as if every job had run at that speed.
NOMINAL_LOOP_S = 0.0085


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="only import and prepare the workload into DIR (used to time set-up)")
    return p.parse_args(argv)


def _import_program():
    """Make the checkout's groupvna importable; exit 2 if the source is absent."""
    if not os.path.isfile(os.path.join(ROOT, "src", "groupvna", "__init__.py")):
        print(f"error: no groupvna source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401  (part of what set-up pays for)
    import workloads
    return workloads


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of tuple-keyed dict updates and
    integer arithmetic, the kind of work the program does: the machine's
    current speed."""
    started = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(20_000):
        key = ((i * 31) % 1009, (i * 17) % 997)
        table[key] = table.get(key, 0) + 1
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


class Clock:
    """Wall times of timed sections, each also scaled to the nominal speed
    by reference loops timed right before and right after it."""

    def __init__(self):
        self.loops: list[float] = []
        self._last = reference_loop()

    def measure(self, fn):
        """Run fn(); return (its result, wall seconds, scaled seconds)."""
        before = self._last
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - started
            self._last = reference_loop()
            self.loops += [before, self._last]
        return result, wall, wall * NOMINAL_LOOP_S / ((before + self._last) / 2)


def setup_seconds(args, clock: Clock) -> tuple[float, float]:
    """Median (wall, scaled) time of fresh processes that import numpy and
    groupvna and prepare the workload's spec documents."""
    walls, scaled = [], []
    for i in range(SETUP_PROBES):
        directory = os.path.join(OUT, f"probe-{os.getpid()}-{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", directory]

        def probe():
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            # wait() with a timeout polls in steps of up to 50 ms, which would
            # quantize the measurement; a timer thread enforces the limit instead.
            killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                return proc.wait()
            finally:
                killer.cancel()

        try:
            code, wall, scale = clock.measure(probe)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        walls.append(wall)
        scaled.append(scale)
    return statistics.median(walls), statistics.median(scaled)


class Run:
    """Counts and timings of one benchmark run."""

    def __init__(self, jobs, workloads, spans):
        self.jobs = jobs
        self.workloads = workloads
        self.spans = spans
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def one_pass(self, recorder=None) -> list[tuple[float, float]]:
        """Run every job once; returns (wall, scaled) seconds per job.

        Only the jobs themselves are timed; checks run between them.  With a
        recorder, each job runs traced and its scale factor is kept with it."""
        times = []
        for job in self.jobs:
            self.attempted += 1
            call = job.run
            if recorder is not None:
                recorder.job = job.name

                def call(job=job):
                    with self.spans.Tracing(recorder):
                        return job.run()
            try:
                output, wall, scaled = self.clock.measure(call)
            except Exception as exc:  # the job crashed: report it and keep going
                self.failed += 1
                self.correct = False
                print(f"job {job.name!r} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            times.append((wall, scaled))
            if recorder is not None:
                recorder.scale[job.name] = scaled / wall
            try:
                reason = job.check(output)
            except self.workloads.Incorrect as exc:
                self.correct = False
                print(f"job {job.name!r} output is wrong: {exc}", file=sys.stderr)
            else:
                if reason is not None:
                    self.failed += 1
                    print(f"job {job.name!r} failed: {reason}", file=sys.stderr)
        return times


def _another_fits(started: float, done: int, minimum: int, seconds: float) -> bool:
    """True while fewer than `minimum` rounds ran, or while one more round of
    the average length so far is expected to end within `seconds`."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, args.setup_probe)
        return 0

    import spans
    # One CPU for the jobs, the probes and the reference loops around them,
    # so that a reference loop sees the speed of the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    spec_dir = os.path.join(OUT, f"specs-{os.getpid()}")
    try:
        run = Run(workloads.prepare(args.workload, args.seed, spec_dir), workloads, spans)
        setup = setup_seconds(args, run.clock)
        run.one_pass()  # warm-up
        if args.trace:
            metrics = _traced(run, args)
        else:
            metrics = _untraced(run, args, setup)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    loops = run.clock.loops
    print(f"reference_loop_s median {statistics.median(loops)!r} "
          f"min {min(loops)!r} max {max(loops)!r} samples {len(loops)}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def _untraced(run: Run, args, setup: tuple[float, float]) -> dict:
    passes = []
    started = time.perf_counter()
    while _another_fits(started, len(passes), MIN_PASSES, args.seconds):
        passes.append(run.one_pass())
    wall = {
        "setup_s": setup[0],
        "pass_s": statistics.median(sum(w for w, _ in p) for p in passes),
        "slowest_job_s": statistics.median(max(w for w, _ in p) for p in passes),
    }
    print(f"passes {len(passes)}; unscaled wall seconds {json.dumps(wall)}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup[1], "unit": "s"},
        "pass_s": {"value": statistics.median(sum(s for _, s in p) for p in passes),
                   "unit": "s"},
        "slowest_job_s": {"value": statistics.median(max(s for _, s in p) for p in passes),
                          "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def _traced(run: Run, args) -> dict:
    spans = run.spans
    plain, traced, layers = [], [], []
    recorder = None
    started = time.perf_counter()
    while _another_fits(started, len(traced), 1, args.seconds):
        plain.append(run.one_pass())
        recorder = spans.Recorder()
        traced.append(run.one_pass(recorder))
        layers.append(spans.layer_metrics(recorder))
    for i, label in enumerate(("wall", "scaled")):
        untraced = [sum(job[i] for job in p) for p in plain]
        with_spans = [sum(job[i] for job in p) for p in traced]
        overhead = statistics.median(with_spans) / statistics.median(untraced) - 1.0
        print(f"{label} seconds: untraced passes {untraced!r}, traced passes {with_spans!r}, "
              f"trace_overhead {overhead!r}")
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "scale": recorder.scale,
                   "spans": recorder.to_json()}, fh)
    metrics = {}
    for name in spans.METRICS:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            if len(set(values)) != 1:
                print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
            metrics[name] = {"value": values[0], "unit": "count"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
