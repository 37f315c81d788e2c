#!/usr/bin/env python3
"""Benchmark of the toricdegen command line, run in-process on one thread.

    python3 perfbench/run.py --workload ladder|sweep|verify --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Jobs are JSON specs generated from
the seed (see ``workloads.py``) and fed through ``toricdegen.cli.main`` exactly as
the ``toricdegen`` command would receive them, minus interpreter start-up,
which ``setup_s`` measures separately.  The loop is closed with a single
client: the next job starts when the previous one has finished.  After an
untimed warm-up the job list runs in passes until at least ``--seconds`` of
wall time have gone and at least three passes ran.  Every run's exit code and
output are checked.

The shared machine this runs on switches between speed states about 1.5x
apart, for seconds to minutes at a time, and no amount of repetition inside
a run averages that out.  So each timing is taken together with a fixed
reference loop (``SpeedProbe``), sampled just before and after each job and
every 50 ms during it, and reported at the reference speed: wall time times
PROBE_REF_S over the median probe time around it.  A job's time is the
median over its runs; heavy jobs (marked in ``workloads.py``) run once.  The
provenance line also carries the raw wall-clock figures.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics from a traced run (see
``tracer.py``), after an untraced run of the same length for the overhead.
The line before it holds provenance and run details, which are not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads  # noqa: E402  (sibling module; the script directory is on sys.path)
from tracer import TARGETS, Tracer  # noqa: E402

# Well above the slowest ladder job (staircase-4, 25-40 s of wall time on a shared
# 2.0 GHz machine), and low enough that a run with one job past it still ends in 180 s.
JOB_TIME_LIMIT_S = 100
WARMUP_S = 2.0
MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 3
DEFAULT_SEED = 1
PROBE_INTERVAL_S = 0.05
# Reference loop time: about its median on the tuning machine in its faster state
# (2 vCPUs at 2.0 GHz, Python 3.11), so reported times are near wall times there.
PROBE_REF_S = 120e-6

# Jobs whose failure is a known program defect, listed in ROADMAP.md.  They stay in
# the workload and count in `failed`; `correct` turns false only on other failures.
KNOWN_DEFECTS = {
    "zero-fan-ray": "a zero vector in fan_rays raises GeometryErrorZero, a ValueError that "
    "the CLI does not catch, so it exits with a traceback",
}

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Pipeline stages called from cli.run_job; their inclusive time is reported too, so a
# stage's share shows even when most of it is self time of the kernels it calls.
STAGES = (
    "cli.load_job",
    "cli.build_polytope",
    "partition.build",
    "partition.classify",
    "lifting.lifting_function",
    "lifting.lift_polytope",
    "lifting.iterated_lift",
    "degeneration.build_report",
    "degeneration.family_equations",
    "report.render",
)

# per-layer metric -> unit; per job means: ".ms" self time, ".total_ms" inclusive time,
# ".calls" calls
PER_LAYER = {
    "cli.main.ms": "ms",
    "cli.load_job.ms": "ms",
    "cli.build_polytope.ms": "ms",
    "partition.build.ms": "ms",
    "partition.classify.ms": "ms",
    "lifting.lift_polytope.ms": "ms",
    "lifting.iterated_lift.ms": "ms",
    "lifting.lifting_function.ms": "ms",
    "degeneration.build_report.ms": "ms",
    "degeneration.family_equations.ms": "ms",
    "degeneration.monomials.count": "count",
    "report.render.ms": "ms",
    "report.stdout_bytes": "bytes",
    "polytope.from_halfspaces.calls": "count",
    "polytope.from_halfspaces.ms": "ms",
    "polytope.from_generators.calls": "count",
    "polytope.from_generators.ms": "ms",
    "polytope.lattice_equivalences.calls": "count",
    "exactmath.left_kernel.calls": "count",
    "exactmath.left_kernel.ms": "ms",
    "exactmath.solve_linear.calls": "count",
    "exactmath.solve_linear.ms": "ms",
    "exactmath.solve_particular.calls": "count",
    "exactmath.rank_fraction.calls": "count",
    "exactmath.determinant.calls": "count",
    "exactmath.determinant_fraction.calls": "count",
    **{f"{stage}.total_ms": "ms" for stage in STAGES},
    "trace.untraced_jobs_per_s": "1/s",
    "trace.traced_jobs_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

# These repeat exactly for a given seed (whole passes over a fixed job list);
# the .ms values and the trace.* rates are timings and do not.
DETERMINISTIC = sorted(
    name for name in PER_LAYER if name.endswith((".calls", ".count", ".stdout_bytes"))
)


class JobTimeout(BaseException):
    """Raised from SIGALRM inside a job; a BaseException so no program handler swallows it."""


def _reference_loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        acc += Fraction(i, i + 1)
        table[(i, i % 7)] = i * i
    return acc, table


class SpeedProbe:
    """Times a fixed pure-Python reference loop to track the machine's speed."""

    def __init__(self):
        self.samples = []
        self.deadline = None  # perf_counter value past which a running job is stopped

    def take(self, count=2):
        # Collection off, so that the probe never pays for collecting the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                _reference_loop()
                self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def on_alarm(self, signum, frame):
        _reference_loop()  # untimed: warms the caches the job has just evicted
        self.take(1)
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise JobTimeout()

    def scale_since(self, start):
        """Factor taking wall time measured since sample ``start`` to the reference speed."""
        return PROBE_REF_S / statistics.median(self.samples[start:])


@dataclass
class Run:
    """One job run; ``scaled`` is its wall time at the reference speed."""

    code: int | None
    out: str
    error: str | None
    timed_out: bool
    wall: float
    scaled: float


class Runner:
    """Feeds job specs through ``cli.main`` in-process, one at a time."""

    def __init__(self, cli):
        self.cli = cli
        self.probe = SpeedProbe()
        signal.signal(signal.SIGALRM, self.probe.on_alarm)

    def run(self, job):
        stdin = sys.stdin
        sys.stdin = io.StringIO(job.spec)
        buf = io.StringIO()
        error = code = None
        timed_out = False
        self.probe.take()
        start = len(self.probe.samples) - 2
        t0 = time.perf_counter()
        self.probe.deadline = t0 + JOB_TIME_LIMIT_S
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(job.argv)
        except JobTimeout:
            timed_out = True
            error = f"ran past the {JOB_TIME_LIMIT_S} s job time limit"
        except Exception as exc:  # an uncaught program error is a failed job, not a crash
            error = f"uncaught {type(exc).__name__}: {exc}"
        finally:
            self.probe.deadline = None  # a tick still pending after this only probes
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            sys.stdin = stdin
        self.probe.take()
        return Run(code, buf.getvalue(), error, timed_out, wall, wall * self.probe.scale_since(start))


class Stats:
    """Outcome of one timed loop; a job's time is the median over its runs."""

    def __init__(self):
        self.runs = 0
        self.timeouts = 0
        self.failed = 0
        self.failures = []  # (job name, reason)
        self.stdout_bytes = 0
        self.passes = 0
        self.scaled = {}  # job index -> seconds at reference speed, one per run
        self.wall = {}  # job index -> wall seconds, one per run

    def record(self, index, run):
        self.runs += 1
        self.timeouts += run.timed_out
        self.stdout_bytes += len(run.out.encode())
        self.scaled.setdefault(index, []).append(run.scaled)
        self.wall.setdefault(index, []).append(run.wall)

    @property
    def completed(self):
        return self.runs - self.timeouts

    def job_times(self, raw=False):
        """Median seconds per distinct job, at reference speed unless ``raw``."""
        table = self.wall if raw else self.scaled
        return [statistics.median(times) for times in table.values()]

    def jobs_per_s(self, raw=False):
        times = self.job_times(raw)
        return len(times) / sum(times)

    def unexpected_failures(self):
        return [(name, why) for name, why in self.failures if name not in KNOWN_DEFECTS]


def warm_up(runner, jobs):
    """Untimed: run the non-heavy jobs, cycling, for about WARMUP_S seconds."""
    light = [job for job in jobs if not job.heavy] or jobs
    t0 = time.perf_counter()
    while True:
        for job in light:
            runner.run(job)
            if time.perf_counter() - t0 >= WARMUP_S:
                return


def measure(runner, jobs, seconds, golden, tracer=None, min_passes=MIN_PASSES, between_passes=None):
    """Closed loop over passes of ``jobs`` until ``seconds`` have gone and at
    least ``min_passes`` passes ran.  Heavy jobs run in the first pass only
    when ``min_passes`` asks for repeats; with ``min_passes=1`` every pass
    is whole, so per-job means of counts repeat exactly."""
    stats = Stats()
    gc.collect()
    t0 = time.perf_counter()
    while True:
        for index, job in enumerate(jobs):
            if stats.passes and job.heavy and min_passes > 1:
                continue
            if tracer is not None:
                tracer.job_id = stats.runs
            run = runner.run(job)
            stats.record(index, run)
            reason = run.error or workloads.check(job, run.code, run.out, golden)
            if reason is not None:
                stats.failed += 1
                stats.failures.append((job.name, reason))
        stats.passes += 1
        if stats.passes >= min_passes and time.perf_counter() - t0 >= seconds:
            return stats
        if between_passes is not None:
            elapsed = time.perf_counter() - t0
            between_passes()
            t0 = time.perf_counter() - elapsed  # untimed


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SetupTimer:
    """Wall time of a fresh interpreter importing toricdegen.cli.

    Samples are taken a few at a time before the warm-up and between passes,
    each scaled to the reference speed by probes just before and after it;
    the reported value is their median.
    """

    def __init__(self, probe):
        self.probe = probe
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-c", "import toricdegen.cli"]
        self.scaled = []
        self.wall = []
        # No timeout: Popen.wait polls in 50 ms steps when given one, which quantizes the time.
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)  # untimed: byte-compiles

    def sample(self, count=SETUP_SAMPLES_PER_PASS):
        for _ in range(count):
            self.probe.take()
            start = len(self.probe.samples) - 2
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
            wall = time.perf_counter() - t0
            self.probe.take()
            self.wall.append(wall)
            self.scaled.append(wall * self.probe.scale_since(start))


def end_to_end_metrics(stats, setup):
    times = stats.job_times()
    values = {
        "jobs_per_s": stats.jobs_per_s(),
        "job_ms_p50": 1000 * percentile(times, 50),
        "job_ms_p90": 1000 * percentile(times, 90),
        "ok_ratio": (stats.runs - stats.failed) / stats.runs,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup.scaled),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def raw_figures(stats, setup, probe):
    """The wall-clock counterparts of the timings, for the provenance line."""
    times = stats.job_times(raw=True)
    return {
        "jobs_per_s": stats.jobs_per_s(raw=True),
        "job_ms_p50": 1000 * percentile(times, 50),
        "job_ms_p90": 1000 * percentile(times, 90),
        "setup_s": statistics.median(setup.wall),
        "probe_us_median": 1e6 * statistics.median(probe.samples),
        "probe_ref_us": 1e6 * PROBE_REF_S,
    }


def per_layer_metrics(tracer, traced, untraced):
    jobs = max(traced.completed, 1)
    self_ns = tracer.self_times_ns()
    total_ns = tracer.total_times_ns()
    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "ms":
            values[name] = self_ns.get(layer, 0) / 1e6 / jobs
        elif kind == "total_ms":
            values[name] = total_ns.get(layer, 0) / 1e6 / jobs
        elif kind == "calls":
            values[name] = tracer.calls.get(layer, 0) / jobs
        elif kind == "count":
            values[name] = tracer.counts.get(layer, 0) / jobs
    values["report.stdout_bytes"] = traced.stdout_bytes / max(traced.runs, 1)
    values["trace.untraced_jobs_per_s"] = untraced.jobs_per_s()
    values["trace.traced_jobs_per_s"] = traced.jobs_per_s()
    values["trace.overhead_ratio"] = untraced.jobs_per_s() / traced.jobs_per_s()
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def load_golden():
    path = HERE / "golden.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["digests"]


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # look no further up
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, stats, extra):
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "toricdegen").glob("*.py"))
    )
    info = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_toricdegen_lines": src_lines,
        "loop": "closed, one client, one thread; per-job median of its runs, at reference speed",
        "samples": len(stats.scaled),
        "runs": stats.runs,
        "passes": stats.passes,
        "job_time_limit_s": JOB_TIME_LIMIT_S,
        "omitted_fixtures": workloads.OMITTED,
        "failures": [{"job": n, "reason": r, "known_defect": KNOWN_DEFECTS.get(n)} for n, r in stats.failures],
    }
    if len(stats.scaled) < 100:
        info["p90_note"] = "fewer than ten samples lie beyond p90; with nearest rank it is a top order statistic"
    info.update(extra)
    return {"provenance": info}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "toricdegen" / "cli.py").is_file():
        print(f"error: no toricdegen sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from toricdegen import cli

    runner = Runner(cli)
    jobs = workloads.generate(args.workload, args.seed)
    golden = load_golden()
    if args.trace == 0:
        setup = SetupTimer(runner.probe)
        setup.sample()
        warm_up(runner, jobs)
        stats = measure(runner, jobs, args.seconds, golden, between_passes=setup.sample)
        metrics = end_to_end_metrics(stats, setup)
        extra = {"raw": raw_figures(stats, setup, runner.probe)}
    else:
        warm_up(runner, jobs)
        untraced = measure(runner, jobs, args.seconds / 2, golden, min_passes=1)
        tracer = Tracer()
        tracer.install()
        try:
            stats = measure(runner, jobs, args.seconds / 2, golden, tracer, min_passes=1)
        finally:
            tracer.uninstall()
        metrics = per_layer_metrics(tracer, stats, untraced)
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans, [job.name for job in jobs] * stats.passes)
        extra = {
            "spans_file": str(spans.relative_to(ROOT)),
            "spans": len(tracer.start),
            "absent_layers": tracer.absent,
            "deterministic_metrics": DETERMINISTIC,
            "traced_layers": list(TARGETS),
        }
    print(json.dumps(provenance(args, stats, extra), sort_keys=True))
    unexpected = stats.unexpected_failures()
    for name, reason in stats.failures:
        print(f"failed: {name}: {reason}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": stats.runs,
        "failed": stats.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
