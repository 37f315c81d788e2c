#!/usr/bin/env python3
"""Self-test of the benchmark itself; takes well under a minute.

    python3 perfbench/selftest.py

Checks that, for two seeds, the generators emit valid JSON and that a cheap
subset of jobs gets its expected verdict from the program; that every traced
layer name resolves against the current modules and is restored afterwards;
and that the metric names and units the benchmark prints match
BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import sys

import run
import tracer
import workloads

SEEDS = (1, 2)
CHEAP = re.compile(
    r"^(malformed-|grid-|overlap-|gap-|zero-fan-ray|staircase-2(-t[1-4])?$|torus-|"
    r"octagon-[1-3]-|triangle-([4-9]|1[0-2])-|multi-segment-.*-c2)"
)

problems = []


def expect(condition, message):
    if not condition:
        problems.append(message)


def check_generators(runner, golden):
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            jobs = workloads.generate(workload, seed)
            expect(jobs == workloads.generate(workload, seed), f"{workload}/{seed}: not reproducible")
            for job in jobs:
                try:
                    json.loads(job.spec)
                    expect(job.name != "malformed-bad-json", "bad-json spec parses")
                except json.JSONDecodeError:
                    expect(job.name == "malformed-bad-json", f"{workload}/{job.name}: invalid JSON")
            cheap = [job for job in jobs if CHEAP.match(job.name)]
            expect(len(cheap) >= 3, f"{workload}/{seed}: fewer than three cheap jobs to run")
            for job in cheap:
                result = runner.run(job)
                reason = result.error or workloads.check(job, result.code, result.out, golden)
                if job.name in run.KNOWN_DEFECTS:
                    continue
                expect(reason is None, f"{workload}/{seed}/{job.name}: {reason}")


def check_tracer(runner):
    cli = runner.cli
    for name, (module, qualname) in tracer.TARGETS.items():
        expect(tracer.resolve(module, qualname) is not None, f"traced name {name} does not resolve")
    original = cli.load_job
    t = tracer.Tracer()
    t.install()
    try:
        expect(t.absent == [], f"absent layers: {t.absent}")
        expect(cli.load_job is not original, "cli.load_job was not wrapped")
        jobs = [job for job in workloads.generate("sweep", SEEDS[0]) if CHEAP.match(job.name)][:3]
        stats = run.measure(runner, jobs, 0, {}, t, min_passes=1)
    finally:
        t.uninstall()
    expect(cli.load_job is original, "cli.load_job was not restored")
    expect(t.calls["cli.main"] == len(jobs), "one cli.main span per job expected")
    self_ns = t.self_times_ns()
    total = sum(t.end[i] - t.start[i] for i in range(len(t.start)) if t.parent[i] < 0)
    expect(abs(sum(self_ns.values()) - total) == 0, "self times do not add up to the root spans")
    return t, stats


def check_metric_names(t, stats, runner):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    setup = run.SetupTimer(runner.probe)
    setup.sample(1)
    e2e = run.end_to_end_metrics(stats, setup)
    layers = run.per_layer_metrics(t, stats, stats)
    for section, printed in (("end_to_end", e2e), ("per_layer", layers)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in printed.items()}
        expect(declared == got, f"{section}: BENCHMARK.json {declared} != printed {got}")
    declared = {w["name"] for w in spec["workloads"]}
    expect(declared <= set(workloads.WORKLOADS), "BENCHMARK.json names an unknown workload")
    expect(declared == set(workloads.WORKLOADS) - set(workloads.UNGATED), "gated workloads differ")


def main():
    sys.path.insert(0, str(run.SRC))
    from toricdegen import cli

    runner = run.Runner(cli)
    golden = run.load_golden()
    check_generators(runner, golden)
    t, stats = check_tracer(runner)
    check_metric_names(t, stats, runner)
    for message in problems:
        print("FAIL", message)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
