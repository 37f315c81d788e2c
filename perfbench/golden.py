#!/usr/bin/env python3
"""Record stdout digests of every job of the default seed into golden.json.

    python3 perfbench/golden.py

Run it only on a commit whose output is known to be right: afterwards every
benchmark run compares the stdout of any job whose spec matches a recorded
one byte for byte.  Jobs that fail their verdict check are not recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    from toricdegen import cli

    runner = run.Runner(cli)
    digests = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.generate(workload, run.DEFAULT_SEED):
            result = runner.run(job)
            reason = result.error or workloads.check(job, result.code, result.out)
            if reason is not None:
                print(f"not recorded: {workload}/{job.name}: {reason}", file=sys.stderr)
                continue
            digests[job.key] = hashlib.sha256(result.out.encode()).hexdigest()
    doc = {"seed": run.DEFAULT_SEED, "digests": dict(sorted(digests.items()))}
    (run.HERE / "golden.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
