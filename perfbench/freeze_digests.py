"""Record the stdout digests of the benchmark's deterministic commands.

    python3 perfbench/freeze_digests.py

Runs one pass of every workload at both scales and writes ``digests.json``.
The digests pin the library's output bytes, so run this only when the
benchmark's commands change, on a commit whose output is known to be right,
and never to make a changed output pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    frozen = {}
    for scale in sorted(workloads.SIZES):
        for workload in workloads.WORKLOADS:
            commands = workloads.commands(workload, 0, scale)
            work = os.path.join(HERE, "_work", f"freeze-{os.getpid()}")
            os.makedirs(work)
            try:
                plan = run.write_plan(commands, work)
                first = run.run_pass(plan, work, 0, trace=False, keep=True)
                for i, cmd in enumerate(commands):
                    if cmd["argv"][0] != "map":  # map inputs follow the seed
                        frozen[oracle.command_key(cmd["argv"])] = \
                            oracle.digest(run.read_output(first, i))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{scale} {workload}: exit codes {first['rcs']}")
    with open(oracle.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
