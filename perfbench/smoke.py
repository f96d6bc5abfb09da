"""Smoke check of the benchmark itself, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at the tiny scale, untraced and traced, and fails unless
each run is correct and prints exactly the metrics BENCHMARK.json declares,
with the declared units.  Then copies BENCHMARK.json and the benchmark's
files, without the sources, into a directory under perfbench/_work and
checks that the benchmark refuses to run there: non-zero exit and no result
line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: {result['failed']} failed commands")
            if printed != declared[trace]:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed) ^ set(declared[trace]))}")
            print(f"ok {tag}: {len(printed)} metrics", flush=True)

    bare = os.path.join(HERE, "_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, workloads.WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("the benchmark ran without the sources")
        else:
            print(f"ok without sources: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
