"""Benchmark of the stanlab command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's commands (see ``workloads.py``) run one after another
through ``stanlab.cli.main`` in a fresh interpreter per pass: a closed loop
with one caller, because the library's ``lru_cache``s would otherwise turn
later passes into dictionary lookups.  Passes repeat until ``--seconds`` is
spent.  Every command's output is checked by ``oracle.py`` outside the timed
region.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each a median over
the passes.  With ``--trace 1`` one untraced and one traced pass run, and the
metrics are the per-layer ones from ``layers.py``; the traced pass must
print the same bytes as the untraced one.  The line before the result
records the provenance: machine, interpreter, commit, seed, commands, sample
counts and the tracing overhead.

Exits 2 when the directory holds no stanlab sources, 3 when a pass cannot
run at all; neither prints a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path[:0] = [HERE, SRC]  # the oracle imports stanlab for round trips

import layers  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up is measured in every pass and in this many extra interpreters that
# stop once the parser is built, so its median has enough samples even when
# only a few passes fit.
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150
# Timings are reported in reference seconds: wall seconds scaled by this
# nominal time over the median time of child.py's calibration loop around
# and during the command.  On a shared box the same Python code runs 20-30%
# faster or slower for minutes at a time; the loop slows with it, so the
# scaled times stay steady while the wall times in the provenance drift.
REFERENCE_S = 0.002
# Options that would start the process pool or the disk cache mid-run.
FORBIDDEN_OPTIONS = ("--jobs", "--cache-dir")


class BenchError(Exception):
    """A pass could not run; the benchmark prints no result."""


def child_env() -> dict:
    # no inherited PYTHON* settings (PYTHONOPTIMIZE would even change what
    # runs) and no STANLEY_LAB_CONFIG, which could turn on the process pool
    # or the disk cache
    env = {k: v for k, v in os.environ.items()
           if k != "STANLEY_LAB_CONFIG"
           and (k == "PYTHONHOME" or not k.startswith("PYTHON"))}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], workdir: str) -> tuple[float, bytes]:
    """Run child.py; return the seconds from its start until its parser was
    built, and the rest of its stdout."""
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=err)
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"a pass ran over {CHILD_TIMEOUT_S} s")
    if line != b"ready\n" or proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"child exited {proc.returncode}: {tail}")
    return setup_s, rest


def setup_sample(work: str) -> float:
    """One set-up time in reference seconds, from an interpreter that stops
    once the parser is built."""
    setup_s, rest = spawn([], work)
    return setup_s * REFERENCE_S / float(rest)


def run_pass(plan_path: str, work: str, index: int, trace: bool,
             keep: bool) -> dict:
    outdir = os.path.join(work, f"pass-{index}")
    os.makedirs(outdir)
    t0 = time.perf_counter()
    setup_s, _ = spawn([plan_path, outdir, str(int(trace)), str(int(keep))],
                       work)
    with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    cal = result["calibration_s"]
    result["scaled_s"] = [t * REFERENCE_S / c
                          for t, c in zip(result["command_s"], cal)]
    result["run_s"] = sum(result["scaled_s"])
    result.update(setup_s=setup_s * REFERENCE_S / cal[0],
                  wall_s=time.perf_counter() - t0, dir=outdir, trace=trace)
    return result


def write_plan(commands: list[dict], work: str) -> str:
    plan = []
    for i, cmd in enumerate(commands):
        if any(opt in cmd["argv"] for opt in FORBIDDEN_OPTIONS):
            raise BenchError(f"command {cmd['argv']} sets a forbidden option")
        path = None
        if "input" in cmd:
            path = os.path.join(work, f"in-{i}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in cmd["input"]))
        plan.append({"argv": cmd["argv"], "input_path": path})
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": plan}, fh)
    return plan_path


def read_output(first: dict, i: int) -> str:
    with open(os.path.join(first["dir"], f"out-{i}.txt"), encoding="utf-8",
              newline="") as fh:
        return fh.read()


# -- correctness ----------------------------------------------------------------------

def judge(commands: list[dict], passes: list[dict]) -> tuple[list, list]:
    """Problems per command of the first pass, then per (pass, command).

    The first pass's stdout goes through the oracle; every later pass must
    repeat its exit codes and stdout digests exactly."""
    first = passes[0]
    digests = oracle.load_digests()
    verdicts = []
    for i, cmd in enumerate(commands):
        problems = []
        if first["errors"][i]:
            problems.append(f"uncaught {first['errors'][i]}")
        problems += oracle.check(cmd["argv"], first["rcs"][i],
                                 read_output(first, i), cmd.get("input"),
                                 digests)
        verdicts.append(problems)
    per_pass = []
    for p in passes:
        row = []
        for i in range(len(commands)):
            problems = list(verdicts[i])
            if p["rcs"][i] != first["rcs"][i]:
                problems.append("exit code differs between passes")
            if p["digests"][i] != first["digests"][i]:
                problems.append("stdout differs between passes"
                                + (" (traced vs untraced)" if p["trace"] else ""))
            if p["warm_caches"]:
                problems.append(f"caches warm at start: {p['warm_caches']}")
            if not os.path.abspath(p["stanlab_file"]).startswith(SRC + os.sep):
                problems.append(f"imported stanlab from {p['stanlab_file']}")
            row.append(problems)
        per_pass.append(row)
    return verdicts, per_pass


def objects_done(workload: str, commands: list[dict], first: dict) -> int:
    """Objects counted or mapped (count-grouped, map-stream), checks run
    (verify-suites) or series terms emitted (series-build) in one pass."""
    total = 0
    for i, cmd in enumerate(commands):
        text = read_output(first, i)
        try:
            if workload == "count-grouped":
                total += sum(json.loads(text).values())
            elif workload == "map-stream":
                total += len(text.splitlines())
            elif workload == "verify-suites":
                total += len(json.loads(text)["checks"])
            else:
                total += _series_terms(json.loads(text))
        except (ValueError, KeyError, TypeError, AttributeError):
            pass  # the oracle has already failed this command
    return total


def _series_terms(value) -> int:
    if isinstance(value, dict):
        if "terms" in value and isinstance(value["terms"], list):
            return len(value["terms"])
        return sum(_series_terms(v) for v in value.values())
    return 0


def coverage(workload: str, commands: list[dict], first: dict, meta: dict,
             sp: layers.Spans) -> list[list[str]]:
    """Problems per command showing that some calls escaped the wrappers."""
    out = [[] for _ in commands]
    if meta["stale_references"]:
        for row in out:
            row.append("unwrapped references: "
                       + ", ".join(meta["stale_references"][:5]))
    ranges = sp.roots("cli.main")
    if len(ranges) != len(commands):
        for row in out:
            row.append(f"{len(ranges)} traced commands for {len(commands)}")
        return out
    grand_total = 0
    for i, cmd in enumerate(commands):
        argv = cmd["argv"]
        lo, hi = ranges[i]
        if workload == "count-grouped":
            try:
                counted = sum(json.loads(read_output(first, i)).values())
            except (ValueError, AttributeError):
                continue
            grand_total += counted
            if "stanley" in argv:
                calls = sp.calls_between("objects.stanley_stats", lo, hi)
                # a change that stops computing whole records may skip
                # stanley_stats entirely; when it is called, once per object
                if calls and calls != counted:
                    out[i].append(f"{calls} stanley_stats calls for "
                                  f"{counted} objects")
        elif argv[0] == "map":
            fn = oracle.MAPS[argv[argv.index("--bijection") + 1]][0]
            calls = sp.calls_between(f"bijections.{fn}", lo, hi)
            if calls != len(cmd["input"]):
                out[i].append(f"{calls} {fn} calls for "
                              f"{len(cmd['input'])} input lines")
    raw = meta["counters"].get("enumeration.iter_raw.objects", 0)
    if workload == "count-grouped" and raw and raw != grand_total:
        for row in out:
            row.append(f"iter_raw yielded {raw} objects for {grand_total}")
    return out


# -- provenance -----------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "stanlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def describe(cmd: dict) -> list[str]:
    if "input" in cmd:
        return cmd["argv"] + ["--in", f"<{len(cmd['input'])} lines>"]
    return cmd["argv"]


# -- main -----------------------------------------------------------------------------

def measure(args, work: str) -> tuple[dict, dict]:
    commands = workloads.commands(args.workload, args.seed, args.scale)
    plan = write_plan(commands, work)
    prov = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "commands": [describe(c) for c in commands],
        "sizes": workloads.SIZES[args.scale],
        "loop": "closed, one caller, a fresh interpreter per pass",
    }
    if args.trace:
        passes = [run_pass(plan, work, 0, trace=False, keep=True),
                  run_pass(plan, work, 1, trace=True, keep=False)]
        setup = []
    else:
        setup = [setup_sample(work) for _ in range(SETUP_SPAWNS)]
        passes = []
        t_begin = time.perf_counter()
        while True:
            passes.append(run_pass(plan, work, len(passes), trace=False,
                                   keep=not passes))
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - t_begin + typical > args.seconds:
                break
        setup += [p["setup_s"] for p in passes]

    verdicts, per_pass = judge(commands, passes)
    first = passes[0]
    prov["passes"] = len(passes)
    prov["run_s_samples"] = [p["run_s"] for p in passes]
    prov["wall_run_s_samples"] = [sum(p["command_s"]) for p in passes]
    prov["command_s_samples"] = [p["command_s"] for p in passes]
    prov["calibration_s_samples"] = [p["calibration_s"] for p in passes]
    prov["caches"] = first["caches"]
    prov["problems"] = {" ".join(c["argv"]): v
                        for c, v in zip(commands, verdicts) if v}
    prov["known_reds"] = {s: sorted(r) for s, r in oracle.KNOWN_REDS.items()}

    metrics: dict[str, dict] = {}
    if args.trace:
        traced = passes[1]
        meta = spans.load(traced["dir"])
        sp = layers.Spans(meta)
        for row, extra in zip(per_pass[1], coverage(args.workload, commands,
                                                    first, meta, sp)):
            row += extra
        overhead = traced["run_s"] - first["run_s"]
        values = layers.metrics(sp, meta["counters"], traced["caches"],
                                sum(traced["bytes"]), overhead)
        for name in layers.metric_names():
            metrics[name] = {"value": values[name], "unit": unit(name)}
        prov["trace_overhead_s"] = overhead
        prov["untraced_run_s"] = first["run_s"]
        prov["traced_run_s"] = traced["run_s"]
        prov["unwrapped_targets"] = meta["unwrapped_targets"]
        prov["coverage_problems"] = [r for r in per_pass[1] if r]
    else:
        # each command's median over the passes, summed: a burst of noise
        # that slows one command in one pass does not move the result
        run_s = sum(statistics.median(p["scaled_s"][i] for p in passes)
                    for i in range(len(commands)))
        done = objects_done(args.workload, commands, first)
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "objects_per_s": {"value": done / run_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MiB"},
        }
        prov["objects_per_pass"] = done
        prov["setup_s_samples"] = setup
        prov["peak_rss_mb_samples"] = [p["peak_rss_mb"] for p in passes]

    attempted = sum(len(row) for row in per_pass)
    failed = sum(1 for row in per_pass for problems in row if problems)
    prov["ops_failed_ratio"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return prov, result


def unit(name: str) -> str:
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES),
                        default="full", help="input sizes (tiny: smoke check)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stanlab", "cli.py")):
        print(f"error: no stanlab sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        prov, result = measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
