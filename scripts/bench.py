"""Measure stanlab end to end and layer by layer into one JSON file.

    python3 scripts/bench.py --out BENCH_35.json
    python3 scripts/bench.py --out BENCH_35.json --root ../parent --root .

Each --root is a checkout (default: the one holding this script).  For each
root the file records the path as given and:

- the four perfbench workloads' end-to-end metrics: ``perfbench/run.py
  --trace 0`` of that root, run as a subprocess (reference seconds);
- the median time to ``import stanlab.cli`` over fresh interpreters;
- the Tier-1 wall time and pytest's summary line;
- in process: each suite at its default size (``bijections`` at 12), the
  bijections suite's fountain-physics check and each of its per-map checks
  at size 10 on their own, the ``cf`` suite's brute-force tally at peak
  height sum 16, each ``gf_*`` builder at its ``series`` cap, and a count
  with each generator.  Each
  part gets its wall seconds (``raw_s``), the median of
  ``perfbench/child.py``'s ``calibrate()`` loop timed just before, during
  (from a timer, through child.py's ``Speed``) and just after it
  (``calibration_s``), and the wall seconds scaled as perfbench scales
  ``run_s`` (``reference_s``); each generator also gets its object count;
- in process, ``maps_us``: the library map of each ``map --bijection``
  choice that perfbench's ``map-stream`` runs, over that workload's seed-1
  inputs (decoded before the clock starts), as microseconds per object,
  raw (``raw_us``) and scaled (``reference_us``), with the calibration
  median and the object count.

With several roots every timed part but Tier-1 alternates between roots,
and which root goes first alternates from turn to turn, so a change in the
machine's load reaches all of them alike.  The in-process timings run in a
fresh interpreter that imports the root's sources, five times per root;
each part keeps the run of the five with the least reference seconds, since
load from other processes only ever adds time.  Every root is calibrated
by the loop of this script's checkout.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
WORKLOADS = ("count-grouped", "verify-suites", "series-build", "map-stream")
IMPORT_STARTS = 20
PERFBENCH_SECONDS = 8  # perfbench's --seconds for each workload run
REPEATS = 5  # in-process timings are the least of this many runs
MAP_PASSES = 10  # passes of each map over map-stream's inputs
REFERENCE_S = 0.002  # perfbench/run.py's nominal calibration time
# the bijections suite's per-map checks, each timed alone at one size
MAP_CHECKS = ("_phi_checks", "_chi_checks", "_chi_prime_checks", "_f_checks",
              "_h_psi_checks")
MAP_CHECK_SIZE = 10
CF_TALLY_SIZE = 16  # the peak height sum cf_tally is timed at: 342,908 paths

# builder -> the `series --gf` choice whose cap it is built at
BUILDERS = {
    "gf_full": "full",
    "gf_columns": "columns",
    "gf_semiperimeter": "semiperimeter",
    "gf_area": "area",
    "gf_continued_fractions": "cf-a",
    "gf_columns_corollaries": "corollaries",
    "gf_semiperimeter_corollaries": "corollaries",
}

# generator bounds, the sizes perfbench's count-grouped workload counts
GENERATORS = {
    ("stanley", "columns"): 11,
    ("stanley", "semiperimeter"): 16,
    ("stanley", "area"): 19,
    ("dyck", "semilength"): 10,
    ("peaklessMotzkin", "steps"): 16,
    ("fountain", "diagonals"): 10,
    ("fountain", "evenCoins"): 14,
    ("parallelogram", "area"): 13,
}


def in_process() -> dict:
    """One in-process timing of each part of the stanlab on sys.path.

    Importing perfbench's child builds the CLI parser and writes ``ready``
    on stdout before the caller prints its JSON line."""
    sys.path.insert(0, PERFBENCH)
    from child import BRACKET_SAMPLES, SAMPLE_EVERY_S, Speed
    from workloads import commands
    from stanlab import catalog, cli, enumeration, objects, verification

    # as in child.py: each part's samples are the bracket before it (the
    # last part's after), those its timer takes and the bracket after it,
    # and the time the timer takes is not the part's
    speed = Speed()
    signal.signal(signal.SIGALRM, speed.on_timer)
    speed.bracket()

    def timed(fn) -> dict:
        first = len(speed.samples) - BRACKET_SAMPLES
        stolen = speed.stolen_s
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw -= speed.stolen_s - stolen
        speed.bracket()
        cal = statistics.median(speed.samples[first:])
        part = {"raw_s": raw, "calibration_s": cal,
                "reference_s": raw * REFERENCE_S / cal}
        if type(out) is int:
            part["objects"] = out
        return part

    suites, builders, generators, maps = {}, {}, {}, {}
    for name, size in verification.SUITE_DEFAULT_SIZE.items():
        size = 12 if name == "bijections" else size
        suites[f"{name}@{size}"] = timed(
            lambda: verification.run_suite(name, size))
    checks = {"fountain_physics": timed(
        lambda: verification._fountain_brute_checks([]))}
    for name in MAP_CHECKS:
        checks[f"{name}@{MAP_CHECK_SIZE}"] = timed(
            lambda: getattr(verification, name)([], MAP_CHECK_SIZE))
    checks[f"cf_tally@{CF_TALLY_SIZE}"] = timed(
        lambda: sum(verification.cf_tally(CF_TALLY_SIZE).values()))
    for name, gf in BUILDERS.items():
        cap = cli.SERIES[gf].cap
        builders[f"{name}@{cap}"] = timed(
            lambda: getattr(catalog, name)(cap))
    for (family, measure), value in GENERATORS.items():
        bound = enumeration.FamilyBound(family, measure, value)
        generators[f"{family}/{measure}@{value}"] = timed(
            lambda: enumeration.count(bound))
    for cmd in commands("map-stream", 1):
        if cmd["argv"][0] != "map":
            continue
        name = cmd["argv"][-1]
        family, func = cli.BIJECTIONS[name]
        sources = [objects.from_json_obj(family, json.loads(line))
                   for line in cmd["input"]]

        def run() -> int:
            for _ in range(MAP_PASSES):
                for x in sources:
                    func(x)
            return MAP_PASSES * len(sources)

        part = timed(run)
        per = 1e6 / part["objects"]
        maps[name] = {"raw_us": part["raw_s"] * per,
                      "calibration_s": part["calibration_s"],
                      "reference_us": part["reference_s"] * per,
                      "objects": len(sources)}
    return {"calibration": {"samples_before_and_after": BRACKET_SAMPLES,
                            "sample_every_s": SAMPLE_EVERY_S},
            "suites_s": suites, "checks_s": checks, "builders_s": builders,
            "generators_s": generators, "maps_us": maps}


def _env(root: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(root, "src")}


def import_ms(root: str) -> float:
    """Milliseconds one fresh interpreter takes to import stanlab.cli."""
    code = ("import time; t = time.perf_counter(); import stanlab.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(root),
                          capture_output=True, text=True, check=True)
    return float(proc.stdout) * 1000


def perfbench(root: str, workload: str) -> tuple[dict, dict]:
    """One workload's end-to-end metrics and verdict, and the provenance."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    prov, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(correct=result["correct"], failed=result["failed"],
               attempted=result["attempted"])
    return out, prov["provenance"]


def tier1(root: str) -> dict:
    """Wall time of the root's Tier-1 tests and pytest's summary line."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    return {"wall_s": wall, "summary": summary.strip("= ")}


def _reference(timing: dict) -> float:
    """A part's scaled time, in seconds or in microseconds per object."""
    return timing.get("reference_s", timing.get("reference_us"))


def _in_turn(roots: list, turn: int) -> list:
    """The roots in their order for one turn: reversed on odd turns, so no
    root always runs first."""
    return roots if turn % 2 == 0 else roots[::-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--root", action="append",
                        help="a checkout to measure (repeatable; default: "
                             "this script's checkout)")
    args = parser.parse_args(argv)
    given = args.root or [os.path.dirname(HERE)]
    roots = [os.path.abspath(r) for r in given]
    found = {r: {"root": g, "perfbench": {}} for r, g in zip(roots, given)}

    for turn, workload in enumerate(WORKLOADS):
        for root in _in_turn(roots, turn):
            metrics, prov = perfbench(root, workload)
            found[root]["perfbench"][workload] = metrics
            found[root].update(git_commit=prov["git_commit"],
                               source_sha256=prov["source_sha256"])
            print(f"{os.path.basename(root)} {workload}: {metrics}",
                  file=sys.stderr, flush=True)
    starts = {r: [] for r in roots}
    for turn in range(IMPORT_STARTS):
        for root in _in_turn(roots, turn):
            starts[root].append(import_ms(root))
    code = (f"import json, sys; sys.path.insert(0, {HERE!r}); "
            "import bench; print(json.dumps(bench.in_process()))")
    runs = {r: [] for r in roots}
    for turn in range(REPEATS):
        for root in _in_turn(roots, turn):
            proc = subprocess.run([sys.executable, "-c", code],
                                  env=_env(root), capture_output=True,
                                  text=True, check=True)
            # the last line: importing child.py writes "ready" first
            runs[root].append(json.loads(proc.stdout.splitlines()[-1]))
    # every run reports the same calibration settings of child.py
    calibration = [run.pop("calibration") for root in roots
                   for run in runs[root]][0]
    for root in roots:
        found[root]["import_stanlab_cli_ms"] = {
            "median": statistics.median(starts[root]),
            "samples": starts[root]}
        for part, values in runs[root][0].items():
            found[root][part] = {
                key: min((run[part][key] for run in runs[root]),
                         key=_reference)
                for key in values}
    for root in roots:
        found[root]["tier1"] = tier1(root)

    record = {
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "settings": {"perfbench_seconds": PERFBENCH_SECONDS, "seed": 1,
                     "import_starts": IMPORT_STARTS,
                     "in_process_repeats": REPEATS,
                     "calibration": calibration,
                     "map_passes": MAP_PASSES,
                     "map_check_size": MAP_CHECK_SIZE,
                     "reference_s": REFERENCE_S},
        "checkouts": [found[r] for r in roots],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
