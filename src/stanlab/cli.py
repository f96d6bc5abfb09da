"""Batch command-line front end.

Four subcommands: enumerate (stream objects or grouped counts), map (apply a
bijection to JSON lines), series (emit a catalog series), verify (run a named
check suite).  Output is JSON lines on stdout, diagnostics go to stderr, and
exit codes separate usage errors (2), resource caps (3), bad input data (4),
failed theorem checks (1 for verify suites, 5 for series assertions), and
unexpected internal errors (6).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import bijections, catalog, objects, verification
from .enumeration import (
    FamilyBound,
    cached_count,
    count_grouped,
    enumerate_family,
)
from .errors import (
    CapExceeded,
    OutOfRange,
    StanlabError,
    UnsupportedPair,
)
from .series import series_json

BIJECTIONS = {
    "phi": ("stanley", bijections.phi),
    "phi-inv": ("dyck", bijections.phi_inv),
    "chi": ("peaklessMotzkin", bijections.chi),
    "chi-prime": ("dyck", bijections.chi_prime),
    "f": ("fountain", bijections.f_map),
    "f-inv": ("stanley", bijections.f_inv),
    "h": ("parallelogram", bijections.h_map),
    "psi": ("parallelogram", bijections.psi),
}

GF_CHOICES = ("full", "columns", "semiperimeter", "area", "cf-a",
              "cf-specializations", "corollaries")

# Largest `series --order` per --gf, the series counterpart of the
# enumeration cap: each takes about 10 s or less on a 2-vCPU machine, and
# gf_full grows about 3x per order past it.
SERIES_MAX_ORDER = {
    "full": 12,
    "columns": 150,
    "semiperimeter": 150,
    "area": 400,
    "cf-a": 40,
    "cf-specializations": 40,
    "corollaries": 40,
}

# the only --gf choices that read --depth
DEPTH_CHOICES = ("cf-a", "cf-specializations")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _stamp(args) -> None:
    if getattr(args, "timestamps", False):
        _emit({"timestamp": datetime.now(timezone.utc).isoformat()})


# -- enumerate ---------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    bound = FamilyBound(args.family, args.measure, args.value)
    if args.limit is not None and args.limit < 0:
        raise OutOfRange(f"--limit must be nonnegative, got {args.limit}")
    if args.limit is not None and args.group_by:
        raise UnsupportedPair("--limit does not apply with --group-by")
    _stamp(args)
    if args.group_by:
        counts = count_grouped(bound, args.group_by)
        _emit({str(k): v for k, v in counts.items()})
        return 0
    emitted = 0
    for x in enumerate_family(bound):
        if args.limit is not None and emitted >= args.limit:
            break
        _emit({"object": objects.to_json_obj(x), "stats": objects.stats_json(x)})
        emitted += 1
    return 0


# -- map ---------------------------------------------------------------------------

def cmd_map(args) -> int:
    family, func = BIJECTIONS[args.bijection]
    if args.infile:
        try:
            stream = open(args.infile, encoding="utf-8")
        except OSError as exc:
            raise UnsupportedPair(f"cannot read {args.infile}: {exc}")
    else:
        stream = sys.stdin
    _stamp(args)
    status = 0
    with stream:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                src = objects.from_json_obj(family, data)
                dst = func(src)
            except (StanlabError, ValueError, KeyError, TypeError) as exc:
                if args.skip_invalid:
                    _diag(f"line {lineno}: skipped ({exc})")
                    continue
                _diag(f"line {lineno}: invalid input ({exc})")
                return 4
            _emit({
                "in": objects.to_json_obj(src),
                "out": objects.to_json_obj(dst),
                "stats_in": objects.stats_json(src),
                "stats_out": objects.stats_json(dst),
            })
    return status


# -- series ------------------------------------------------------------------------

def _series_result(gf: str, order: int, depth: int | None) -> dict:
    if gf == "full":
        return {"gf": gf, "order": order,
                "series": series_json(catalog.gf_full(order))}
    if gf == "columns":
        g, g1 = catalog.gf_columns(order)
        return {"gf": gf, "order": order, "series": series_json(g),
                "at-u-1": series_json(g1)}
    if gf == "semiperimeter":
        g, g1 = catalog.gf_semiperimeter(order)
        return {"gf": gf, "order": order, "series": series_json(g),
                "at-u-1": series_json(g1)}
    if gf == "area":
        return {"gf": gf, "order": order,
                "series": series_json(catalog.gf_area(order))}
    if gf in DEPTH_CHOICES:
        record = catalog.gf_continued_fractions(order, depth)
        if gf == "cf-a":
            return {"gf": gf, "order": order, "depth": record["depth"],
                    "series": series_json(record["a"])}
        slim = {k: v for k, v in record.items() if k != "a"}
        return {"gf": gf, "order": order, **catalog.record_json(slim)}
    # corollaries: the refinements of the columns and semiperimeter series
    return {
        "gf": gf,
        "order": order,
        "columns": catalog.record_json(catalog.gf_columns_corollaries(order)),
        "semiperimeter": catalog.record_json(
            catalog.gf_semiperimeter_corollaries(order)),
    }


def _series_oracle(gf: str, order: int, result: dict) -> bool:
    """Spot-check the emitted series against brute-force enumeration."""
    if gf == "full":
        limit = min(order, 5)
        got = {tuple(t["e"]): t["c"] for t in result["series"]["terms"]
               if t["e"][0] <= limit}
        return got == verification.full_tally(limit)
    if gf == "columns":
        return all(
            _g1_coeff(result, n) == cached_count("stanley", "columns", n)
            for n in range(1, min(order, 9) + 1))
    if gf == "semiperimeter":
        return all(
            _g1_coeff(result, n) == cached_count("stanley", "semiperimeter", n)
            for n in range(2, min(order, 12) + 1))
    if gf in ("area", "cf-specializations"):
        # gf_continued_fractions has compared a-1q1 with parallelogram counts
        # already; no catalog check compares its area series with enumeration
        series = result["series" if gf == "area" else "area"]
        coeffs = {t["e"][0]: t["c"] for t in series["terms"]}
        return all(
            coeffs.get(n, 0) == cached_count("stanley", "area", n)
            for n in range(1, min(order, 12) + 1))
    if gf == "cf-a":
        limit = min(order, 6)
        got = {tuple(t["e"]): t["c"] for t in result["series"]["terms"]
               if t["e"][1] <= limit}
        return got == verification.cf_tally(limit)
    # corollaries: the columns refinements hold, but the claimed Fibonacci
    # count with no internal edge by semiperimeter does not match enumeration
    return all(verification.edge_free_count(n) == catalog.fibonacci(n - 1)
               for n in range(2, min(order, 10) + 1))


def _g1_coeff(result: dict, n: int) -> int:
    for t in result["at-u-1"]["terms"]:
        if t["e"][0] == n:
            return t["c"]
    return 0


def cmd_series(args) -> int:
    if args.depth is not None and args.gf not in DEPTH_CHOICES:
        raise UnsupportedPair(f"--depth applies only to --gf "
                              f"{' and '.join(DEPTH_CHOICES)}, not {args.gf}")
    cap = SERIES_MAX_ORDER[args.gf]
    if args.order > cap:
        raise CapExceeded(f"--order {args.order} exceeds the cap of {cap} "
                          f"for --gf {args.gf}")
    result = _series_result(args.gf, args.order, args.depth)
    if args.verify:
        result["verified_against_oracle"] = _series_oracle(
            args.gf, args.order, result)
    _stamp(args)
    _emit(result)
    return 0


# -- verify ------------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = verification.run_suite(args.suite, max_size=args.max_size)
    _stamp(args)
    _emit(report)
    return 1 if verification.report_failed(report) else 0


# -- argument parsing ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanlab",
        description="enumeration, bijections, and series for staircase "
                    "polyominoes and their relatives")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--timestamps", action="store_true",
                       help="prepend a timestamp line to the output")

    p = sub.add_parser("enumerate", help="stream a family at a fixed size")
    p.add_argument("--family", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--value", required=True, type=int)
    p.add_argument("--group-by", default=None,
                   help="emit counts grouped by this integer statistic "
                        "instead; README lists the statistics per family")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many objects (not with --group-by)")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("map", help="apply a bijection to JSON input lines")
    p.add_argument("--bijection", required=True, choices=sorted(BIJECTIONS))
    p.add_argument("--in", dest="infile", default=None,
                   help="input file (default: standard input)")
    p.add_argument("--skip-invalid", action="store_true",
                   help="report invalid lines on stderr and continue")
    common(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("series", help="emit a catalog series as JSON")
    p.add_argument("--gf", required=True, choices=GF_CHOICES)
    p.add_argument("--order", required=True, type=int,
                   help="truncation order, capped per --gf (README lists "
                        "the caps)")
    p.add_argument("--depth", type=int, default=None,
                   help="continued-fraction truncation depth (cf-a and "
                        "cf-specializations only)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against brute-force enumeration")
    common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("--suite", required=True,
                   choices=sorted(verification.SUITES) + ["all"])
    p.add_argument("--max-size", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UnsupportedPair, OutOfRange) as exc:
        _diag(f"error: {exc}")
        return 2
    except CapExceeded as exc:
        _diag(f"error: {exc}")
        return 3
    except StanlabError as exc:
        _diag(f"theorem check failed: {type(exc).__name__}: {exc}")
        return 5
    except BrokenPipeError:
        return 0
    except Exception as exc:
        _diag(f"internal error: {type(exc).__name__}: {exc}")
        return 6


if __name__ == "__main__":
    sys.exit(main())
