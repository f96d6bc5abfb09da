"""Batch command-line front end.

Four subcommands: enumerate (stream objects or grouped counts), map (apply a
bijection to JSON lines), series (emit a catalog series), verify (run a named
check suite).  Output is JSON lines on stdout, diagnostics go to stderr, and
exit codes separate usage errors (2), resource caps (3), bad input data (4),
failed theorem checks (1 for verify suites, 5 for series assertions and
invariant failures), and unexpected internal errors (6).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from typing import Callable, NamedTuple

from . import bijections, catalog, objects, verification
from .enumeration import (
    FamilyBound,
    count,
    count_grouped,
    enumerate_family,
)
from .errors import (
    CapExceeded,
    OutOfRange,
    StanlabError,
    UnsupportedPair,
)

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
    # bytes decoded line by line: bytes that are not UTF-8 spoil one line
    if args.infile:
        try:
            stream = open(args.infile, "rb")
        except OSError as exc:
            raise UnsupportedPair(f"cannot read {args.infile}: {exc}")
    else:
        stream = sys.stdin.buffer
    _stamp(args)
    with stream:
        for lineno, raw in enumerate(stream, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                data = json.loads(line)
                src = objects.from_json_obj(family, data)
                dst = func(src)
            # bad input raises ValueError (InvalidObject, TooSmall, the
            # decoders' errors) or, from the JSON decoder on over-deep
            # nesting, RecursionError; main maps code faults to 5 or 6
            except (ValueError, RecursionError) as exc:
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
    return 0


# -- series ------------------------------------------------------------------------

def _cf_a(order: int) -> dict:
    record = catalog.gf_continued_fractions(order)
    return {"depth": record["depth"], "series": record["a"]}


def _terms_upto(series, slot: int, limit: int) -> dict:
    return {e: c for e, c in series.terms.items() if e[slot] <= limit}


def _counts_match(series, measure: str, first: int, last: int) -> bool:
    """The coefficients of the grade powers first .. last count the Stanley
    polyominoes by measure."""
    grade = series.ring.grade
    return all(series.coeff({grade: n})
               == count(FamilyBound("stanley", measure, n))
               for n in range(first, last + 1))


class Gf(NamedTuple):
    """One `series --gf` choice: the largest --order, build(order) giving
    the record printed after "gf" and "order", and oracle(order, record)
    spot-checking that record against brute-force enumeration.  The entries
    look library names up when they run, so rebinding a public name reaches
    every entry."""

    cap: int
    build: Callable[[int], dict]
    oracle: Callable[[int, dict], bool]


# Each cap, the series counterpart of the enumeration cap, takes about 10 s or
# less on a 2-vCPU machine; gf_full grows about 3x per order past it.
SERIES = {
    "full": Gf(
        12, lambda n: {"series": catalog.gf_full(n)},
        lambda n, r: _terms_upto(r["series"], 0, min(n, 5))
        == verification.full_tally(min(n, 5))),
    "columns": Gf(
        150, lambda n: dict(zip(("series", "at-u-1"), catalog.gf_columns(n))),
        lambda n, r: _counts_match(r["at-u-1"], "columns", 1, min(n, 9))),
    "semiperimeter": Gf(
        150, lambda n: dict(zip(("series", "at-u-1"),
                                catalog.gf_semiperimeter(n))),
        lambda n, r: _counts_match(r["at-u-1"], "semiperimeter", 2,
                                   min(n, 12))),
    # for area and cf-specializations: gf_continued_fractions has compared
    # a-1q1 with parallelogram counts already; no catalog check compares its
    # area series with enumeration
    "area": Gf(
        400, lambda n: {"series": catalog.gf_area(n)},
        lambda n, r: _counts_match(r["series"], "area", 1, min(n, 12))),
    "cf-a": Gf(
        40, _cf_a,
        lambda n, r: _terms_upto(r["series"], 1, min(n, 6))
        == verification.cf_tally(min(n, 6))),
    "cf-specializations": Gf(
        40, lambda n: {k: v for k, v in
                       catalog.gf_continued_fractions(n).items() if k != "a"},
        lambda n, r: _counts_match(r["area"], "area", 1, min(n, 12))),
    # the refinements of the columns and semiperimeter series.  Their columns
    # refinements hold, but the claimed Fibonacci count with no internal edge
    # by semiperimeter does not match enumeration
    "corollaries": Gf(
        40,
        lambda n: {"columns": catalog.gf_columns_corollaries(n),
                   "semiperimeter": catalog.gf_semiperimeter_corollaries(n)},
        lambda n, r: all(
            verification.edge_free_count(k) == catalog.fibonacci(k - 1)
            for k in range(2, min(n, 10) + 1))),
}


def cmd_series(args) -> int:
    gf = SERIES[args.gf]
    if args.order > gf.cap:
        raise CapExceeded(f"--order {args.order} exceeds the cap of {gf.cap} "
                          f"for --gf {args.gf}")
    record = gf.build(args.order)
    result = {"gf": args.gf, "order": args.order,
              **catalog.record_json(record)}
    if args.verify:
        result["verified_against_oracle"] = gf.oracle(args.order, record)
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
    p.add_argument("--gf", required=True, choices=SERIES)
    p.add_argument("--order", required=True, type=int,
                   help="truncation order, capped per --gf (README lists "
                        "the caps)")
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
