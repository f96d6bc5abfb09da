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
from itertools import islice
from typing import Callable, NamedTuple

from . import bijections, catalog, objects, verification
from .enumeration import FamilyBound, count_grouped, enumerate_family
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
    "chi-inv": ("stanley", bijections.chi_inv),
    "chi-prime": ("dyck", bijections.chi_prime),
    "f": ("fountain", bijections.f_map),
    "f-inv": ("stanley", bijections.f_inv),
    "h": ("parallelogram", bijections.h_map),
    "h-inv": ("dyck", bijections.h_inv),
    "psi": ("parallelogram", bijections.psi),
    "psi-inv": ("fountain", bijections.psi_inv),
}

# one encoder for every line writes json.dumps' bytes; the circular check is
# off because every record is a freshly built tree, which holds no cycle
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _emit(obj) -> None:
    sys.stdout.write(_encode(obj) + "\n")


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- enumerate ---------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    bound = FamilyBound(args.family, args.measure, args.value)
    if args.limit is not None and args.limit < 0:
        raise OutOfRange(f"--limit must be nonnegative, got {args.limit}")
    if args.limit is not None and args.group_by:
        raise UnsupportedPair("--limit does not apply with --group-by")
    if args.group_by:
        counts = count_grouped(bound, args.group_by)
        _emit({str(k): v for k, v in counts.items()})
        return 0
    # islice draws no object past the limit
    for x in islice(enumerate_family(bound), args.limit):
        _emit({"object": objects.to_json_obj(x), "stats": objects.stats_json(x)})
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
        lambda n, r: verification.upto(r["series"].terms, 0, min(n, 5))
        == verification.full_tally(min(n, 5))),
    "columns": Gf(
        150, lambda n: dict(zip(("series", "at-u-1"), catalog.gf_columns(n))),
        lambda n, r: not verification.count_mismatches(
            r["at-u-1"], "stanley", "columns", range(1, min(n, 9) + 1))),
    "semiperimeter": Gf(
        150, lambda n: dict(zip(("series", "at-u-1"),
                                catalog.gf_semiperimeter(n))),
        lambda n, r: not verification.count_mismatches(
            r["at-u-1"], "stanley", "semiperimeter", range(2, min(n, 12) + 1))),
    # for area and cf-specializations: gf_continued_fractions has compared
    # a-1q1 with parallelogram counts already; no catalog check compares its
    # area series with enumeration
    "area": Gf(
        400, lambda n: {"series": catalog.gf_area(n)},
        lambda n, r: not verification.count_mismatches(
            r["series"], "stanley", "area", range(1, min(n, 12) + 1))),
    "cf-a": Gf(
        40, _cf_a,
        lambda n, r: verification.upto(r["series"].terms, 1, min(n, 6))
        == verification.cf_tally(min(n, 6))),
    "cf-specializations": Gf(
        40, lambda n: {k: v for k, v in
                       catalog.gf_continued_fractions(n).items() if k != "a"},
        lambda n, r: not verification.count_mismatches(
            r["area"], "stanley", "area", range(1, min(n, 12) + 1))),
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
    _emit(result)
    return 1 if result.get("verified_against_oracle") is False else 0


# -- verify ------------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = verification.run_suite(args.suite, max_size=args.max_size)
    _emit(report)
    return 1 if verification.report_failed(report) else 0


# -- argument parsing ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanlab",
        description="enumeration, bijections, and series for staircase "
                    "polyominoes and their relatives")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream a family at a fixed size")
    p.add_argument("--family", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--value", required=True, type=int)
    p.add_argument("--group-by", default=None,
                   help="emit counts grouped by this integer statistic "
                        "instead; README lists the statistics per family")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many objects (not with --group-by)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("map", help="apply a bijection to JSON input lines")
    p.add_argument("--bijection", required=True, choices=sorted(BIJECTIONS))
    p.add_argument("--in", dest="infile", default=None,
                   help="input file (default: standard input)")
    p.add_argument("--skip-invalid", action="store_true",
                   help="report invalid lines on stderr and continue")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("series", help="emit a catalog series as JSON")
    p.add_argument("--gf", required=True, choices=SERIES)
    p.add_argument("--order", required=True, type=int,
                   help="truncation order, capped per --gf (README lists "
                        "the caps)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against brute-force enumeration")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("--suite", required=True,
                   choices=sorted(verification.SUITES) + ["all"])
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


_parser = None


def main(argv=None) -> int:
    """Run one command, returning its exit code; one parser, built on the
    first call, serves every call."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
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
