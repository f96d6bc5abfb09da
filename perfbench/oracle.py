"""Correctness checks for every benchmark command, run outside the timed region.

Each check takes one command's argv, exit code and stdout text and returns a
list of problems; an empty list means the command is correct.  The expected
numbers come from closed forms and small dynamic programs written here, not
from the library, and deterministic stdout bytes are compared with sha256
digests frozen in ``digests.json``.  The ``map`` outputs are round-tripped
through the library's inverse maps.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

# The claims the check suites report as failed on purpose: exhaustive
# enumeration disagrees with them.  Any other failed check is a defect, and
# so is one of these passing.
KNOWN_REDS = {
    "semiperimeter": {
        "polyominoes with no internal edge by semiperimeter are counted by "
        "Fibonacci numbers",
    },
    "bijections": {
        "triple-run-free map is injective at each source size",
        "triple-run-free map image counts match semiperimeter counts",
    },
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(argv: list[str], rc, text: str, inputs: list[str] | None,
          digests: dict) -> list[str]:
    """Problems with one command's result; [] when it is correct."""
    try:
        if argv[0] == "map":
            return _check_map(argv, rc, text, inputs)
        problems = []
        want = digests.get(command_key(argv))
        if want is None:
            problems.append("no frozen digest for this command")
        elif digest(text) != want:
            problems.append("stdout differs from the frozen digest")
        if argv[0] == "enumerate":
            problems += _check_enumerate(argv, rc, text)
        elif argv[0] == "verify":
            problems += _check_verify(argv, rc, text)
        elif argv[0] == "series":
            problems += _check_series(argv, rc, text)
        else:
            problems.append(f"no oracle for {argv[0]!r}")
        return problems
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _opt(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


# -- closed forms and small counting programs ---------------------------------------

def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Dyck paths of semilength n with k peaks."""
    return comb(n, k) * comb(n, k - 1) // n


def columns_first_row(n: int, k: int) -> int:
    """Stanley polyominoes with n >= 2 columns and a first row of k cells."""
    if k < 2 or k > n:
        return 0
    return (k - 1) * comb(2 * n - k - 1, n - k) // (2 * n - k - 1)


@lru_cache(maxsize=None)
def peakless_motzkin(n: int) -> int:
    """Motzkin paths of length n with no UD factor, by a height DP."""
    # state: (height, last step was U) -> number of prefixes
    ways = {(0, False): 1}
    for _ in range(n):
        nxt: dict = {}
        for (h, after_up), w in ways.items():
            for step in "UFD":
                if step == "D" and (h == 0 or after_up):
                    continue
                key = (h + (step == "U") - (step == "D"), step == "U")
                nxt[key] = nxt.get(key, 0) + w
        ways = nxt
    return ways.get((0, False), 0) + ways.get((0, True), 0)


@lru_cache(maxsize=None)
def stanley_by_area(limit: int) -> dict:
    """{(area, rows): count} for Stanley polyominoes of area <= limit.

    Grows rows bottom to top: a row of l cells can be followed by a row of
    l' cells in min(l, l') - 1 ways (the start shift d in 1..l-1 must leave
    the new row ending strictly further right)."""
    return _grow(limit, lambda l, l2: min(l, l2) - 1)


@lru_cache(maxsize=None)
def parallelogram_by_area(limit: int) -> dict:
    """{(area, columns): count} for parallelogram polyominoes of area <= limit.

    A column of h cells can be followed by one of h' cells in min(h, h')
    ways (the bottom rises by 0..h-1 and the top may not go down)."""
    return _grow(limit, min)


def _grow(limit: int, ways_between) -> dict:
    # state: (area, last length, parts) -> count
    layer = {(l, l, 1): 1 for l in range(1, limit + 1)}
    out: dict = {}
    while layer:
        nxt: dict = {}
        for (a, l, k), w in layer.items():
            out[(a, k)] = out.get((a, k), 0) + w
            for l2 in range(1, limit - a + 1):
                m = ways_between(l, l2)
                if m:
                    key = (a + l2, l2, k + 1)
                    nxt[key] = nxt.get(key, 0) + w * m
        layer = nxt
    return out


def _by_first(table: dict, n: int) -> dict:
    return {k: c for (a, k), c in table.items() if a == n}


# -- enumerate ---------------------------------------------------------------------

def _check_enumerate(argv, rc, text) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    family, measure = _opt(argv, "--family"), _opt(argv, "--measure")
    n = int(_opt(argv, "--value"))
    stat = _opt(argv, "--group-by")
    if stat is None:
        # a full-record stream: one line per object
        lines = text.splitlines()
        want = _total(family, measure, n)
        if len(lines) != want:
            return [f"{len(lines)} records, expected {want}"]
        return []
    got = {int(k): v for k, v in json.loads(text).items()}
    want_total = _total(family, measure, n)
    problems = []
    if sum(got.values()) != want_total:
        problems.append(f"total {sum(got.values())}, expected {want_total}")
    want = _distribution(family, measure, n, stat)
    if want is not None and got != want:
        problems.append(f"distribution {got}, expected {want}")
    return problems


def _total(family: str, measure: str, n: int) -> int:
    if (family, measure) == ("stanley", "columns"):
        return catalan(n - 1) if n >= 1 else 0
    if (family, measure) == ("stanley", "semiperimeter"):
        return peakless_motzkin(n - 2) if n >= 2 else 0
    if (family, measure) == ("stanley", "area"):
        return sum(_by_first(stanley_by_area(n), n).values())
    if (family, measure) == ("dyck", "semilength"):
        return catalan(n)
    if (family, measure) == ("peaklessMotzkin", "steps"):
        return peakless_motzkin(n)
    if (family, measure) == ("fountain", "diagonals"):
        # the coin diagonal map: fountains with m diagonals are polyominoes
        # with m + 1 columns
        return catalan(n) if n >= 1 else 0
    if (family, measure) in (("fountain", "evenCoins"),
                             ("parallelogram", "area")):
        return sum(_by_first(parallelogram_by_area(n), n).values())
    raise ValueError(f"no closed form for ({family}, {measure})")


def _distribution(family, measure, n, stat) -> dict | None:
    key = (family, measure, stat)
    if key == ("stanley", "columns", "row"):
        return {1: 1} if n == 1 else {k: narayana(n - 1, k)
                                      for k in range(1, n)}
    if key == ("dyck", "semilength", "nbp"):
        return {0: 1} if n == 0 else {k: narayana(n, k)
                                      for k in range(1, n + 1)}
    if key == ("stanley", "area", "row"):
        return dict(sorted(_by_first(stanley_by_area(n), n).items()))
    if key == ("parallelogram", "area", "colCount"):
        return dict(sorted(_by_first(parallelogram_by_area(n), n).items()))
    if key == ("fountain", "evenCoins", "o"):
        # the composed fountain map sends area n and c columns to n even
        # and n - c odd coins
        cols = _by_first(parallelogram_by_area(n), n)
        return dict(sorted((n - c, v) for c, v in cols.items()))
    if key == ("peaklessMotzkin", "steps", "steps"):
        return {n: peakless_motzkin(n)}
    return None


# -- verify ------------------------------------------------------------------------

def _check_verify(argv, rc, text) -> list[str]:
    report = json.loads(text)
    suite = _opt(argv, "--suite")
    reds = {c["name"] for c in report["checks"] if c["status"] != "pass"}
    want = KNOWN_REDS.get(suite, set())
    problems = []
    if report.get("suite") != suite:
        problems.append(f"report names suite {report.get('suite')!r}")
    if reds - want:
        problems.append(f"unexpected failed checks: {sorted(reds - want)}")
    if want - reds:
        problems.append(f"known reds now pass: {sorted(want - reds)}")
    if rc != (1 if want else 0):
        problems.append(f"exit code {rc}, expected {1 if want else 0}")
    return problems


# -- series ------------------------------------------------------------------------

def _terms(series: dict) -> dict:
    out = {}
    for t in series["terms"]:
        if not isinstance(t["c"], int):
            raise ValueError(f"non-integer coefficient {t['c']!r}")
        out[tuple(t["e"])] = t["c"]
    return out


def _marginal(terms: dict, axes: tuple[int, ...]) -> dict:
    out: dict = {}
    for e, c in terms.items():
        k = tuple(e[i] for i in axes)
        out[k] = out.get(k, 0) + c
    return out


def _check_series(argv, rc, text) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    result = json.loads(text)
    gf, order = _opt(argv, "--gf"), int(_opt(argv, "--order"))
    problems = []

    def expect(name, got: dict, want: dict):
        if got != want:
            bad = sorted(k for k in set(got) | set(want)
                         if got.get(k) != want.get(k))
            problems.append(f"{name}: differs at {bad[:4]}")

    if gf == "full":
        # (x, y, z, p, q): polyominoes by columns are Catalan numbers and by
        # columns and rows Narayana numbers
        terms = _terms(result["series"])
        expect("by columns and rows",
               {k: v for k, v in _marginal(terms, (0, 1)).items()},
               {(n, k): narayana(n - 1, k) if n > 1 else 1
                for n in range(1, order + 1) for k in range(1, max(n, 2))})
    elif gf == "columns":
        g1 = _marginal(_terms(result["at-u-1"]), (0,))
        expect("at u = 1", g1, {(n,): catalan(n - 1)
                                for n in range(1, order + 1)})
        g = _terms(result["series"])
        want = {(1, 1): 1}
        for n in range(2, order + 1):
            for k in range(2, n + 1):
                want[(n, k)] = columns_first_row(n, k)
        expect("by columns and first row", g, want)
    elif gf == "semiperimeter":
        want = {(n,): peakless_motzkin(n - 2) for n in range(2, order + 1)}
        want = {k: v for k, v in want.items() if v}
        expect("at u = 1", _marginal(_terms(result["at-u-1"]), (0,)), want)
        expect("summed over first row",
               _marginal(_terms(result["series"]), (0,)), want)
    elif gf == "area":
        table = stanley_by_area(order)
        expect("by area", _terms(result["series"]),
               {(n,): sum(_by_first(table, n).values())
                for n in range(1, order + 1)})
    elif gf == "cf-a":
        # (p, q, v) = (peaks, peak height sum, valley height sum): by q and
        # p these are parallelogram polyominoes by area and columns
        table = parallelogram_by_area(order)
        expect("by peaks and peak height sum",
               _marginal(_terms(result["series"]), (0, 1)),
               {(k, a): c for (a, k), c in table.items()})
    else:
        problems.append(f"no oracle for series {gf!r}")
    return problems


# -- map ---------------------------------------------------------------------------

def _check_map(argv, rc, text, inputs) -> list[str]:
    from stanlab import bijections, objects

    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    name = _opt(argv, "--bijection")
    records = [json.loads(line) for line in text.splitlines()]
    if len(records) != len(inputs):
        return [f"{len(records)} records for {len(inputs)} input lines"]
    target = MAPS[name][1]
    bad = 0
    for line, rec in zip(inputs, records):
        obj = json.loads(line)
        if rec["in"] != obj:
            bad += 1
            continue
        out = objects.from_json_obj(target, rec["out"])
        if not _round_trip(name, obj, rec["out"], out, bijections):
            bad += 1
    return [f"{bad} of {len(records)} records fail the round trip"] if bad else []


# Each bijection's library function and the family it returns.
MAPS = {
    "phi": ("phi", "dyck"),
    "phi-inv": ("phi_inv", "stanley"),
    "chi": ("chi", "stanley"),
    "chi-prime": ("chi_prime", "stanley"),
    "f": ("f_map", "stanley"),
    "f-inv": ("f_inv", "fountain"),
    "h": ("h_map", "dyck"),
    "psi": ("psi", "fountain"),
}


def _round_trip(name, obj, out_json, out, bijections) -> bool:
    if name == "phi":
        return [list(r) for r in bijections.phi_inv(out).rows] == obj["rows"]
    if name == "phi-inv":
        return bijections.phi(out).word == obj["word"]
    if name == "f":
        return list(bijections.f_inv(out).diagonals) == obj["diagonals"]
    if name == "f-inv":
        return [list(r) for r in bijections.f_map(out).rows] == obj["rows"]
    # the maps without an inverse are checked by the statistics they carry
    if name == "chi":
        w = obj["word"]
        return (_sper(out_json) == len(w) + 2
                and out_json["rows"][0][1] == _axis_steps(w) + 1)
    if name == "chi-prime":
        w = obj["word"]
        return (_sper(out_json) == len(w) // 2 + 3
                and out_json["rows"][0][1] == _hills(w) + 2)
    if name == "h":
        peaks = _peak_heights(out_json["word"])
        area = sum(h for _, h in obj["columns"])
        return sum(peaks) == area and len(peaks) == len(obj["columns"])
    if name == "psi":
        d = out_json["diagonals"]
        area = sum(h for _, h in obj["columns"])
        even = sum((x + 1) // 2 for x in d)
        odd = sum(x // 2 for x in d)
        return even == area and odd == area - len(obj["columns"])
    raise ValueError(f"unknown bijection {name!r}")


def _sper(stanley: dict) -> int:
    s, l = stanley["rows"][-1]
    return s + l + len(stanley["rows"])


def _axis_steps(word: str) -> int:
    h = n = 0
    for c in word:
        h += (c == "U") - (c == "D")
        n += h == 0
    return n


def _hills(word: str) -> int:
    return sum(1 for h in _peak_heights(word) if h == 1)


def _peak_heights(word: str) -> list[int]:
    out = []
    h = 0
    for i, c in enumerate(word):
        h += 1 if c == "U" else -1
        if c == "U" and i + 1 < len(word) and word[i + 1] == "D":
            out.append(h)
    return out
