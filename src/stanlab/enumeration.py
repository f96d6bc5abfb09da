"""Exhaustive enumeration of the supported families at a fixed measure.

Streams are generated by DFS over canonical prefixes and arrive in
lexicographic order of the canonical field encoding (rows, word, diagonals,
columns).  Re-invoking an iterator restarts the same stream.  A safety cap
bounds stream length; an optional on-disk cache stores the JSON-lines
stream keyed by a source hash, purely as an optimization.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

from . import objects
from .errors import CapExceeded, UnsupportedPair
from .series import SeriesRing, TruncatedSeries

DEFAULT_CAP = 10_000_000

SUPPORTED_PAIRS = {
    ("stanley", "columns"),
    ("stanley", "semiperimeter"),
    ("stanley", "area"),
    ("dyck", "semilength"),
    ("peaklessMotzkin", "steps"),
    ("fountain", "diagonals"),
    ("fountain", "evenCoins"),
    ("parallelogram", "area"),
}


@dataclass(frozen=True)
class FamilyBound:
    family: str
    measure: str
    value: int

    def __post_init__(self):
        if (self.family, self.measure) not in SUPPORTED_PAIRS:
            raise UnsupportedPair(f"({self.family}, {self.measure}) not supported")
        if self.value < 0:
            raise UnsupportedPair(f"measure value must be nonnegative, got {self.value}")


# -- raw generators -----------------------------------------------------------
# Raw form: stanley/parallelogram -> tuple of pairs, dyck/motzkin -> word,
# fountain -> tuple of ints.  DFS choice order matches the canonical order.

def _gen_stanley_columns(n: int, prefix=None) -> Iterator[tuple]:
    if n < 1:
        return

    def walk(rows: tuple, s: int, e: int):
        if e == n:
            yield rows
            return
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, n + 1):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2)

    if prefix is not None:
        s, l = prefix[-1]
        yield from walk(prefix, s, s + l)
        return
    for l1 in range(1, n + 1):
        yield from walk(((0, l1),), 0, l1)


def _gen_stanley_semiperimeter(n: int, prefix=None) -> Iterator[tuple]:
    if n < 2:
        return

    def walk(rows: tuple, s: int, e: int):
        if e + len(rows) == n:
            yield rows
        # budget: adding a row costs one more row plus a strictly larger end
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, n - len(rows)):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2)

    if prefix is not None:
        s, l = prefix[-1]
        yield from walk(prefix, s, s + l)
        return
    for l1 in range(1, n):
        yield from walk(((0, l1),), 0, l1)


def _gen_stanley_area(n: int, prefix=None) -> Iterator[tuple]:
    if n < 1:
        return

    def walk(rows: tuple, s: int, e: int, area: int):
        if area == n:
            yield rows
            return
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, s2 + (n - area) + 1):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2, area + e2 - s2)

    if prefix is not None:
        s, l = prefix[-1]
        yield from walk(prefix, s, s + l, sum(l for _, l in prefix))
        return
    for l1 in range(1, n + 1):
        yield from walk(((0, l1),), 0, l1, l1)


def _gen_dyck(n: int, prefix=None) -> Iterator[str]:
    total = 2 * n

    def walk(word: list, h: int, ups: int):
        if len(word) == total:
            yield "".join(word)
            return
        remaining = total - len(word)
        if h > 0 and h <= remaining:  # D sorts before U
            word.append("D")
            yield from walk(word, h - 1, ups)
            word.pop()
        if ups < n and h + 1 <= remaining - 1:
            word.append("U")
            yield from walk(word, h + 1, ups + 1)
            word.pop()

    start = list(prefix) if prefix else []
    yield from walk(start, start.count("U") - start.count("D"), start.count("U"))


def _gen_peakless_motzkin(n: int, prefix=None) -> Iterator[str]:
    def walk(word: list, h: int):
        rest = n - len(word)
        if rest == 0:
            if h == 0:
                yield "".join(word)
            return
        if h > rest:
            return
        last = word[-1] if word else ""
        if h > 0 and last != "U":  # no UD factor
            word.append("D")
            yield from walk(word, h - 1)
            word.pop()
        word.append("F")
        yield from walk(word, h)
        word.pop()
        if h + 2 <= rest:  # a U needs a non-D step plus the way back down
            word.append("U")
            yield from walk(word, h + 1)
            word.pop()

    start = list(prefix) if prefix else []
    yield from walk(start, start.count("U") - start.count("D"))


def _gen_fountain_diagonals(m: int, prefix=None) -> Iterator[tuple]:
    if m < 1:
        return

    def walk(diag: tuple):
        j = len(diag)
        if j == m:
            if diag[-1] == 1:
                yield diag
            return
        lo = max(1, diag[-1] - 1) if diag else 1
        # descending to 1 by unit steps bounds each size by m - j
        for d in range(lo, m - j + 1):
            yield from walk(diag + (d,))

    yield from walk(prefix if prefix is not None else ())


def _gen_fountain_even_coins(e: int, prefix=None) -> Iterator[tuple]:
    if e < 1:
        return
    # build right to left (the constraint bounds the left neighbour),
    # then sort the collected batch into canonical order
    out: list[tuple] = []

    def walk(diag: tuple, evens: int):
        if evens == e:
            out.append(diag)
            return
        lim = diag[0] + 1 if diag else 1
        for d in range(1, lim + 1):
            if evens + (d + 1) // 2 <= e:
                walk((d,) + diag, evens + (d + 1) // 2)

    walk((), 0)
    out.sort()
    yield from out


def _gen_parallelogram_area(n: int, prefix=None) -> Iterator[tuple]:
    if n < 1:
        return

    def walk(cols: tuple, b: int, top: int, area: int):
        if area == n:
            yield cols
            return
        for b2 in range(b, top + 1):
            for h2 in range(top - b2 + 1, n - area + 1):
                yield from walk(cols + ((b2, h2),), b2, b2 + h2 - 1, area + h2)

    if prefix is not None:
        b, h = prefix[-1]
        yield from walk(prefix, b, b + h - 1, sum(h for _, h in prefix))
        return
    for h1 in range(1, n + 1):
        yield from walk(((0, h1),), 0, h1 - 1, h1)


_GENERATORS = {
    ("stanley", "columns"): _gen_stanley_columns,
    ("stanley", "semiperimeter"): _gen_stanley_semiperimeter,
    ("stanley", "area"): _gen_stanley_area,
    ("dyck", "semilength"): _gen_dyck,
    ("peaklessMotzkin", "steps"): _gen_peakless_motzkin,
    ("fountain", "diagonals"): _gen_fountain_diagonals,
    ("fountain", "evenCoins"): _gen_fountain_even_coins,
    ("parallelogram", "area"): _gen_parallelogram_area,
}


def _wrap(family: str, raw):
    if family == "stanley":
        return objects.StanleyPolyomino(raw)
    if family == "dyck":
        return objects.DyckPath(raw)
    if family == "peaklessMotzkin":
        return objects.MotzkinPath(raw)
    if family == "fountain":
        return objects.CoinFountain(raw)
    if family == "parallelogram":
        return objects.ParallelogramPolyomino(raw)
    raise UnsupportedPair(f"unknown family {family!r}")


# -- prefix splitting for --jobs ----------------------------------------------

def _first_level_states(bound: FamilyBound) -> list:
    f, m, v = bound.family, bound.measure, bound.value
    if f == "stanley":
        hi = v if m in ("columns", "area") else v - 1
        return [((0, l),) for l in range(1, max(hi, 0) + 1)]
    if f == "dyck":
        if v >= 2:
            return ["UD", "UU"]
        return ["U"] if v == 1 else [""]
    if f == "peaklessMotzkin":
        if v == 0:
            return [""]
        return ["F"] + (["U"] if v >= 2 else [])
    if f == "fountain" and m == "diagonals":
        return [(d,) for d in range(1, v + 1)]
    if f == "parallelogram":
        return [((0, h),) for h in range(1, v + 1)]
    return [None]  # sequential fallback


def _complete_prefix(args) -> list:
    family, measure, value, state = args
    gen = _GENERATORS[(family, measure)]
    return list(gen(value)) if state is None else list(gen(value, state))


def iter_raw(bound: FamilyBound, jobs: int = 1, cap: int = DEFAULT_CAP,
             cache_dir: str | os.PathLike | None = None) -> Iterator:
    """Stream raw encodings in canonical order, enforcing the cap."""
    if cache_dir is not None:
        yield from _iter_cached(bound, jobs, cap, Path(cache_dir))
        return
    count = 0
    for raw in _iter_uncached(bound, jobs):
        count += 1
        if count > cap:
            raise CapExceeded(f"{bound} exceeded cap of {cap} objects")
        yield raw


def _iter_uncached(bound: FamilyBound, jobs: int) -> Iterator:
    key = (bound.family, bound.measure)
    gen = _GENERATORS[key]
    if jobs <= 1 or key == ("fountain", "evenCoins"):
        yield from gen(bound.value)
        return
    states = _first_level_states(bound)
    tasks = [(bound.family, bound.measure, bound.value, s) for s in states]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        for chunk in ex.map(_complete_prefix, tasks):
            yield from chunk


def enumerate_family(bound: FamilyBound, jobs: int = 1, cap: int = DEFAULT_CAP,
                     cache_dir=None) -> Iterator:
    """Stream validated objects for the bound, canonical order."""
    fam = bound.family
    for raw in iter_raw(bound, jobs=jobs, cap=cap, cache_dir=cache_dir):
        yield _wrap(fam, raw)


# -- statistics access ---------------------------------------------------------

def _statistic(family: str, name: str):
    """The function computing one integer statistic from the raw form."""
    value = objects.STATISTICS.get((family, name))
    if value is not None:
        return value
    if (family, name) in objects.NON_INTEGER_STATISTICS:
        raise UnsupportedPair(f"statistic {name!r} is not an integer mark")
    raise UnsupportedPair(f"statistic {name!r} not defined for {family}")


def count_grouped(bound: FamilyBound, group_by: str, jobs: int = 1,
                  cap: int = DEFAULT_CAP, cache_dir=None) -> dict[int, int]:
    value = _statistic(bound.family, group_by)
    counts = Counter(map(value, iter_raw(bound, jobs=jobs, cap=cap,
                                         cache_dir=cache_dir)))
    return dict(sorted(counts.items()))


def aggregate_polynomial(
    bound: FamilyBound,
    marks: Sequence[tuple[str, str]],
    jobs: int = 1,
    cap: int = DEFAULT_CAP,
    cache_dir=None,
    order: int | None = None,
) -> TruncatedSeries:
    """Sum prod(var**statistic) over the stream; marks are (var, statistic)."""
    if not marks:
        raise UnsupportedPair("aggregate_polynomial needs at least one mark")
    names = tuple(v for v, _ in marks)
    values = tuple(_statistic(bound.family, s) for _, s in marks)
    terms: dict[tuple[int, ...], int] = {}
    max_grade = 0
    for raw in iter_raw(bound, jobs=jobs, cap=cap, cache_dir=cache_dir):
        e = tuple(value(raw) for value in values)
        terms[e] = terms.get(e, 0) + 1
        max_grade = max(max_grade, e[0])
    ring = SeriesRing(names, names[0], max_grade if order is None else order)
    return ring.from_terms({e: Fraction(c) for e, c in terms.items()})


@lru_cache(maxsize=512)
def cached_count(family: str, measure: str, value: int) -> int:
    n = 0
    for _ in iter_raw(FamilyBound(family, measure, value)):
        n += 1
    return n


# -- on-disk cache ---------------------------------------------------------------

def _source_hash() -> str:
    h = hashlib.sha256()
    for mod in ("enumeration.py", "objects.py"):
        h.update(Path(__file__).with_name(mod).read_bytes())
    return h.hexdigest()[:12]


def _cache_path(bound: FamilyBound, cache_dir: Path) -> Path:
    name = f"{bound.family}-{bound.measure}-{bound.value}-{_source_hash()}.jsonl"
    return cache_dir / name


def _raw_to_jsonable(family: str, raw):
    if family in ("dyck", "peaklessMotzkin"):
        return raw
    if family == "fountain":
        return list(raw)
    return [list(p) for p in raw]


def _raw_from_jsonable(family: str, data):
    if family in ("dyck", "peaklessMotzkin"):
        return data
    if family == "fountain":
        return tuple(data)
    return tuple(tuple(p) for p in data)


def _iter_cached(bound: FamilyBound, jobs: int, cap: int, cache_dir: Path) -> Iterator:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(bound, cache_dir)
    if path.exists():
        count = 0
        with path.open() as fh:
            for line in fh:
                count += 1
                if count > cap:
                    raise CapExceeded(f"{bound} exceeded cap of {cap} objects")
                yield _raw_from_jsonable(bound.family, json.loads(line))
        return
    rows = []
    count = 0
    for raw in _iter_uncached(bound, jobs):
        count += 1
        if count > cap:
            raise CapExceeded(f"{bound} exceeded cap of {cap} objects")
        rows.append(raw)
        yield raw
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for raw in rows:
                fh.write(json.dumps(_raw_to_jsonable(bound.family, raw)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
