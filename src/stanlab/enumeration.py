"""Exhaustive enumeration of the supported families at a fixed measure.

Streams are generated by DFS over canonical prefixes and arrive in
lexicographic order of the canonical field encoding (rows, word, diagonals,
columns).  Re-invoking an iterator restarts the same stream.  A safety cap
bounds stream length.  Grouped counts read one statistic per object straight
from the raw encoding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from . import objects
from .errors import CapExceeded, UnsupportedPair

DEFAULT_CAP = 10_000_000


# -- raw generators -----------------------------------------------------------
# Raw form: stanley/parallelogram -> tuple of pairs, dyck/motzkin -> word,
# fountain -> tuple of ints.  DFS choice order matches the canonical order.

def _gen_stanley_columns(n: int) -> Iterator[tuple]:
    if n < 1:
        return

    def walk(rows: tuple, s: int, e: int):
        if e == n:
            yield rows
            return
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, n + 1):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2)

    for l1 in range(1, n + 1):
        yield from walk(((0, l1),), 0, l1)


def _gen_stanley_semiperimeter(n: int) -> Iterator[tuple]:
    if n < 2:
        return

    def walk(rows: tuple, s: int, e: int):
        if e + len(rows) == n:
            yield rows
        # budget: adding a row costs one more row plus a strictly larger end
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, n - len(rows)):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2)

    for l1 in range(1, n):
        yield from walk(((0, l1),), 0, l1)


def _gen_stanley_area(n: int) -> Iterator[tuple]:
    if n < 1:
        return

    def walk(rows: tuple, s: int, e: int, area: int):
        if area == n:
            yield rows
            return
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, s2 + (n - area) + 1):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2, area + e2 - s2)

    for l1 in range(1, n + 1):
        yield from walk(((0, l1),), 0, l1, l1)


def _gen_dyck(n: int) -> Iterator[str]:
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

    yield from walk([], 0, 0)


def _gen_dyck_triple_free(n: int) -> Iterator[str]:
    """The Dyck words of semilength n avoiding UUU and DDD, in _gen_dyck's
    order: its walk with a branch cut as soon as a run reaches 3.  The
    stream stops at DEFAULT_CAP words, as iter_raw's do."""
    total = 2 * n

    def walk(word: list, h: int, run: int):
        # run: length of the last run of steps, negative for a run of D;
        # a U is taken only with room to come back down, so h <= remaining
        remaining = total - len(word)
        if remaining == 0:
            yield "".join(word)
            return
        if h > 0 and run > -2:
            word.append("D")
            yield from walk(word, h - 1, min(run, 0) - 1)
            word.pop()
        if h + 2 <= remaining and run < 2:
            word.append("U")
            yield from walk(word, h + 1, max(run, 0) + 1)
            word.pop()

    for count, word in enumerate(walk([], 0, 0), 1):
        if count > DEFAULT_CAP:
            raise CapExceeded(f"triple-free Dyck words of semilength {n} "
                              f"exceeded cap of {DEFAULT_CAP} objects")
        yield word


def _gen_peakless_motzkin(n: int) -> Iterator[str]:
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

    yield from walk([], 0)


def _gen_fountain_diagonals(m: int) -> Iterator[tuple]:
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

    yield from walk(())


def _gen_fountain_even_coins(e: int) -> Iterator[tuple]:
    # Left-to-right DFS over one list.  A last diagonal d is feasible while
    # evens + d*d//4 <= e: walking down from d to 1 costs exactly d*d//4 more
    # even coins and 1s spend any remainder, so every prefix kept completes
    # and the smallest next diagonal always fits.
    if e < 1:
        return
    diag = [1]
    evens = 1
    while diag:
        if evens < e:
            d = max(1, diag[-1] - 1)
            diag.append(d)
            evens += (d + 1) // 2
            continue
        yield tuple(diag)
        # the next prefix in canonical order: raise the last diagonal, or
        # drop it and raise the one before
        while diag:
            d = diag.pop()
            evens -= (d + 1) // 2
            d += 1
            if evens + (d + 1) // 2 + d * d // 4 <= e:
                diag.append(d)
                evens += (d + 1) // 2
                break


def _gen_parallelogram_area(n: int) -> Iterator[tuple]:
    if n < 1:
        return

    def walk(cols: tuple, b: int, top: int, area: int):
        if area == n:
            yield cols
            return
        for b2 in range(b, top + 1):
            for h2 in range(top - b2 + 1, n - area + 1):
                yield from walk(cols + ((b2, h2),), b2, b2 + h2 - 1, area + h2)

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

SUPPORTED_PAIRS = set(_GENERATORS)


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


def iter_raw(bound: FamilyBound) -> Iterator:
    """Stream raw encodings in canonical order, enforcing DEFAULT_CAP."""
    cap = DEFAULT_CAP
    count = 0
    for raw in _GENERATORS[(bound.family, bound.measure)](bound.value):
        count += 1
        if count > cap:
            raise CapExceeded(f"{bound} exceeded cap of {cap} objects")
        yield raw


def enumerate_family(bound: FamilyBound) -> Iterator:
    """Stream the bound's objects in canonical order; the generators only
    build valid objects, so they are wrapped without validation."""
    cls = objects.FAMILIES[bound.family][0]
    yield from map(cls, iter_raw(bound))


# -- statistics access ---------------------------------------------------------

def _statistic(family: str, name: str):
    """The function computing one integer statistic from the raw form."""
    value = objects.STATISTICS.get((family, name))
    if value is not None:
        return value
    if (family, name) in objects.NON_INTEGER_STATISTICS:
        raise UnsupportedPair(f"statistic {name!r} is not an integer mark")
    raise UnsupportedPair(f"statistic {name!r} not defined for {family}")


def count_grouped(bound: FamilyBound, group_by: str) -> dict[int, int]:
    value = _statistic(bound.family, group_by)
    counts = Counter(map(value, iter_raw(bound)))
    return dict(sorted(counts.items()))


@lru_cache(maxsize=512)
def cached_count(family: str, measure: str, value: int) -> int:
    n = 0
    for _ in iter_raw(FamilyBound(family, measure, value)):
        n += 1
    return n
