"""Exhaustive enumeration of the supported families at a fixed measure.

Streams are generated by DFS over canonical prefixes and arrive in
lexicographic order of the canonical field encoding (rows, word, diagonals,
columns).  The path walks (Dyck, peakless Motzkin) and the evenCoins walk run
on an explicit stack, so no recursion limit bounds their length; the other
walks recurse once per row, column or diagonal.  Re-invoking an iterator
restarts the same stream.  A safety cap bounds stream length.  Grouped counts
read one statistic per object straight from the raw encoding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from . import objects
from .errors import CapExceeded, UnsupportedPair

DEFAULT_CAP = 10_000_000


# -- raw generators -----------------------------------------------------------
# Raw form: stanley/parallelogram -> tuple of pairs, dyck/motzkin -> word,
# fountain -> tuple of ints.  DFS choice order matches the canonical order.

def _gen_stanley_columns(n: int) -> Iterator[tuple]:
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
    def walk(rows: tuple, s: int, e: int, area: int):
        if area == n:
            yield rows
            return
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, s2 + (n - area) + 1):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2, area + e2 - s2)

    for l1 in range(1, n + 1):
        yield from walk(((0, l1),), 0, l1, l1)


def _gen_dyck(n: int, max_run: int | None = None) -> Iterator[str]:
    """Dyck words of semilength n; with max_run, only those whose runs of
    U and of D are at most max_run long."""
    total = 2 * n
    limit = n if max_run is None else max_run  # no run is longer than n
    # run: length of the last run of steps, negative for a run of D.  A U is
    # taken only with room to come back down, so every prefix completes.
    stack = [("", 0, 0)]
    while stack:
        word, h, run = stack.pop()
        rest = total - len(word)
        if rest == 0:
            yield word
            continue
        # U is pushed first so that D, which sorts before it, comes out first
        if h + 2 <= rest and run < limit:
            stack.append((word + "U", h + 1, run + 1 if run > 0 else 1))
        if h > 0 and run > -limit:
            stack.append((word + "D", h - 1, run - 1 if run < 0 else -1))


def _gen_peakless_motzkin(n: int) -> Iterator[str]:
    # Every prefix pushed keeps h <= rest, so every prefix completes.
    stack = [("", 0)]
    while stack:
        word, h = stack.pop()
        rest = n - len(word)
        if rest == 0:
            yield word
            continue
        # pushed U, F, D so they come out in the order D < F < U
        if h + 2 <= rest:  # a U needs a non-D step plus the way back down
            stack.append((word + "U", h + 1))
        if h < rest:
            stack.append((word + "F", h))
        if h > 0 and word[-1] != "U":  # no UD factor
            stack.append((word + "D", h - 1))


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


def _capped(stream: Iterable, what: object) -> Iterator:
    """Pass the stream through, raising CapExceeded past DEFAULT_CAP items."""
    cap = DEFAULT_CAP
    for count, item in enumerate(stream, 1):
        if count > cap:
            raise CapExceeded(f"{what} exceeded cap of {cap} objects")
        yield item


def iter_raw(bound: FamilyBound) -> Iterator:
    """Stream raw encodings in canonical order, enforcing DEFAULT_CAP."""
    yield from _capped(
        _GENERATORS[(bound.family, bound.measure)](bound.value), bound)


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
