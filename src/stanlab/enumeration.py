"""Exhaustive enumeration of the supported families at a fixed measure.

Streams are generated by DFS over canonical prefixes and arrive in
lexicographic order of the canonical field encoding (rows, word, diagonals,
columns).  Each walk expands only prefixes that complete and emits a forced
tail in one step.  Every walk runs on an explicit stack, so no recursion
limit bounds an object's length: the path walks (Dyck, peakless Motzkin) and
the evenCoins walk keep their own, and the Stanley, parallelogram and
fountain-diagonal walks share one driver over lazy child iterators.
Re-invoking an iterator restarts the same stream.  A safety cap, counted
in ``islice`` at no Python call per object, bounds stream length.  ``count``
counts a stream and ``count_grouped`` reads one statistic per object
straight from the raw encoding; nothing is memoised, so every call walks its
stream afresh.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator

from . import objects
from .errors import CapExceeded, UnsupportedPair

DEFAULT_CAP = 10_000_000


# -- raw generators -----------------------------------------------------------
# Raw form: stanley/parallelogram -> tuple of pairs, dyck/motzkin -> word,
# fountain -> tuple of ints.  DFS choice order matches the canonical order.

def _walk(roots: Iterable[tuple], children) -> Iterator:
    """Depth-first over nodes (object, ..., left): a node with nothing left
    is a leaf and its object is yielded; any other is expanded by
    children(*node).  The stack holds one lazy child iterator per level, so
    objects come out in the order the children are listed."""
    stack = [iter(roots)]
    while stack:
        for node in stack[-1]:
            if node[-1]:
                stack.append(children(*node))
                break
            yield node[0]
        else:
            stack.pop()


def _gen_stanley(n: int, per_row: int, per_overlap: int) -> Iterator[tuple]:
    # A first row of l cells costs l + per_row; a row (s2, e2) on the row
    # (s, e) costs e2 - e + per_row + per_overlap * (e - s2), so the budget n
    # is the last end (columns), the last end plus the row count
    # (semiperimeter) or the cell count (area).  A row is kept only if it
    # spends the budget or leaves the cost of the cheapest next row, (e - 1,
    # e + 1); only a first row can have one cell, and then no next row.  In
    # the area walk (per_overlap 1) a start s2 leaves a row only while room >
    # e, so from s2 = e + 1 + per_row - left on; elsewhere room is fixed.
    def children(rows: tuple, s: int, e: int, left: int):
        lo = max(s + 1, e + 1 + per_row - left) if per_overlap else s + 1
        for s2 in range(lo, e):
            room = e + left - per_row - per_overlap * (e - s2)  # largest e2
            for e2 in range(e + 1, room - least + 1):
                yield rows + ((s2, e2 - s2),), s2, e2, room - e2
            if room > e:
                yield rows + ((s2, room - s2),), s2, room, 0

    least = 1 + per_row + per_overlap  # the cheapest next row
    last = n - per_row  # the first row that spends the budget
    firsts = [*range(2, last - least + 1), last] if last > 0 else []
    return _walk(((((0, l1),), 0, l1, last - l1) for l1 in firsts), children)


def _gen_dyck(n: int, max_run: int | None = None) -> Iterator[str]:
    """Dyck words of semilength n; with max_run, only those whose runs of
    U and of D are at most max_run long."""
    total = 2 * n
    limit = n if max_run is None else max_run  # no run is longer than n
    # run: length of the last run of steps, negative for a run of D.  A
    # prefix ending in a run of a D (a = 0 after a U) completes iff a plus
    # its D left fit in runs of at most limit, one run more than its U left.
    # A D keeps that so; a U does iff the (rest + h) / 2 D left fit in
    # (rest - h) / 2 runs, that is h (limit + 1) <= (limit - 1) rest.  Once
    # h == rest the closing run of D is emitted whole.
    highest = [(limit - 1) * rest // (limit + 1) for rest in range(total + 1)]
    stack = [("", 0, 0)]
    while stack:
        word, h, run = stack.pop()
        rest = total - len(word)
        if h == rest:
            yield word + "D" * h
            continue
        # U is pushed first so that D, which sorts before it, comes out first
        if h <= highest[rest] and run < limit:
            stack.append((word + "U", h + 1, run + 1 if run > 0 else 1))
        if h > 0 and run > -limit:
            stack.append((word + "D", h - 1, run - 1 if run < 0 else -1))


def _gen_peakless_motzkin(n: int) -> Iterator[str]:
    # A prefix pushed keeps h <= rest (h < rest after a U), so every prefix
    # completes; at h == rest the closing run of D is emitted whole.
    stack = [("", 0)]
    while stack:
        word, h = stack.pop()
        rest = n - len(word)
        if h == rest:
            yield word + "D" * h
            continue
        # pushed U, F, D so they come out in the order D < F < U
        if h + 3 <= rest:  # a U needs a non-D step plus the way back down
            stack.append((word + "U", h + 1))
        stack.append((word + "F", h))
        if h > 0 and word[-1] != "U":  # no UD factor
            stack.append((word + "D", h - 1))


def _fountain_children(diag: tuple, left: int):
    # left counts the diagonals still to come; descending to 1 by unit steps
    # bounds the next size by left, which makes the last diagonal 1; d ==
    # left forces the rest, left - 1, ..., 1, so that child is one leaf
    for d in range(max(1, diag[-1] - 1) if diag else 1, left):
        yield diag + (d,), left - 1
    if left:
        yield diag + tuple(range(left, 0, -1)), 0


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


def _parallelogram_children(cols: tuple, b: int, top: int, left: int):
    # a column (b2, h2) starts within the last column, ends at or above its
    # top and spends h2 of the area left; from the empty root (b = top = 0)
    # that gives the first columns (0, h2)
    for b2 in range(b, top + 1):
        for h2 in range(top - b2 + 1, left + 1):
            yield cols + ((b2, h2),), b2, b2 + h2 - 1, left - h2


_GENERATORS = {
    ("stanley", "columns"): lambda n: _gen_stanley(n, 0, 0),
    ("stanley", "semiperimeter"): lambda n: _gen_stanley(n, 1, 0),
    ("stanley", "area"): lambda n: _gen_stanley(n, 0, 1),
    ("dyck", "semilength"): _gen_dyck,
    ("peaklessMotzkin", "steps"): _gen_peakless_motzkin,
    ("fountain", "diagonals"):
        lambda m: _walk(_fountain_children((), m), _fountain_children),
    ("fountain", "evenCoins"): _gen_fountain_even_coins,
    ("parallelogram", "area"): lambda n: _walk(
        _parallelogram_children((), 0, 0, n), _parallelogram_children),
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
    """The stream, raising CapExceeded on drawing item DEFAULT_CAP + 1."""
    cap = DEFAULT_CAP
    stream = iter(stream)

    def refuse(_item):
        raise CapExceeded(f"{what} exceeded cap of {cap} objects")

    return chain(islice(stream, cap), map(refuse, stream))


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


def count(bound: FamilyBound) -> int:
    """Number of objects in the bound's stream."""
    return sum(1 for _ in iter_raw(bound))
