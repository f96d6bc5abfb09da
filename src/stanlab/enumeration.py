"""Exhaustive enumeration of the supported families at a fixed measure.

Streams are generated by DFS over canonical prefixes and arrive in
lexicographic order of the canonical field encoding (rows, word, diagonals,
columns).  Each walk expands only prefixes that complete and emits a forced
tail in one step.  All nine walks (the eight pairs and the Dyck paths by
peak height sum that the continued-fraction check tallies) share one driver
over lazy child iterators on an explicit stack, so no recursion limit bounds
an object's length; it finishes each node with little left from a per-walk
table of its state's completions, as one run of objects:
``chain.from_iterable`` flattens the runs in C.  Streams are lazy iterators, not generators; they walk nothing
before the first draw, and re-invoking one's function restarts the stream.  A
safety cap, counted in ``islice`` at no Python call per object, bounds
stream length.  ``count`` counts a stream and ``count_grouped`` reads one
statistic per object straight from the raw encoding; no table outlives its
walk, so every call walks its stream afresh.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice
from typing import Iterable, Iterator

from . import objects
from .errors import CapExceeded, UnsupportedPair
from .frozen import Frozen

DEFAULT_CAP = 10_000_000


# -- raw generators -----------------------------------------------------------
# Raw form: stanley/parallelogram -> tuple of pairs, dyck/motzkin -> word,
# fountain -> tuple of ints.  DFS choice order matches the canonical order.

TABLE_LIMIT = 1024  # the most completions a table holds, whatever the bound


def _walk(roots: Iterable[tuple], children, near: int = 0) -> Iterator:
    """Depth-first over nodes (object, *state, left): a node with nothing
    left is a leaf and its object is yielded; any other is expanded by
    children(*node).  The objects are _runs' runs, flattened in C."""
    return chain.from_iterable(_runs(roots, children, near))


def _runs(roots: Iterable[tuple], children, near: int) -> Iterator:
    """_walk's objects in runs, a leaf's a run of one.  The stack holds one
    lazy child iterator per level, so objects come out in the order the
    children are listed.  A node with at most near left is finished in one
    run from its state's completion suffixes, listed in child order on first
    use by walking from the empty object and kept for this walk only; a
    state with over TABLE_LIMIT of them is expanded."""
    tables = {}
    stack = [iter(roots)]
    while stack:
        for node in stack[-1]:
            left = node[-1]
            if not left:
                yield (node[0],)
                continue
            if left <= near:
                table = tables.get(node[1:])
                if table is None:
                    table = list(islice(_walk(children(node[0][:0], *node[1:]),
                                              children), TABLE_LIMIT + 1))
                    if len(table) > TABLE_LIMIT:
                        table = ()
                    tables[node[1:]] = table
                if table:
                    yield map(node[0].__add__, table)
                    continue
            stack.append(children(*node))
            break
        else:
            stack.pop()


def _gen_stanley(n: int, per_row: int, per_overlap: int,
                 near: int) -> Iterator[tuple]:
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
    return _walk(((((0, l1),), 0, l1, last - l1) for l1 in firsts), children,
                 near)


def _gen_dyck(n: int, max_run: int | None = None) -> Iterator[str]:
    """Dyck words of semilength n; with max_run, only those whose runs of
    U and of D are at most max_run long."""
    limit = n if max_run is None else max_run  # no run is longer than n
    # Node (word, h, run, rest), run the length of the last run of steps,
    # negative for D.  A prefix ending in a run of a D (a = 0 after a U)
    # completes iff a plus its D left fit in runs of at most limit, one run
    # more than its U left.  A D keeps that so; a U does iff the (rest + h)
    # / 2 D left fit in (rest - h) / 2 runs, that is h (limit + 1) <= (limit
    # - 1) rest.  A U leaving h == rest comes with the closing run of D.
    highest = [(limit - 1) * rest // (limit + 1) for rest in range(2 * n + 1)]

    def children(word: str, h: int, run: int, rest: int):
        if h and run > -limit:  # D sorts before U
            yield word + "D", h - 1, min(run, 0) - 1, rest - 1
        if h <= highest[rest] and run < limit:
            if h + 2 < rest:
                yield word + "U", h + 1, max(run, 0) + 1, rest - 1
            else:
                yield word + "U" + "D" * (h + 1), 0, 0, 0

    return _walk([("", 0, 0, 2 * n)], children, 9)


def _gen_dyck_peak_sum(n: int) -> Iterator[str]:
    """Nonempty Dyck words whose peak heights sum to at most n."""
    # Node (word, h, up, left), up after a U, left 1 plus the budget: n less
    # the heights of the peaks passed.  A U from height h promises a peak at
    # least h + 1 high, so it is taken only while h < budget; a D after a U
    # spends the peak's height.  Every prefix closes by D steps, and a prefix
    # back on the axis is also a leaf.
    def children(word: str, h: int, up: bool, left: int):
        budget = left - 1
        if h:
            yield word + "D", h - 1, False, left - h if up else left
        else:
            yield word, 0, False, 0
        if h < budget:
            yield word + "U", h + 1, True, left

    return _walk([("U", 1, True, n + 1)] if n > 0 else [], children, 6)


def _gen_peakless_motzkin(n: int) -> Iterator[str]:
    # Node (word, h, up, rest), up after a U.  Every node keeps h < rest, so
    # every prefix completes; an F that leaves h == rest is followed by the
    # closing run of D whole.
    def children(word: str, h: int, up: bool, rest: int):
        if h and not up:  # D < F < U, and no UD factor
            yield word + "D", h - 1, False, rest - 1
        if h + 1 < rest:
            yield word + "F", h, False, rest - 1
        else:
            yield word + "F" + "D" * h, 0, False, 0
        if h + 3 <= rest:  # a U needs a non-D step plus the way back down
            yield word + "U", h + 1, True, rest - 1

    return _walk([("", 0, False, n)], children, 8)


def _gen_fountain(m: int, even: bool, near: int) -> Iterator[tuple]:
    # m counts diagonals or, if even, even coins: a diagonal d costs 1 or (d
    # + 1) // 2, and walking down from it to 1 by unit steps, which ends every
    # fountain, costs d - 1 or d * d // 4 more.  A next diagonal is kept while
    # both fit, 1s spending any remainder; an exact fit forces the walk down,
    # so that child is one leaf.
    def children(diag: tuple, last: int, left: int):
        d = max(1, last - 1)
        while (spare := left - ((d + 1) ** 2 // 4 if even else d)) >= 0:
            if spare:
                yield diag + (d,), d, left - ((d + 1) // 2 if even else 1)
            else:
                yield diag + tuple(range(d, 0, -1)), 1, 0
            d += 1

    return _walk(children((), 0, m), children, near)


def _parallelogram_children(cols: tuple, b: int, top: int, left: int):
    # a column (b2, h2) starts within the last column, ends at or above its
    # top and spends h2 of the area left; from the empty root (b = top = 0)
    # that gives the first columns (0, h2)
    for b2 in range(b, top + 1):
        for h2 in range(top - b2 + 1, left + 1):
            yield cols + ((b2, h2),), b2, b2 + h2 - 1, left - h2


# each walk's near (9 Dyck, 8 Motzkin) is the fastest at the benchmark's sizes
_GENERATORS = {
    ("stanley", "columns"): lambda n: _gen_stanley(n, 0, 0, 3),
    ("stanley", "semiperimeter"): lambda n: _gen_stanley(n, 1, 0, 5),
    ("stanley", "area"): lambda n: _gen_stanley(n, 0, 1, 7),
    ("dyck", "semilength"): _gen_dyck,
    ("peaklessMotzkin", "steps"): _gen_peakless_motzkin,
    ("fountain", "diagonals"): lambda m: _gen_fountain(m, False, 6),
    ("fountain", "evenCoins"): lambda e: _gen_fountain(e, True, 7),
    ("parallelogram", "area"): lambda n: _walk(
        _parallelogram_children((), 0, 0, n), _parallelogram_children, 5),
}

SUPPORTED_PAIRS = set(_GENERATORS)


class FamilyBound(Frozen):
    __slots__ = __match_args__ = ("family", "measure", "value")
    family: str
    measure: str
    value: int

    def __init__(self, family: str, measure: str, value: int):
        if (family, measure) not in SUPPORTED_PAIRS:
            raise UnsupportedPair(f"({family}, {measure}) not supported")
        if type(value) is not int:  # refuses 2.5, "3" and True alike
            raise UnsupportedPair(f"measure value must be an integer, got {value!r}")
        if value < 0:
            raise UnsupportedPair(f"measure value must be nonnegative, got {value}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "value", value)


def _over_cap(what: object, cap: int) -> CapExceeded:
    """The error that refuses more than cap objects of what."""
    return CapExceeded(f"{what} exceeded cap of {cap} objects")


def _capped(stream: Iterable, what: object) -> Iterator:
    """The stream, raising CapExceeded on drawing item DEFAULT_CAP + 1."""
    cap = DEFAULT_CAP
    stream = iter(stream)

    def refuse(_item):
        raise _over_cap(what, cap)

    return chain(islice(stream, cap), map(refuse, stream))


def iter_raw(bound: FamilyBound) -> Iterator:
    """Stream raw encodings in canonical order, enforcing DEFAULT_CAP.  The
    stream is a lazy iterator: its walk starts on the first draw."""
    walk = _GENERATORS[(bound.family, bound.measure)]
    return _capped(chain.from_iterable(map(walk, (bound.value,))), bound)


def enumerate_family(bound: FamilyBound) -> Iterator:
    """Stream the bound's objects lazily in canonical order; the generators
    only build valid objects, so they are wrapped without validation."""
    return map(objects.FAMILIES[bound.family][0], iter_raw(bound))


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
