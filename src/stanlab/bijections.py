"""Bijections between the combinatorial families.

phi encodes a Stanley polyomino as a Dyck word from its a/b sequences and
phi_inv rebuilds the rows from the run lengths.  chi sends peakless Motzkin
paths to Stanley polyominoes; chi_prime sends Dyck paths avoiding UUU and
DDD.  f_map sends coin fountains to Stanley polyominoes one column up, and
h_map reads a parallelogram polyomino as a Dyck path through its column
heights and overlaps.  psi chains h_map, phi_inv and f_inv.

The recursive definitions are unrolled into peel/replay loops so deep inputs
never hit the interpreter recursion limit.
"""

from __future__ import annotations

from itertools import groupby

from . import enumeration
from .errors import (
    ContainsTriple,
    InvariantViolation,
    MultiplePreimages,
    NoPreimage,
    NotPeakless,
    TooSmall,
)
from .objects import (
    CoinFountain,
    DyckPath,
    MotzkinPath,
    ParallelogramPolyomino,
    StanleyPolyomino,
    ab_sequences,
    is_peakless,
    make_dyck,
    make_fountain,
    make_motzkin,
    make_stanley,
    parallelogram_stats,
    stanley_stats,
)


# -- phi: Stanley polyominoes <-> Dyck paths ----------------------------------

def phi(p: StanleyPolyomino) -> DyckPath:
    a, b = ab_sequences(p)
    word = "".join("U" * ai + "D" * bi for ai, bi in zip(a, b))
    return make_dyck(word)


def phi_inv(d: DyckPath) -> StanleyPolyomino:
    if not d.word:
        return make_stanley(((0, 1),))
    runs = [(c, sum(1 for _ in g)) for c, g in groupby(d.word)]
    a = [n for c, n in runs if c == "U"]
    b = [n for c, n in runs if c == "D"]
    rows = [(0, a[0] + 1)]
    for i in range(1, len(a)):
        s, l = rows[-1]
        start = s + b[i - 1]
        end = s + l + a[i]
        rows.append((start, end - start))
    return make_stanley(rows)


# -- shared row surgery --------------------------------------------------------

def _add_bottom_row(rows: tuple, k: int) -> tuple:
    # new bottom row of k cells, one unit left of the current first row
    return ((0, k),) + tuple((s + 1, l) for s, l in rows)


def _prepend_cells(rows: tuple, m: int) -> tuple:
    # one extra leading cell on each of the first m rows, then renormalize
    new = [(s - 1, l + 1) if i < m else (s, l) for i, (s, l) in enumerate(rows)]
    return tuple((s + 1, l) for s, l in new)


def _grow_bottom_left(rows: tuple) -> tuple:
    # one extra cell at the left end of the bottom row only
    return _prepend_cells(rows, 1)


# -- chi: peakless Motzkin paths -> Stanley polyominoes -------------------------

def _steps_on_axis(word: str) -> int:
    h = 0
    n = 0
    for c in word:
        h += (c == "U") - (c == "D")
        if h == 0:
            n += 1
    return n


def _first_return(word: str) -> int:
    """Index just past the D closing the initial U."""
    h = 0
    for i, c in enumerate(word):
        h += (c == "U") - (c == "D")
        if h == 0 and c == "D":
            return i + 1
    raise InvariantViolation("unbalanced word")


def chi(m: MotzkinPath) -> StanleyPolyomino:
    if not is_peakless(m):
        raise NotPeakless("chi expects a Motzkin path with no UD factor")
    ops: list[tuple] = []
    word = m.word
    while word:
        if word[0] == "F":
            ops.append(("cell",))
            word = word[1:]
        else:
            k = _steps_on_axis(word) + 1
            cut = _first_return(word)
            body, tail = word[1 : cut - 1], word[cut:]
            # the same count read off the tail alone, as a consistency check
            if k - 2 != _steps_on_axis(tail):
                raise InvariantViolation("axis-step bookkeeping broke")
            ops.append(("row", k))
            word = body + tail
    rows: tuple = ((0, 1),)
    for op in reversed(ops):
        if op[0] == "cell":
            rows = _grow_bottom_left(rows)
        else:
            rows = _add_bottom_row(rows, op[1])
    return make_stanley(rows)


# -- chi_prime: Dyck paths avoiding UUU and DDD -> Stanley polyominoes ----------

def _hills(word: str) -> int:
    h = 0
    n = 0
    for i, c in enumerate(word):
        if c == "U" and h == 0 and i + 1 < len(word) and word[i + 1] == "D":
            n += 1
        h += (c == "U") - (c == "D")
    return n


def chi_prime(d: DyckPath) -> StanleyPolyomino:
    if "UUU" in d.word or "DDD" in d.word:
        raise ContainsTriple("chi_prime expects a Dyck path avoiding UUU and DDD")
    ops: list[tuple] = []
    word = d.word
    while word:
        if word.startswith("UD"):
            ops.append(("cell",))
            word = word[2:]
        else:
            cut = _first_return(word)
            body, tail = word[1 : cut - 1], word[cut:]
            # with DDD excluded the first-return body must close with a peak
            if not body.endswith("UD"):
                raise InvariantViolation("first-return body should end in UD")
            ops.append(("row", _hills(tail) + 2))
            word = body[:-2] + tail
    rows: tuple = ((0, 2),)
    for op in reversed(ops):
        if op[0] == "cell":
            rows = _grow_bottom_left(rows)
        else:
            rows = _add_bottom_row(rows, op[1])
    return make_stanley(rows)


# -- f: coin fountains <-> Stanley polyominoes ----------------------------------

def f_map(c: CoinFountain) -> StanleyPolyomino:
    sizes = c.diagonals
    rows: tuple = ((0, 2),)
    for k in reversed(sizes[:-1]):
        if k % 2:
            rows = _add_bottom_row(rows, (k - 1) // 2 + 2)
        else:
            rows = _prepend_cells(rows, k // 2)
    return make_stanley(rows)


def f_inv(p: StanleyPolyomino) -> CoinFountain:
    rows = p.rows
    if stanley_stats(p).col < 2:
        raise TooSmall("f_inv needs at least two columns")
    sizes: list[int] = []
    while rows != ((0, 2),):
        st = stanley_stats(StanleyPolyomino(rows))
        d, r = st.firstD, st.first
        if r >= d + 2:
            sizes.append(2 * d)
            rows = tuple(
                (s + 1, l - 1) if i < d else (s, l) for i, (s, l) in enumerate(rows)
            )
            rows = tuple((s - 1, l) for s, l in rows)
        else:
            # the lemma forces first = l + 2 here, with diagonal size 2l + 1
            if d < r - 1:
                raise InvariantViolation("first-diagonal dichotomy violated")
            sizes.append(2 * r - 3)
            rows = tuple((s - 1, l) for s, l in rows[1:])
            if not rows:
                raise InvariantViolation("odd reduction emptied the polyomino")
    sizes.append(1)
    return make_fountain(sizes)


# -- h: parallelogram polyominoes -> Dyck paths ----------------------------------

def h_map(q: ParallelogramPolyomino) -> DyckPath:
    heights = [h for _, h in q.columns]
    st = parallelogram_stats(q)
    parts = ["U" * heights[0]]
    for i, o in enumerate(st.overlaps):
        parts.append("D" * (heights[i] - o + 1))
        parts.append("U" * (heights[i + 1] - o + 1))
    parts.append("D" * heights[-1])
    return make_dyck("".join(parts))


def psi(q: ParallelogramPolyomino) -> CoinFountain:
    return f_inv(phi_inv(h_map(q)))


# -- generic inversion by enumeration --------------------------------------------

def table_inverse(map_name: str, target: StanleyPolyomino, size_bound: int = 64):
    """Invert chi or chi_prime by scanning all sources of the matching size.

    The source size is read off the target semiperimeter, so the scan is
    finite.  Raises NoPreimage when nothing maps to the target and
    MultiplePreimages if the scan ever finds two sources, which would
    disprove injectivity on that size.
    """
    st = stanley_stats(target)
    if map_name == "chi":
        size = st.sper - 2
    elif map_name == "chi_prime":
        size = st.sper - 3
    else:
        raise KeyError(f"table_inverse does not cover {map_name!r}")
    if size < 0 or size > size_bound:
        raise NoPreimage(f"source size {size} outside bound {size_bound}")
    if map_name == "chi":
        sources = (
            make_motzkin(w)
            for w in enumeration.iter_raw(
                enumeration.FamilyBound("peaklessMotzkin", "steps", size)
            )
        )
        fwd = chi
    else:
        sources = (
            make_dyck(w)
            for w in enumeration.iter_raw(
                enumeration.FamilyBound("dyck", "semilength", size)
            )
            if "UUU" not in w and "DDD" not in w
        )
        fwd = chi_prime
    hits = [s for s in sources if fwd(s) == target]
    if not hits:
        raise NoPreimage(f"no {map_name} source of size {size} maps to the target")
    if len(hits) > 1:
        raise MultiplePreimages(f"{len(hits)} sources map to the target")
    return hits[0]
