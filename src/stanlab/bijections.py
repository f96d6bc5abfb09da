"""Bijections between the combinatorial families.

phi encodes a Stanley polyomino as a Dyck word from its a/b sequences and
phi_inv rebuilds the rows from the run lengths.  chi sends peakless Motzkin
paths to Stanley polyominoes; chi_prime sends Dyck paths avoiding UUU and
DDD.  f_map sends coin fountains to Stanley polyominoes one column up, and
h_map reads a parallelogram polyomino as a Dyck path through its column
heights and overlaps.  psi chains h_map, phi_inv and f_inv.

The recursive definitions are unrolled into peel/replay loops so deep inputs
never hit the interpreter recursion limit.  The row surgery of f_map, f_inv,
chi and chi_prime keeps the rows in a list with the bottom row last, so adding
or dropping the bottom row is an append or a pop, and carries "shift every
row one column" as one running offset added back when the final rows are
built.  Each step then touches only the rows it changes, and the maps run in
time linear in their output.
"""

from __future__ import annotations

from typing import Iterable

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
    # the valleys DU cut the word into one piece U^a D^b per row, less the
    # U that opens each piece after the first and the D that closes each
    # piece before the last
    pieces = d.word.split("DU")
    rows = [(0, pieces[0].count("U") + 1)]
    for below, piece in zip(pieces, pieces[1:]):
        s, l = rows[-1]
        b = below.count("D") + 1
        rows.append((s + b, l + piece.count("U") + 1 - b))
    return make_stanley(rows)


# -- shared row surgery --------------------------------------------------------

def _replay(ops: Iterable[tuple[str, int]], first_len: int) -> StanleyPolyomino:
    """Grow rows from one row of first_len cells by ops, in order: ("row", k)
    adds a bottom row of k cells one column left of the old bottom row,
    ("cells", m) adds a cell at the left end of each of the m lowest rows, and
    both then shift every row one column right (through off)."""
    rows = [(0, first_len)]  # bottom row last; true start = start + off
    off = 0
    for kind, n in ops:
        off += 1
        if kind == "row":
            rows.append((-off, n))
        else:
            k = len(rows)
            for i in range(k - n if n < k else 0, k):
                s, l = rows[i]
                rows[i] = (s - 1, l + 1)
    return make_stanley([(s + off, l) for s, l in reversed(rows)])


# -- chi: peakless Motzkin paths -> Stanley polyominoes -------------------------
#
# A word is a list of blocks at height 0: F, or U body D with body a word one
# level up.  Both maps peel the first block and put its body's blocks in its
# place, so every block reaches the front once, in the order its first letter
# has in the input: one scan of the input, with a count of the blocks (chi)
# or of the UD blocks (chi_prime) in the current word, replays the peeling.
# A first scan counts those directly inside each U, keyed by its index;
# index -1 (the list's last slot, never a U) is the top level.

def chi(m: MotzkinPath) -> StanleyPolyomino:
    if not is_peakless(m):
        raise NotPeakless("chi expects a Motzkin path with no UD factor")
    word = m.word
    inside = [0] * (len(word) + 1)
    open_at = [-1]
    for i, c in enumerate(word):
        if c == "D":
            if len(open_at) == 1:
                raise InvariantViolation("unbalanced word")
            open_at.pop()
        else:
            inside[open_at[-1]] += 1
            if c == "U":
                open_at.append(i)
    if len(open_at) != 1:
        raise InvariantViolation("unbalanced word")
    ops: list[tuple] = []
    blocks = inside[-1]  # the current word's steps on the axis
    for i, c in enumerate(word):
        if c == "F":
            blocks -= 1
            ops.append(("cells", 1))
        elif c == "U":
            # a row of one more cell than the axis steps from U to the end
            blocks -= 1
            ops.append(("row", blocks + 2))
            blocks += inside[i]
    return _replay(reversed(ops), 1)


# -- chi_prime: Dyck paths avoiding UUU and DDD -> Stanley polyominoes ----------

def chi_prime(d: DyckPath) -> StanleyPolyomino:
    if "UUU" in d.word or "DDD" in d.word:
        raise ContainsTriple("chi_prime expects a Dyck path avoiding UUU and DDD")
    word = d.word
    hills = [0] * (len(word) + 1)
    dropped = set()
    open_at = [-1]
    for i, c in enumerate(word):
        if c == "U":
            if word[i + 1 : i + 2] == "D":
                hills[open_at[-1]] += 1
            open_at.append(i)
            continue
        if len(open_at) == 1:
            raise InvariantViolation("unbalanced word")
        u = open_at.pop()
        if i - u > 1:
            # with DDD excluded the first-return body must close with a
            # peak, which the peel drops with the block's own U and D
            if word[i - 2 : i] != "UD":
                raise InvariantViolation("first-return body should end in UD")
            dropped.add(i - 2)
    if len(open_at) != 1:
        raise InvariantViolation("unbalanced word")
    ops: list[tuple] = []
    left = hills[-1]  # the current word's hills
    for i, c in enumerate(word):
        if c != "U" or i in dropped:
            continue
        if word[i + 1] == "D":
            left -= 1
            ops.append(("cells", 1))
        else:
            ops.append(("row", left + 2))
            left += hills[i] - 1
    return _replay(reversed(ops), 2)


# -- f: coin fountains <-> Stanley polyominoes ----------------------------------

def f_map(c: CoinFountain) -> StanleyPolyomino:
    return _replay([("row", (k - 1) // 2 + 2) if k % 2 else ("cells", k // 2)
                    for k in reversed(c.diagonals[:-1])], 2)


def f_inv(p: StanleyPolyomino) -> CoinFountain:
    top_start, top_len = p.rows[-1]
    if top_start + top_len < 2:
        raise TooSmall("f_inv needs at least two columns")
    rows = list(reversed(p.rows))  # bottom row last; true start = start + off
    off = 0
    sizes: list[int] = []
    while len(rows) > 1 or rows[0] != (-off, 2):
        k = len(rows)
        r = rows[-1][1]
        # firstD, counted only up to first - 1: the branch below only asks
        # whether firstD <= first - 2
        d = 1
        stop = k if k < r else r - 1
        while d < stop and rows[-1 - d][0] + off == d:
            d += 1
        off -= 1  # both branches shift every remaining row one column left
        if d <= r - 2:
            sizes.append(2 * d)
            for i in range(k - d, k):
                s, l = rows[i]
                rows[i] = (s + 1, l - 1)
        else:
            # here firstD >= first - 1, and the bottom row of first = l + 2
            # cells gives a diagonal of size 2l + 1
            sizes.append(2 * r - 3)
            rows.pop()
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

# map name -> (the map, its sources of size m, target semiperimeter less
# source size).  Plain tuples read by index, like objects.FAMILIES.
SCANNED = {
    "chi": (chi, lambda m: enumeration.enumerate_family(
        enumeration.FamilyBound("peaklessMotzkin", "steps", m)), 2),
    # the walk emits valid words only, so they are wrapped unvalidated
    "chi_prime": (chi_prime, lambda m: map(DyckPath, enumeration._capped(
        enumeration._gen_dyck(m, 2),
        f"triple-free Dyck words of semilength {m}")), 3),
}

# the largest source size table_inverse scans; raising it changes which
# targets are refused.  On 2 vCPUs under Python 3.11, preimages of chi_prime
# takes 0.36 s at 14 and 2.5 s at 16; of chi 0.10, 0.77 and 5.1 s at 14, 16, 18
MAX_SOURCE_SIZE = 14


def preimages(map_name: str, size: int) -> dict[tuple, list]:
    """Every source of the given size, grouped by the rows of its image."""
    forward, sources, _ = SCANNED[map_name]
    groups: dict[tuple, list] = {}
    for s in sources(size):
        groups.setdefault(forward(s).rows, []).append(s)
    return groups


def table_inverse(map_name: str, target: StanleyPolyomino):
    """Invert chi or chi_prime by scanning all sources of the matching size.

    The source size is read off the target semiperimeter, so the scan is
    finite.  Raises NoPreimage when nothing maps to the target and
    MultiplePreimages if the scan ever finds two sources, which would
    disprove injectivity on that size.
    """
    size = stanley_stats(target).sper - SCANNED[map_name][2]
    if size < 0 or size > MAX_SOURCE_SIZE:
        raise NoPreimage(f"source size {size} outside bound {MAX_SOURCE_SIZE}")
    hits = preimages(map_name, size).get(target.rows, [])
    if not hits:
        raise NoPreimage(f"no {map_name} source of size {size} maps to the target")
    if len(hits) > 1:
        raise MultiplePreimages(f"{len(hits)} sources map to the target")
    return hits[0]
