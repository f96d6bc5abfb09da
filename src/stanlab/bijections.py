"""Bijections between the combinatorial families.

phi encodes a Stanley polyomino as a Dyck word from its a/b sequences and
phi_inv rebuilds the rows from the run lengths.  chi sends peakless Motzkin
paths to Stanley polyominoes; chi_prime sends Dyck paths avoiding UUU and
DDD.  f_map sends coin fountains to Stanley polyominoes one column up, and
h_map reads a parallelogram polyomino as a Dyck path, one D run and one U
run from each two neighbouring columns.

psi is f_inv of the shear that makes column i, (b, h), row (b + i, h + 1).
That shear is phi_inv of h_map: with t = b + h a column's top, h_map writes
U^h_0, then D^(b_{i+1} - b_i + 1) U^(t_{i+1} - t_i + 1) for each two
neighbouring columns, then D^h_last; phi_inv makes row 0 (0, h_0 + 1) and
starts each next row one D run further right, one U run less one D run
longer, which puts row i at (b_i + i, h_i + 1).  h_inv and psi_inv undo the
shear of phi_inv and of f_map.

f_map, chi and chi_prime build rows bottom up in one pass over a list of
diagonal sizes: an odd size k at position j makes the next row, ending at
column j + (k + 3) // 2, and an even size k widens the next k // 2 rows by
one cell on the left.  f_inv reads the sizes back off the row starts in one
pass: row i is the i-th odd size, and starts[i + 1] - starts[i] - 1
widenings end at row i, in the order they began.

chi_inv reads chi's peel back off the rows in one pass: the F's before each
U come from the row starts, the blocks inside each U from the row ends, and
a preorder walk of those counts writes the word.  chi_prime alone has no
inverse: from semilength 5 on, distinct sources share an image and some
polyominoes of the target semiperimeter get none (verification.preimages(m)
groups its sources of semilength m by image).
"""

from __future__ import annotations

from typing import Iterable

from .errors import ContainsTriple, InvariantViolation, NotPeakless, TooSmall
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
    make_parallelogram,
    make_stanley,
)


# -- phi: Stanley polyominoes <-> Dyck paths ----------------------------------

def phi(p: StanleyPolyomino) -> DyckPath:
    a, b = ab_sequences(p)
    word = "".join(["U" * ai + "D" * bi for ai, bi in zip(a, b)])
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


# -- shared row building ---------------------------------------------------------

def _rows(sizes: Iterable[int]) -> StanleyPolyomino:
    """Rows, bottom first, from diagonal sizes read left to right.  A row
    starts at its position less the widenings still open when it is made;
    last counts the widenings that stop at each row."""
    rows: list[tuple[int, int]] = []
    open_ = 0
    last: dict[int, int] = {}
    for j, k in enumerate(sizes):
        if k % 2:
            rows.append((j - open_, (k + 3) // 2 + open_))
            open_ -= last.pop(len(rows) - 1, 0)
        else:
            open_ += 1
            i = len(rows) + k // 2 - 1
            last[i] = last.get(i, 0) + 1
    return make_stanley(rows)


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
    sizes: list[int] = []
    blocks = inside[-1]  # the current word's steps on the axis
    for i, c in enumerate(word):
        if c == "F":
            blocks -= 1
            sizes.append(2)
        elif c == "U":
            # a row of one more cell than the axis steps from U to the end
            blocks -= 1
            sizes.append(2 * blocks + 1)
            blocks += inside[i]
    sizes.append(-1)  # the one-cell top row
    return _rows(sizes)


def chi_inv(p: StanleyPolyomino) -> MotzkinPath:
    rows = p.rows
    # chi peels the blocks in the order of their first letters: row b below
    # the top is made by U number b, after starts[b + 1] - starts[b] - 1 F's;
    # the top row by the length - 1 F's after the last U; and each U holds as
    # many blocks as the row above its row ends further right
    inside: list[int] = []  # per block in that order; 0 is an F
    for (s, l), (t, m) in zip(rows, rows[1:]):
        inside += [0] * (t - s - 1)
        inside.append(t + m - s - l)
    inside += [0] * (rows[-1][1] - 1)
    word: list[str] = []
    open_: list[int] = []  # blocks still to write inside each open U
    for k in inside:
        if open_:
            open_[-1] -= 1
        if k:
            word.append("U")
            open_.append(k)
        else:
            word.append("F")
        while open_ and open_[-1] == 0:
            open_.pop()
            word.append("D")
    return make_motzkin("".join(word))


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
    sizes: list[int] = []
    left = hills[-1]  # the current word's hills
    for i, c in enumerate(word):
        if c != "U" or i in dropped:
            continue
        if word[i + 1] == "D":
            left -= 1
            sizes.append(2)
        else:
            sizes.append(2 * left + 1)
            left += hills[i] - 1
    sizes.append(1)  # the two-cell top row
    return _rows(sizes)


# -- f: coin fountains <-> Stanley polyominoes ----------------------------------

def f_map(c: CoinFountain) -> StanleyPolyomino:
    return _rows(c.diagonals)


def f_inv(p: StanleyPolyomino) -> CoinFountain:
    rows = p.rows
    top_start, top_len = rows[-1]
    if top_start + top_len < 2:
        raise TooSmall("f_inv needs at least two columns")
    # the last row of each widening, in the order they start and end
    ends = [i for i in range(len(rows) - 1)
            for _ in range(rows[i + 1][0] - rows[i][0] - 1)]
    ends += [len(rows) - 1] * (top_len - 2)
    sizes: list[int] = []
    q = 0  # widenings read; s - b of them end below row b
    for b, (s, l) in enumerate(rows):
        r = l - (q - s + b)  # row b's length less the read widenings over it
        # the fountain rule puts the widening over rows b..ends[q] before
        # row b's size exactly when it is at most that size plus one
        while q < len(ends) and ends[q] - b + 3 <= r:
            sizes.append(2 * (ends[q] - b + 1))
            q += 1
            r -= 1
        sizes.append(2 * r - 3)
    if q < len(ends) or sizes[-1] != 1:
        raise InvariantViolation("rows do not read as a fountain")
    return make_fountain(sizes)


# -- h and psi: parallelogram polyominoes -> Dyck paths and coin fountains -----
#
# The shear sends column i, (b, h), to row (b + i, h + 1): rows then start
# and end strictly right of the row below exactly when the columns' bottoms
# and tops never go down, and share a column exactly when the columns share
# a row, so it is a bijection onto the Stanley polyominoes other than the
# single cell.

def _sheared(q: ParallelogramPolyomino) -> StanleyPolyomino:
    return make_stanley([(b + i, h + 1)
                         for i, (b, h) in enumerate(q.columns)])


def _unsheared(p: StanleyPolyomino) -> ParallelogramPolyomino:
    return make_parallelogram([(s - i, l - 1)
                               for i, (s, l) in enumerate(p.rows)])


def h_map(q: ParallelogramPolyomino) -> DyckPath:
    cols = q.columns
    # each two neighbouring columns give a D run one longer than the rise
    # of their bottoms and a U run one longer than the rise of their tops
    parts = ["U" * cols[0][1]]
    for (b0, h0), (b1, h1) in zip(cols, cols[1:]):
        parts.append("D" * (b1 - b0 + 1) + "U" * (b1 + h1 - b0 - h0 + 1))
    parts.append("D" * cols[-1][1])
    return make_dyck("".join(parts))


def h_inv(d: DyckPath) -> ParallelogramPolyomino:
    if not d.word:
        raise TooSmall("h_inv needs a nonempty Dyck path")
    return _unsheared(phi_inv(d))


def psi(q: ParallelogramPolyomino) -> CoinFountain:
    return f_inv(_sheared(q))


def psi_inv(c: CoinFountain) -> ParallelogramPolyomino:
    return _unsheared(f_map(c))
