"""Core combinatorial families and their exact statistics.

A Stanley polyomino is stored as rows listed bottom to top, each row a pair
(start, length) of the leftmost column index and the number of cells.  The
first row starts at column 0; going up, each row begins strictly to the
right of the row below and ends strictly to the right of it, and consecutive
rows share at least one column.

A parallelogram polyomino is stored column by column as (bottom, height)
pairs with bottom_1 = 0, bottoms and tops both nondecreasing, and consecutive
columns sharing at least one row.

A coin fountain is stored by the sizes of its northeast diagonals, read left
to right from the bottom row.  Valid sequences are characterized by
d_j <= d_{j+1} + 1 for all j and d_m = 1.

Objects are frozen dataclasses; each family's statistics record is a named
tuple, read by field name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadLastDiagonal,
    DiagonalDrop,
    DisconnectedColumns,
    EmptyInput,
    InvalidObject,
    InvalidPath,
    NegativeOrZeroLength,
    NonMonotoneBoundary,
    NotLeftShifted,
    NotRightShifted,
    RowsDisconnected,
)

Row = tuple[int, int]


@dataclass(frozen=True)
class StanleyPolyomino:
    rows: tuple[Row, ...]


class StanleyStats(NamedTuple):
    col: int
    row: int
    sper: int
    area: int
    point: int
    edgint: int
    adja: int
    first: int
    firstD: int


@dataclass(frozen=True)
class DyckPath:
    word: str


class DyckStats(NamedTuple):
    semilength: int
    nbp: int
    sump: int
    nbv: int
    sumv: int
    hills: int
    oneValleys: int
    sumOneValleys: int
    firstPeakHeight: int
    avoids3: bool


@dataclass(frozen=True)
class MotzkinPath:
    word: str


class MotzkinStats(NamedTuple):
    steps: int
    peakless: bool


@dataclass(frozen=True)
class CoinFountain:
    diagonals: tuple[int, ...]


class FountainStats(NamedTuple):
    e: int
    o: int
    m: int
    firstDiag: int


@dataclass(frozen=True)
class ParallelogramPolyomino:
    columns: tuple[tuple[int, int], ...]


class ParallelogramStats(NamedTuple):
    area: int
    colCount: int
    overlaps: tuple[int, ...]


def _pairs(items: Iterable, part: str, size: str) -> tuple[tuple, ...]:
    """items as a tuple of pairs of exact ints, the second (the size)
    positive; anything else raises InvalidObject, naming part and size."""
    try:
        pairs = tuple((a, b) for a, b in items)
    except (TypeError, ValueError):
        raise InvalidObject(f"{part}s must be a list of pairs") from None
    for a, b in pairs:
        # exact type test: 1.5, "2" and true are refused, not truncated
        if type(a) is not int or type(b) is not int:
            raise InvalidObject(f"{part} ({a!r}, {b!r}) must be two integers")
        if b <= 0:
            raise NegativeOrZeroLength(f"{part} {size} {b} must be positive")
    return pairs


# -- Stanley polyominoes ----------------------------------------------------

def make_stanley(rows: Iterable[Row]) -> StanleyPolyomino:
    """Validate and build a Stanley polyomino from (start, length) rows."""
    rows = _pairs(rows, "row", "length")
    if not rows:
        raise EmptyInput("a Stanley polyomino needs at least one row")
    if rows[0][0] != 0:
        raise NotLeftShifted(f"first row must start at column 0, got {rows[0][0]}")
    for i in range(1, len(rows)):
        s0, l0 = rows[i - 1]
        s1, l1 = rows[i]
        if s1 <= s0:
            raise NotLeftShifted(f"row {i + 1} must begin strictly right of row {i}")
        if s1 + l1 <= s0 + l0:
            raise NotRightShifted(f"row {i + 1} must end strictly right of row {i}")
        if s1 > s0 + l0 - 1:
            raise RowsDisconnected(f"rows {i} and {i + 1} share no column")
    return StanleyPolyomino(rows)


def stanley_fields(rows: Sequence[Row]) -> StanleyStats:
    """The statistics record of a polyomino's rows, read off the rows in one
    pass."""
    k = len(rows)
    s, area = rows[0]
    end = s + area
    point = edgint = 0
    for s, l in rows[1:]:
        # o columns are shared with the row below
        o = end - s
        point += o - 1
        if o > 2:
            edgint += o - 2
        area += l
        end = s + l
    first_d = 1
    while first_d < k and rows[first_d][0] == first_d:
        first_d += 1
    return StanleyStats(end, k, end + k, area, point, edgint, point + k - 1,
                        rows[0][1], first_d)


def stanley_stats(p: StanleyPolyomino) -> StanleyStats:
    return stanley_fields(p.rows)


def ab_sequences(p: StanleyPolyomino) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cells of each row not above the previous row (a) and not below the
    next row (b); these drive the Dyck path encoding."""
    rows = p.rows
    k = len(rows)
    ends = [s + l for s, l in rows]
    a = [rows[0][1] - 1] + [ends[i] - ends[i - 1] for i in range(1, k)]
    b = [rows[i + 1][0] - rows[i][0] for i in range(k - 1)] + [rows[-1][1] - 1]
    return tuple(a), tuple(b)


# -- Dyck and Motzkin paths -------------------------------------------------

def _path_word(word, name: str, steps: str) -> str:
    """word in upper case, checked to be a string of steps from steps (U and
    D, or U, D and F) that never dips below the axis and ends on it; name
    says which kind of word in the messages."""
    if not isinstance(word, str):
        raise InvalidPath(f"a {name} word must be a string, got {word!r}")
    w = word.upper()
    h = 0
    for c in w:
        if c == "U":
            h += 1
        elif c == "D":
            h -= 1
        elif c not in steps:
            raise InvalidPath(f"bad step {c!r} in {name} word")
        if h < 0:
            raise InvalidPath(f"{name} word dips below the axis")
    if h != 0:
        raise InvalidPath(f"{name} word does not return to the axis")
    return w


def make_dyck(word: str) -> DyckPath:
    return DyckPath(_path_word(word, "Dyck", "UD"))


def make_motzkin(word: str) -> MotzkinPath:
    return MotzkinPath(_path_word(word, "Motzkin", "UDF"))


def is_peakless(m: MotzkinPath) -> bool:
    return "UD" not in m.word


def dyck_fields(word: str) -> DyckStats:
    """The statistics record of a Dyck word, read off the word in one pass:
    a peak is a U followed by a D, a valley a D followed by a U, each at the
    height between them."""
    h = nbp = sump = nbv = sumv = hills = one_valleys = first_peak = 0
    prev = ""
    for c in word:
        if c == "U":
            if prev == "D":
                nbv += 1
                sumv += h
                if h:
                    one_valleys += 1
            h += 1
        else:
            if prev == "U":
                nbp += 1
                sump += h
                if h == 1:
                    hills += 1
                if not first_peak:
                    first_peak = h
            h -= 1
        prev = c
    # sumOneValleys is sumv: a valley at height 0 adds 0 to either sum
    return DyckStats(len(word) // 2, nbp, sump, nbv, sumv, hills, one_valleys,
                     sumv, first_peak, "UUU" not in word and "DDD" not in word)


def dyck_stats(d: DyckPath) -> DyckStats:
    return dyck_fields(d.word)


# -- coin fountains ----------------------------------------------------------

def make_fountain(diagonals: Iterable[int]) -> CoinFountain:
    """Validate a northeast-diagonal size sequence.

    Every coin above level 0 rests on two adjacent coins below, which forces
    each diagonal to be a contiguous run from the bottom and bounds each size
    by the next size plus one.
    """
    try:
        d = tuple(diagonals)
    except TypeError:
        raise InvalidObject("diagonals must be a list of integers") from None
    if not d:
        raise EmptyInput("a fountain needs at least one diagonal")
    for x in d:
        if type(x) is not int:
            raise InvalidObject(f"diagonal size {x!r} must be an integer")
        if x <= 0:
            raise NegativeOrZeroLength(f"diagonal size {x} must be positive")
    if d[-1] != 1:
        raise BadLastDiagonal(f"last diagonal must be 1, got {d[-1]}")
    for j in range(len(d) - 1):
        if d[j] > d[j + 1] + 1:
            raise DiagonalDrop(
                f"diagonal {j + 1} of size {d[j]} exceeds neighbour {d[j + 1]} + 1"
            )
    return CoinFountain(d)


def fountain_stats(c: CoinFountain) -> FountainStats:
    # bottom row sits at level 0, which counts as even
    e = sum((x + 1) // 2 for x in c.diagonals)
    o = sum(x // 2 for x in c.diagonals)
    return FountainStats(e=e, o=o, m=len(c.diagonals), firstDiag=c.diagonals[0])


def fountain_levels(c: CoinFountain) -> list[int]:
    """Coins present at each level, level 0 first, as bit masks: bit j is
    set when diagonal j (counted from 1) reaches the level."""
    tops = [0] * max(c.diagonals)
    for j, dj in enumerate(c.diagonals, 1):
        tops[dj - 1] |= 1 << j
    # a diagonal reaches every level up to its top
    return list(accumulate(reversed(tops), or_))[::-1]


def levels_support_ok(levels: Sequence[int]) -> bool:
    """Check the physical stacking rule on level masks: the bottom level
    holds offsets 1..w, and a coin at offset j rests on offsets j and j + 1
    of the level below."""
    if not levels:
        return False
    below = levels[0]
    if below != (1 << below.bit_length()) - 2:
        return False
    for cur in levels[1:]:
        if (cur | cur << 1) & ~below:
            return False
        below = cur
    return True


def diagonals_from_levels(levels: Sequence[int]) -> tuple[int, ...]:
    width = levels[0].bit_count()
    return tuple(sum(lvl >> j & 1 for lvl in levels) for j in range(1, width + 1))


# -- parallelogram polyominoes ------------------------------------------------

def make_parallelogram(columns: Iterable[tuple[int, int]]) -> ParallelogramPolyomino:
    cols = _pairs(columns, "column", "height")
    if not cols:
        raise EmptyInput("a parallelogram polyomino needs at least one column")
    if cols[0][0] != 0:
        raise NonMonotoneBoundary(f"first column must start at row 0, got {cols[0][0]}")
    for i in range(1, len(cols)):
        b0, h0 = cols[i - 1]
        b1, h1 = cols[i]
        if b1 < b0 or b1 + h1 < b0 + h0:
            raise NonMonotoneBoundary(f"boundary decreases at column {i + 1}")
        if b1 > b0 + h0 - 1:
            raise DisconnectedColumns(f"columns {i} and {i + 1} share no row")
    return ParallelogramPolyomino(cols)


def parallelogram_stats(q: ParallelogramPolyomino) -> ParallelogramStats:
    cols = q.columns
    overlaps = tuple(
        cols[i][0] + cols[i][1] - cols[i + 1][0] for i in range(len(cols) - 1)
    )
    return ParallelogramStats(
        area=sum(h for _, h in cols),
        colCount=len(cols),
        overlaps=overlaps,
    )


# -- the family table -----------------------------------------------------------
# family -> (class, validating constructor, statistics record).  Each class
# has one field, named like the object's JSON key.  Entries are plain tuples
# read by index, and the Motzkin record looks is_peakless up as a module
# global at call time, so rebinding a public name reaches every entry.

FAMILIES = {
    "stanley": (StanleyPolyomino, make_stanley, stanley_stats),
    "dyck": (DyckPath, make_dyck, dyck_stats),
    "peaklessMotzkin": (MotzkinPath, make_motzkin, lambda x: MotzkinStats(
        steps=len(x.word), peakless=is_peakless(x))),
    "fountain": (CoinFountain, make_fountain, fountain_stats),
    "parallelogram": (ParallelogramPolyomino, make_parallelogram,
                      parallelogram_stats),
}

_FAMILY_OF = {entry[0]: family for family, entry in FAMILIES.items()}


def _family_of(x) -> str:
    try:
        return _FAMILY_OF[type(x)]
    except KeyError:
        raise TypeError(f"not a family object: {type(x).__name__}") from None


def _lists(value):
    """JSON shape of an object's or a record's field: a tuple, and the pairs
    in it, become lists."""
    if not isinstance(value, tuple):
        return value
    if value and isinstance(value[0], tuple):
        return [list(v) for v in value]
    return list(value)


def to_json_obj(x) -> dict:
    _family_of(x)  # TypeError for anything but a family object
    return {key: _lists(value) for key, value in vars(x).items()}


def from_json_obj(family: str, data: dict):
    try:
        cls, make, _ = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    (key,) = cls.__dataclass_fields__
    if not isinstance(data, dict) or key not in data:
        raise InvalidObject(f"a {family} object is a JSON object with key "
                            f"{key!r}")
    return make(data[key])


def stats_json(x) -> dict:
    """Statistics record for any family, used by the CLI map/enumerate output."""
    record = FAMILIES[_family_of(x)][2](x)
    return {key: _lists(value) for key, value in record._asdict().items()}


# -- one statistic from the raw encoding ----------------------------------------
# Every integer field of each family's stats_json record, as a function of the
# raw form the enumeration streams: rows, word, diagonals or columns.  A field
# with a one-line formula computes it; every other field reads its name off
# the family's record (stanley_fields or dyck_fields), so no compound formula
# is written twice.  Entries look the public functions up as module globals
# at call time, so rebinding those names reaches every entry.

STATISTICS = {
    ("stanley", "col"): lambda r: r[-1][0] + r[-1][1],
    ("stanley", "row"): len,
    ("stanley", "sper"): lambda r: r[-1][0] + r[-1][1] + len(r),
    ("stanley", "area"): lambda r: sum(l for _, l in r),
    ("stanley", "point"): lambda r: stanley_fields(r).point,
    ("stanley", "edgint"): lambda r: stanley_fields(r).edgint,
    ("stanley", "adja"): lambda r: stanley_fields(r).adja,
    ("stanley", "first"): lambda r: r[0][1],
    ("stanley", "firstD"): lambda r: stanley_fields(r).firstD,
    ("dyck", "semilength"): lambda w: len(w) // 2,
    ("dyck", "nbp"): lambda w: w.count("UD"),
    ("dyck", "sump"): lambda w: dyck_fields(w).sump,
    ("dyck", "nbv"): lambda w: w.count("DU"),
    ("dyck", "sumv"): lambda w: dyck_fields(w).sumv,
    ("dyck", "hills"): lambda w: dyck_fields(w).hills,
    ("dyck", "oneValleys"): lambda w: dyck_fields(w).oneValleys,
    ("dyck", "sumOneValleys"): lambda w: dyck_fields(w).sumOneValleys,
    ("dyck", "firstPeakHeight"): lambda w: dyck_fields(w).firstPeakHeight,
    ("peaklessMotzkin", "steps"): len,
    ("fountain", "e"): lambda d: sum((x + 1) // 2 for x in d),
    ("fountain", "o"): lambda d: sum(x // 2 for x in d),
    ("fountain", "m"): len,
    ("fountain", "firstDiag"): lambda d: d[0],
    ("parallelogram", "area"): lambda c: sum(h for _, h in c),
    ("parallelogram", "colCount"): len,
}

# The stats_json fields that are not integers, so cannot mark a count.
NON_INTEGER_STATISTICS = frozenset({
    ("dyck", "avoids3"),
    ("peaklessMotzkin", "peakless"),
    ("parallelogram", "overlaps"),
})
