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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class StanleyStats:
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


@dataclass(frozen=True)
class DyckStats:
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


@dataclass(frozen=True)
class MotzkinStats:
    steps: int
    peakless: bool


@dataclass(frozen=True)
class CoinFountain:
    diagonals: tuple[int, ...]


@dataclass(frozen=True)
class FountainStats:
    e: int
    o: int
    m: int
    firstDiag: int


@dataclass(frozen=True)
class ParallelogramPolyomino:
    columns: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ParallelogramStats:
    area: int
    colCount: int
    overlaps: tuple[int, ...]


def _pairs(items: Iterable, what: str) -> tuple[tuple, ...]:
    """items as a tuple of pairs; any other shape raises InvalidObject."""
    try:
        return tuple((a, b) for a, b in items)
    except (TypeError, ValueError):
        raise InvalidObject(f"{what} must be a list of pairs") from None


# -- Stanley polyominoes ----------------------------------------------------

def make_stanley(rows: Iterable[Row]) -> StanleyPolyomino:
    """Validate and build a Stanley polyomino from (start, length) rows."""
    rows = _pairs(rows, "rows")
    if not rows:
        raise EmptyInput("a Stanley polyomino needs at least one row")
    for s, l in rows:
        # exact type test: 1.5, "2" and true are refused, not truncated
        if type(s) is not int or type(l) is not int:
            raise InvalidObject(f"row ({s!r}, {l!r}) must be two integers")
        if l <= 0:
            raise NegativeOrZeroLength(f"row length {l} must be positive")
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


def stanley_stats(p: StanleyPolyomino) -> StanleyStats:
    rows = p.rows
    k = len(rows)
    ends = [s + l for s, l in rows]
    col = ends[-1]
    area = sum(l for _, l in rows)
    # overlap between rows i and i+1 counts their shared columns
    overlaps = [ends[i] - rows[i + 1][0] for i in range(k - 1)]
    point = sum(o - 1 for o in overlaps)
    edgint = sum(max(o - 2, 0) for o in overlaps)
    adja = sum(overlaps)
    first_d = 1
    while first_d < k and rows[first_d][0] == first_d:
        first_d += 1
    return StanleyStats(
        col=col,
        row=k,
        sper=col + k,
        area=area,
        point=point,
        edgint=edgint,
        adja=adja,
        first=rows[0][1],
        firstD=first_d,
    )


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

def make_dyck(word: str) -> DyckPath:
    if not isinstance(word, str):
        raise InvalidPath(f"a Dyck word must be a string, got {word!r}")
    w = word.upper()
    h = 0
    for c in w:
        if c == "U":
            h += 1
        elif c == "D":
            h -= 1
        else:
            raise InvalidPath(f"bad step {c!r} in Dyck word")
        if h < 0:
            raise InvalidPath("Dyck word dips below the axis")
    if h != 0:
        raise InvalidPath("Dyck word does not return to the axis")
    return DyckPath(w)


def make_motzkin(word: str) -> MotzkinPath:
    if not isinstance(word, str):
        raise InvalidPath(f"a Motzkin word must be a string, got {word!r}")
    w = word.upper()
    h = 0
    for c in w:
        if c == "U":
            h += 1
        elif c == "D":
            h -= 1
        elif c != "F":
            raise InvalidPath(f"bad step {c!r} in Motzkin word")
        if h < 0:
            raise InvalidPath("Motzkin word dips below the axis")
    if h != 0:
        raise InvalidPath("Motzkin word does not return to the axis")
    return MotzkinPath(w)


def is_peakless(m: MotzkinPath) -> bool:
    return "UD" not in m.word


def dyck_stats(d: DyckPath) -> DyckStats:
    w = d.word
    n = len(w)
    peaks: list[int] = []
    valleys: list[int] = []
    h = 0
    for i, c in enumerate(w):
        h += 1 if c == "U" else -1
        if i + 1 < n:
            if c == "U" and w[i + 1] == "D":
                peaks.append(h)
            elif c == "D" and w[i + 1] == "U":
                valleys.append(h)
    one_valleys = [v for v in valleys if v >= 1]
    avoids3 = "UUU" not in w and "DDD" not in w
    return DyckStats(
        semilength=n // 2,
        nbp=len(peaks),
        sump=sum(peaks),
        nbv=len(valleys),
        sumv=sum(valleys),
        hills=sum(1 for p in peaks if p == 1),
        oneValleys=len(one_valleys),
        sumOneValleys=sum(one_valleys),
        firstPeakHeight=peaks[0] if peaks else 0,
        avoids3=avoids3,
    )


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


def fountain_levels(c: CoinFountain) -> list[set[int]]:
    """Coin offsets present at each level, level 0 first."""
    height = max(c.diagonals)
    return [
        {j + 1 for j, dj in enumerate(c.diagonals) if dj > lvl}
        for lvl in range(height)
    ]


def levels_support_ok(levels: Sequence[set[int]]) -> bool:
    """Check the physical stacking rule on a level-set expansion."""
    if not levels or not levels[0]:
        return False
    bottom = levels[0]
    if bottom != set(range(1, len(bottom) + 1)):
        return False
    for lvl in range(1, len(levels)):
        for j in levels[lvl]:
            if j not in levels[lvl - 1] or (j + 1) not in levels[lvl - 1]:
                return False
    return True


def diagonals_from_levels(levels: Sequence[set[int]]) -> tuple[int, ...]:
    width = len(levels[0])
    return tuple(sum(1 for lvl in levels if j in lvl) for j in range(1, width + 1))


# -- parallelogram polyominoes ------------------------------------------------

def make_parallelogram(columns: Iterable[tuple[int, int]]) -> ParallelogramPolyomino:
    cols = _pairs(columns, "columns")
    if not cols:
        raise EmptyInput("a parallelogram polyomino needs at least one column")
    for b, h in cols:
        if type(b) is not int or type(h) is not int:
            raise InvalidObject(f"column ({b!r}, {h!r}) must be two integers")
        if h <= 0:
            raise NegativeOrZeroLength(f"column height {h} must be positive")
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
    """JSON shape of an object's field: a tuple, and the pairs in it, become
    lists."""
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
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in vars(record).items()}


# -- one statistic from the raw encoding ----------------------------------------
# Every integer field of each family's stats_json record, as a function of the
# raw form the enumeration streams: rows, word, diagonals or columns.  A field
# with a one-line formula computes it; every other field reads the family's
# statistics record, so no compound formula is written twice.  Entries look
# the public functions up as module globals at call time, so rebinding those
# names reaches every entry.

STATISTICS = {
    ("stanley", "col"): lambda r: r[-1][0] + r[-1][1],
    ("stanley", "row"): len,
    ("stanley", "sper"): lambda r: r[-1][0] + r[-1][1] + len(r),
    ("stanley", "area"): lambda r: sum(l for _, l in r),
    ("stanley", "point"): lambda r: stanley_stats(StanleyPolyomino(r)).point,
    ("stanley", "edgint"): lambda r: stanley_stats(StanleyPolyomino(r)).edgint,
    ("stanley", "adja"): lambda r: stanley_stats(StanleyPolyomino(r)).adja,
    ("stanley", "first"): lambda r: r[0][1],
    ("stanley", "firstD"): lambda r: stanley_stats(StanleyPolyomino(r)).firstD,
    ("dyck", "semilength"): lambda w: len(w) // 2,
    ("dyck", "nbp"): lambda w: w.count("UD"),
    ("dyck", "sump"): lambda w: dyck_stats(DyckPath(w)).sump,
    ("dyck", "nbv"): lambda w: w.count("DU"),
    ("dyck", "sumv"): lambda w: dyck_stats(DyckPath(w)).sumv,
    ("dyck", "hills"): lambda w: dyck_stats(DyckPath(w)).hills,
    ("dyck", "oneValleys"): lambda w: dyck_stats(DyckPath(w)).oneValleys,
    ("dyck", "sumOneValleys"): lambda w: dyck_stats(DyckPath(w)).sumOneValleys,
    ("dyck", "firstPeakHeight"):
        lambda w: dyck_stats(DyckPath(w)).firstPeakHeight,
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
