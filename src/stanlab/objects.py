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

Objects are immutable one-field values (``frozen.Frozen``); each family's
statistics record is a named tuple, read by field name.
"""

from __future__ import annotations

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
from .frozen import Frozen

Row = tuple[int, int]


class _Family(Frozen):
    """A family object: its one field, named in __slots__ and
    __match_args__, is also the object's JSON key."""

    __slots__ = ()

    def __init__(self, value, /):
        object.__setattr__(self, self.__match_args__[0], value)

    def _values(self) -> tuple:
        # the round-trip checks compare objects by the hundred thousand:
        # this takes __eq__ to about a third of the generic time
        return (getattr(self, self.__match_args__[0]),)


class StanleyPolyomino(_Family):
    __slots__ = __match_args__ = ("rows",)
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


class DyckPath(_Family):
    __slots__ = __match_args__ = ("word",)
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


class MotzkinPath(_Family):
    __slots__ = __match_args__ = ("word",)
    word: str


class MotzkinStats(NamedTuple):
    steps: int
    peakless: bool


class CoinFountain(_Family):
    __slots__ = __match_args__ = ("diagonals",)
    diagonals: tuple[int, ...]


class FountainStats(NamedTuple):
    e: int
    o: int
    m: int
    firstDiag: int


class ParallelogramPolyomino(_Family):
    __slots__ = __match_args__ = ("columns",)
    columns: tuple[tuple[int, int], ...]


class ParallelogramStats(NamedTuple):
    area: int
    colCount: int
    overlaps: tuple[int, ...]


def _pairs(items: Iterable, part: str, size: str) -> tuple[tuple, ...]:
    """items as a tuple of pairs of exact ints, the second (the size)
    positive; anything else raises InvalidObject, naming part and size."""
    try:
        pairs = tuple([(a, b) for a, b in items])
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
    # tuple.__new__ costs under half of the generated __new__'s field binding
    return tuple.__new__(StanleyStats, (end, k, end + k, area, point, edgint,
                                        point + k - 1, rows[0][1], first_d))


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
    return tuple.__new__(DyckStats, (len(word) // 2, nbp, sump, nbv, sumv,
                                     hills, one_valleys, sumv, first_peak,
                                     "UUU" not in word and "DDD" not in word))


def dyck_stats(d: DyckPath) -> DyckStats:
    return dyck_fields(d.word)


# -- coin fountains ----------------------------------------------------------

def fountain_fault(d: tuple) -> tuple | None:
    """The first fountain rule the diagonal sizes d break, or None when d is
    a fountain.

    The input checks come first: no diagonal, then each size's type and
    sign, left to right.  The rest is diagonal_fault's.  A fault is a plain
    record, (error class, message template, *template arguments): no error
    is built and no message is formatted, so asking whether d is a fountain
    costs little either way.  fountain_error turns the record into the error
    make_fountain raises.  The physics check walks compositions, tuples of
    positive ints, so it asks diagonal_fault alone and leaves this full rule
    to make_fountain on the compositions it accepts.
    """
    if not d:
        return (EmptyInput, "a fountain needs at least one diagonal")
    for x in d:
        if type(x) is not int:
            return (InvalidObject, "diagonal size %r must be an integer", x)
        if x <= 0:
            return (NegativeOrZeroLength,
                    "diagonal size %s must be positive", x)
    return diagonal_fault(d)


def diagonal_fault(d: tuple) -> tuple | None:
    """The first diagonal inequality the positive sizes d break, as a
    fountain_fault record, or None.

    Every coin above level 0 rests on two adjacent coins below, which forces
    each diagonal to be a contiguous run from the bottom: the last size is 1
    and each size is at most the next size plus one.  The last size is
    checked first, then the drops, left to right.
    """
    if d[-1] != 1:
        return (BadLastDiagonal, "last diagonal must be 1, got %s", d[-1])
    for j in range(len(d) - 1):
        if d[j] > d[j + 1] + 1:
            return (DiagonalDrop,
                    "diagonal %s of size %s exceeds neighbour %s + 1",
                    j + 1, d[j], d[j + 1])
    return None


def fountain_error(fault: tuple) -> InvalidObject:
    """The error a fountain_fault record stands for, its message formatted."""
    return fault[0](fault[1] % fault[2:])


def make_fountain(diagonals: Iterable[int]) -> CoinFountain:
    """Validate a northeast-diagonal size sequence: raise the error of the
    first rule fountain_fault finds it breaks, if any."""
    try:
        d = tuple(diagonals)
    except TypeError:
        raise InvalidObject("diagonals must be a list of integers") from None
    fault = fountain_fault(d)
    if fault is not None:
        raise fountain_error(fault)
    return CoinFountain(d)


def _odd_coins(d: Sequence[int]) -> int:
    """Coins on odd levels of the fountain with diagonal sizes d.  Level 0
    counts as even, so a diagonal of x coins has x // 2 on odd levels."""
    o = 0
    for x in d:  # a plain loop runs in about half a generator's time
        o += x // 2
    return o


def fountain_stats(c: CoinFountain) -> FountainStats:
    d = c.diagonals
    o = _odd_coins(d)
    return tuple.__new__(FountainStats, (sum(d) - o, o, len(d), d[0]))


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
    rest = iter(levels)
    below = next(rest)
    if below != (1 << below.bit_length()) - 2:
        return False
    for cur in rest:
        if (cur | cur << 1) & ~below:
            return False
        below = cur
    return True


def diagonals_from_levels(levels: Sequence[int]) -> tuple[int, ...]:
    # one pass: each set bit j = 1 .. w (w coins at level 0) adds to diagonal j
    width = levels[0].bit_count()
    keep, sizes = (2 << width) - 2, [0] * (width + 1)
    for lvl in levels:
        lvl &= keep
        while lvl:
            low = lvl & -lvl
            sizes[low.bit_length() - 1] += 1
            lvl ^= low
    return tuple(sizes[1:])


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
    area = cols[0][1]
    overlaps = []
    for (b0, h0), (b1, h1) in zip(cols, cols[1:]):
        overlaps.append(b0 + h0 - b1)
        area += h1
    return tuple.__new__(ParallelogramStats,
                         (area, len(cols), tuple(overlaps)))


# -- the family table -----------------------------------------------------------
# family -> (class, validating constructor, statistics record).  Each class
# has one field, named like the object's JSON key; to_json_obj and
# from_json_obj read that key off the class's __match_args__.  Entries are
# plain tuples read by index, and the Motzkin record looks is_peakless up as
# a module global at call time, so rebinding a public name reaches every
# entry.

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
    lists, so to_json_obj returns only JSON-native containers."""
    if not isinstance(value, tuple):
        return value
    if value and isinstance(value[0], tuple):
        return list(map(list, value))
    return list(value)


def to_json_obj(x) -> dict:
    _family_of(x)  # TypeError for anything but a family object
    (key,) = x.__match_args__
    return {key: _lists(getattr(x, key))}


def from_json_obj(family: str, data: dict):
    try:
        cls, make, _ = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    (key,) = cls.__match_args__
    if not isinstance(data, dict) or key not in data:
        raise InvalidObject(f"a {family} object is a JSON object with key "
                            f"{key!r}")
    return make(data[key])


def stats_json(x) -> dict:
    """A family's statistics record as a JSON dict: field order, tuples as lists."""
    record = FAMILIES[_family_of(x)][2](x)
    return {k: list(v) if type(v) is tuple else v
            for k, v in zip(record._fields, record)}


# -- one statistic from the raw encoding ----------------------------------------
# Every integer field of each family's stats_json record, as a function of the
# raw form the enumeration streams: rows, word, diagonals or columns.  A field
# with a one-line formula computes it; a fountain's coins by level parity
# come from _odd_coins, which fountain_stats shares; every other field reads
# its name off the family's record (stanley_fields or dyck_fields), so no
# compound formula is written twice.  Entries look the public functions up as
# module globals at call time, so rebinding those names reaches every entry.

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
    ("fountain", "e"): lambda d: sum(d) - _odd_coins(d),
    ("fountain", "o"): _odd_coins,
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
