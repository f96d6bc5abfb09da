import ast
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stanlab
from stanlab import objects
from stanlab.errors import (
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

# five-row worked example used throughout: staircase with 27 cells
WORKED = ((0, 6), (3, 6), (4, 7), (10, 3), (11, 5))


def random_stanley(draw) -> objects.StanleyPolyomino:
    nrows = draw(st.integers(1, 5))
    rows = [(0, draw(st.integers(1, 6)))]
    for _ in range(nrows - 1):
        s_prev, l_prev = rows[-1]
        if l_prev == 1:
            break
        end_prev = s_prev + l_prev
        # next row must share a column, so its start stays below end_prev
        start = draw(st.integers(s_prev + 1, end_prev - 1))
        end = draw(st.integers(end_prev + 1, end_prev + 4))
        rows.append((start, end - start))
    return objects.make_stanley(rows)


stanley_polys = st.composite(random_stanley)()


def random_fountain(draw) -> objects.CoinFountain:
    m = draw(st.integers(1, 8))
    diag = [1]
    for _ in range(m - 1):
        diag.append(draw(st.integers(1, diag[-1] + 1)))
    return objects.make_fountain(tuple(reversed(diag)))


fountains = st.composite(random_fountain)()


class TestStanleyValidation:
    def test_worked_example_is_valid(self):
        p = objects.make_stanley(WORKED)
        assert p.rows == WORKED

    def test_single_cell(self):
        assert objects.make_stanley([(0, 1)]).rows == ((0, 1),)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            objects.make_stanley([])

    def test_zero_length_rejected(self):
        with pytest.raises(NegativeOrZeroLength):
            objects.make_stanley([(0, 0)])

    def test_first_row_must_start_at_zero(self):
        with pytest.raises(NotLeftShifted):
            objects.make_stanley([(1, 3)])

    def test_starts_must_strictly_increase(self):
        with pytest.raises(NotLeftShifted):
            objects.make_stanley([(0, 4), (0, 5)])

    def test_ends_must_strictly_increase(self):
        with pytest.raises(NotRightShifted):
            objects.make_stanley([(0, 4), (1, 3)])

    def test_rows_must_overlap(self):
        # starts and ends increase but row 2 only touches row 1 at a corner
        with pytest.raises(RowsDisconnected):
            objects.make_stanley([(0, 2), (2, 2)])


class TestStanleyStats:
    def test_worked_example_stats(self):
        s = objects.stanley_stats(objects.make_stanley(WORKED))
        assert (s.col, s.row, s.sper, s.area) == (16, 5, 21, 27)
        assert (s.point, s.edgint, s.adja) == (7, 4, 11)
        assert (s.first, s.firstD) == (6, 1)

    def test_worked_example_boundary_sequences(self):
        a, b = objects.ab_sequences(objects.make_stanley(WORKED))
        assert a == (5, 3, 2, 2, 3)
        assert b == (3, 1, 6, 1, 4)

    def test_single_cell_stats(self):
        s = objects.stanley_stats(objects.make_stanley([(0, 1)]))
        assert (s.col, s.row, s.sper, s.area) == (1, 1, 2, 1)
        assert (s.point, s.edgint, s.adja, s.first, s.firstD) == (0, 0, 0, 1, 1)

    def test_full_diagonal_prefix(self):
        s = objects.stanley_stats(objects.make_stanley([(0, 2), (1, 2), (2, 2)]))
        assert s.firstD == 3

    @settings(max_examples=60, deadline=None)
    @given(stanley_polys)
    def test_stat_identities(self, p):
        s = objects.stanley_stats(p)
        assert s.sper == s.col + s.row
        assert s.adja == s.point + s.row - 1
        assert s.col <= s.area
        assert s.row <= s.col
        assert 1 <= s.firstD <= s.row
        assert s.area == sum(l for _, l in p.rows)


def cell_oracles(p: objects.StanleyPolyomino) -> tuple[int, int, int]:
    """Recount adjacency statistics from the raw cell set.

    A lattice corner surrounded by four cells is an interior point; a
    horizontal unit edge is strictly internal when both its corners are;
    an adjacency is a vertically stacked cell pair.
    """
    # (column, row index) pairs, row index 0 at the bottom
    cells = {(x, y) for y, (s, l) in enumerate(p.rows) for x in range(s, s + l)}
    adja = sum(1 for (x, y) in cells if (x, y + 1) in cells)

    def interior(x: int, y: int) -> bool:
        return all(c in cells for c in
                   ((x - 1, y - 1), (x, y - 1), (x - 1, y), (x, y)))

    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    corners = [(x, y) for x in range(min(xs), max(xs) + 2)
               for y in range(min(ys) + 1, max(ys) + 1)]
    point = sum(1 for (x, y) in corners if interior(x, y))
    edgint = sum(1 for (x, y) in corners
                 if interior(x, y) and interior(x + 1, y))
    return point, edgint, adja


class TestCellLevelRecount:
    def test_exhaustive_small(self):
        from stanlab.enumeration import FamilyBound, enumerate_family
        for n in range(1, 9):
            for p in enumerate_family(FamilyBound("stanley", "columns", n)):
                s = objects.stanley_stats(p)
                assert cell_oracles(p) == (s.point, s.edgint, s.adja), p.rows

    @settings(max_examples=60, deadline=None)
    @given(stanley_polys)
    def test_random(self, p):
        s = objects.stanley_stats(p)
        assert cell_oracles(p) == (s.point, s.edgint, s.adja)


class TestDyckPaths:
    def test_worked_example_word_stats(self):
        s = objects.dyck_stats(objects.make_dyck(
            "UUUUUDDDUUUDUUDDDDDDUUDUUUDDDD"))
        assert (s.semilength, s.nbp, s.sump, s.nbv, s.sumv) == (15, 5, 22, 4, 7)
        assert (s.hills, s.oneValleys, s.sumOneValleys) == (0, 3, 7)
        assert s.firstPeakHeight == 5
        assert not s.avoids3

    def test_empty_word(self):
        s = objects.dyck_stats(objects.make_dyck(""))
        assert (s.semilength, s.nbp, s.sump) == (0, 0, 0)
        assert s.avoids3

    def test_unbalanced_rejected(self):
        with pytest.raises(InvalidPath):
            objects.make_dyck("UDD")

    def test_dip_rejected(self):
        with pytest.raises(InvalidPath):
            objects.make_dyck("DU")

    def test_bad_letter_rejected(self):
        with pytest.raises(InvalidPath):
            objects.make_dyck("UXD")

    def test_hills_and_one_valleys(self):
        s = objects.dyck_stats(objects.make_dyck("UDUUDUDD"))
        assert s.hills == 1
        assert s.nbv == 2
        assert s.sumv == 1
        # valleys at height zero do not count as raised
        assert s.oneValleys == 1
        assert s.sumOneValleys == 1


class TestMotzkinPaths:
    def test_peakless(self):
        assert objects.is_peakless(objects.make_motzkin("UFD"))
        assert not objects.is_peakless(objects.make_motzkin("UDF"))

    def test_flat_word(self):
        assert objects.is_peakless(objects.make_motzkin("FFF"))

    def test_negative_height_rejected(self):
        with pytest.raises(InvalidPath):
            objects.make_motzkin("DFU")


class TestFountains:
    def test_simple_valid(self):
        for d in [(1,), (1, 1), (2, 1), (1, 2, 1), (2, 2, 1)]:
            assert objects.make_fountain(d).diagonals == d

    def test_last_diagonal_must_be_one(self):
        with pytest.raises(BadLastDiagonal):
            objects.make_fountain((2, 2))

    def test_drop_by_two_rejected(self):
        with pytest.raises(DiagonalDrop):
            objects.make_fountain((3, 1))

    def test_zero_rejected(self):
        with pytest.raises(NegativeOrZeroLength):
            objects.make_fountain((1, 0, 1))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            objects.make_fountain(())

    def test_coin_parities(self):
        s = objects.fountain_stats(objects.make_fountain((2, 3, 2, 1)))
        # ceil halves on even levels, floor halves above
        assert (s.e, s.o) == (5, 3)
        assert (s.m, s.firstDiag) == (4, 2)

    @settings(max_examples=60, deadline=None)
    @given(fountains)
    def test_levels_round_trip(self, c):
        levels = objects.fountain_levels(c)
        assert objects.levels_support_ok(levels)
        assert objects.diagonals_from_levels(levels) == c.diagonals

    def test_brute_force_small_compositions(self):
        # physics check against the diagonal inequalities, all totals <= 12
        def compositions(n):
            if n == 0:
                yield ()
                return
            for head in range(1, n + 1):
                for rest in compositions(n - head):
                    yield (head,) + rest

        for n in range(1, 13):
            for comp in compositions(n):
                raw = objects.CoinFountain(comp)
                physical = objects.levels_support_ok(
                    objects.fountain_levels(raw))
                try:
                    objects.make_fountain(comp)
                    accepted = True
                except Exception:
                    accepted = False
                assert accepted == physical, comp


class TestParallelograms:
    def test_worked_example(self):
        cols = tuple(zip((0, 0, 2, 2, 3, 5, 5, 5), (3, 4, 2, 4, 4, 2, 2, 3)))
        q = objects.make_parallelogram(cols)
        s = objects.parallelogram_stats(q)
        assert s.area == 24
        assert s.colCount == 8
        assert tuple(s.overlaps) == (3, 2, 2, 3, 2, 2, 2)

    def test_single_column(self):
        s = objects.parallelogram_stats(objects.make_parallelogram([(0, 3)]))
        assert (s.area, s.colCount) == (3, 1)

    def test_columns_must_touch(self):
        with pytest.raises(DisconnectedColumns):
            objects.make_parallelogram([(0, 2), (2, 2)])

    def test_bottom_must_not_drop(self):
        with pytest.raises(NonMonotoneBoundary):
            objects.make_parallelogram([(0, 2), (1, 2), (1, 1)])


class TestNonIntegerInput:
    # JSON decoding gives floats, strings and booleans as they are; each must
    # be refused rather than truncated by int()
    BAD = (1.5, 1.0, "2", True)

    @pytest.mark.parametrize("bad", BAD)
    def test_stanley_coordinate(self, bad):
        with pytest.raises(InvalidObject):
            objects.make_stanley([(0, 2), (1, bad)])
        with pytest.raises(InvalidObject):
            objects.make_stanley([(bad, 2)])

    @pytest.mark.parametrize("bad", BAD)
    def test_fountain_diagonal(self, bad):
        with pytest.raises(InvalidObject):
            objects.make_fountain([bad, 1])

    @pytest.mark.parametrize("bad", BAD)
    def test_parallelogram_coordinate(self, bad):
        with pytest.raises(InvalidObject):
            objects.make_parallelogram([(0, 2), (bad, 2)])
        with pytest.raises(InvalidObject):
            objects.make_parallelogram([(0, bad)])

    @pytest.mark.parametrize("make", [objects.make_dyck, objects.make_motzkin])
    @pytest.mark.parametrize("word", [5, None, ["U", "D"]])
    def test_path_word_must_be_a_string(self, make, word):
        with pytest.raises(InvalidPath):
            make(word)


# input of the wrong shape: a row or column that is not a pair, a field that
# is not a list, a JSON value that is not an object with the family's key
WRONG_SHAPES = {
    "stanley-triple": (objects.make_stanley, [(0, 1, 2)]),
    "stanley-int-row": (objects.make_stanley, [5]),
    "stanley-none": (objects.make_stanley, None),
    "parallelogram-triple": (objects.make_parallelogram, [(0, 1, 2)]),
    "fountain-int": (objects.make_fountain, 5),
    "json-list": (lambda data: objects.from_json_obj("dyck", data), [1]),
    "json-no-key": (lambda data: objects.from_json_obj("dyck", data), {}),
}


@pytest.mark.parametrize("case", WRONG_SHAPES)
def test_wrong_shape_raises_invalid_object(case):
    make, data = WRONG_SHAPES[case]
    with pytest.raises(InvalidObject):
        make(data)


class TestJsonRoundTrip:
    def test_all_families(self):
        cases = {
            "stanley": objects.make_stanley(WORKED),
            "dyck": objects.make_dyck("UUDD"),
            "peaklessMotzkin": objects.make_motzkin("UFD"),
            "fountain": objects.make_fountain((2, 1)),
            "parallelogram": objects.make_parallelogram([(0, 2), (1, 2)]),
        }
        assert set(cases) == set(objects.FAMILIES)
        for family, (cls, _, _) in objects.FAMILIES.items():
            x = cases[family]
            assert type(x) is cls
            data = objects.to_json_obj(x)
            decoded = json.loads(json.dumps(data))
            assert decoded == data
            # JSON integers pass the exact int type test
            assert objects.from_json_obj(family, decoded) == x


def test_package_has_no_assert_statements():
    # python -O strips assert, so invariants must raise typed errors
    src = Path(objects.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _public_definitions(tree: ast.Module):
    """Top-level functions and classes not exported through __all__, and
    the methods of every top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name not in stanlab.__all__:
            yield node


def test_no_public_library_code_only_tests_use():
    # every public top-level function and class, and every public method,
    # is named in the package or in scripts/ outside its own definition, or
    # (top level only) exported through __all__
    src = Path(objects.__file__).parent
    paths = sorted(src.glob("*.py")) + sorted(
        (src.parents[1] / "scripts").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    named = Counter(n for tree in trees.values() for n in _identifiers(tree))
    unused = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items() if path.parent == src
        for node in _public_definitions(tree)
        if not node.name.startswith("_")
        and named[node.name] == Counter(_identifiers(node))[node.name]
    ]
    assert unused == []
