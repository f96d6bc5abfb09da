import ast
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stanlab
from stanlab import objects, verification
from stanlab.enumeration import FamilyBound, enumerate_family, iter_raw
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

    @settings(max_examples=100, deadline=None)
    @given(stanley_polys)
    def test_one_pass_matches_list_definition(self, p):
        assert objects.stanley_stats(p) == list_stanley_stats(p)

    def test_one_row_and_one_cell_match_list_definition(self):
        for rows in ([(0, 1)], [(0, 5)], [(0, 2), (1, 2)]):
            p = objects.make_stanley(rows)
            assert objects.stanley_stats(p) == list_stanley_stats(p)


def list_stanley_stats(p: objects.StanleyPolyomino) -> objects.StanleyStats:
    """The list-based definition `stanley_stats` had before it became one
    loop: a row-end list, an overlap list and one sum per statistic."""
    rows = p.rows
    k = len(rows)
    ends = [s + l for s, l in rows]
    overlaps = [ends[i] - rows[i + 1][0] for i in range(k - 1)]
    first_d = 1
    while first_d < k and rows[first_d][0] == first_d:
        first_d += 1
    return objects.StanleyStats(
        col=ends[-1], row=k, sper=ends[-1] + k,
        area=sum(l for _, l in rows),
        point=sum(o - 1 for o in overlaps),
        edgint=sum(max(o - 2, 0) for o in overlaps),
        adja=sum(overlaps), first=rows[0][1], firstD=first_d)


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


def record_stanley_stats(p: objects.StanleyPolyomino) -> objects.StanleyStats:
    """The one-pass definition `stanley_stats` had before `stanley_fields`:
    the same loop, building the record by keyword."""
    rows = p.rows
    k = len(rows)
    s, area = rows[0]
    end = s + area
    point = edgint = 0
    for s, l in rows[1:]:
        o = end - s
        point += o - 1
        if o > 2:
            edgint += o - 2
        area += l
        end = s + l
    first_d = 1
    while first_d < k and rows[first_d][0] == first_d:
        first_d += 1
    return objects.StanleyStats(
        col=end, row=k, sper=end + k, area=area, point=point, edgint=edgint,
        adja=point + k - 1, first=rows[0][1], firstD=first_d)


def list_dyck_stats(d: objects.DyckPath) -> objects.DyckStats:
    """The list-based definition `dyck_stats` had before `dyck_fields`: a
    peak list and a valley list, and one sum or count per statistic."""
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
    return objects.DyckStats(
        semilength=n // 2, nbp=len(peaks), sump=sum(peaks),
        nbv=len(valleys), sumv=sum(valleys),
        hills=sum(1 for p in peaks if p == 1),
        oneValleys=len(one_valleys), sumOneValleys=sum(one_valleys),
        firstPeakHeight=peaks[0] if peaks else 0,
        avoids3="UUU" not in w and "DDD" not in w)


def seeded_dyck_word(rng: random.Random, n: int, short_runs: bool) -> str:
    """A Dyck word of semilength n from a seeded walk.  With short_runs the
    walk strings together the blocks UUD, UD and UDD, so no run is longer
    than two; each block comes down one level at most, so the walk only goes
    as high as the ups it has left can bring it back."""
    blocks = ("UUD", "UD", "UDD") if short_runs else ("U", "D")
    word, ups, h = "", 0, 0
    while ups < n or h:
        options = []
        for block in blocks:
            u = ups + block.count("U")
            g = h + 2 * block.count("U") - len(block)
            if g >= 0 and u + (g if short_runs else 0) <= n:
                options.append((block, u, g))
        block, ups, h = rng.choice(options)
        word += block
    return word


class TestFieldTuples:
    def test_stanley_fields_match_the_record_definition(self):
        seen = 0
        for n in range(1, 11):
            for rows in iter_raw(FamilyBound("stanley", "columns", n)):
                p = objects.StanleyPolyomino(rows)
                want = record_stanley_stats(p)._asdict()
                assert objects.stanley_fields(rows)._asdict() == want, rows
                assert objects.stanley_stats(p)._asdict() == want
                seen += 1
        assert seen == 6918

    def test_dyck_fields_match_the_list_definition_exhaustively(self):
        seen = 0
        for n in range(11):
            for word in iter_raw(FamilyBound("dyck", "semilength", n)):
                d = objects.DyckPath(word)
                want = list_dyck_stats(d)._asdict()
                assert objects.dyck_fields(word)._asdict() == want, word
                assert objects.dyck_stats(d)._asdict() == want
                seen += 1
        assert seen == 23714

    def test_dyck_fields_match_the_list_definition_on_long_words(self):
        rng = random.Random(18)
        avoids3 = Counter()
        for short_runs in (True, False):
            for _ in range(40):
                word = seeded_dyck_word(rng, 200, short_runs)
                d = objects.make_dyck(word)
                got = objects.dyck_fields(word)
                assert got._asdict() == list_dyck_stats(d)._asdict()
                avoids3[short_runs, got.avoids3] += 1
        # runs of at most two avoid UUU and DDD; a free walk this long does not
        assert avoids3 == {(True, True): 40, (False, False): 40}

    def test_tuple_order_is_the_record_field_order(self):
        # the declared order is the key order of the JSON stats records
        s = objects.stanley_fields(WORKED)
        assert type(s) is objects.StanleyStats
        assert s._fields == ("col", "row", "sper", "area", "point", "edgint",
                             "adja", "first", "firstD")
        assert s == (16, 5, 21, 27, 7, 4, 11, 6, 1)
        d = objects.dyck_fields("UUUUUDDDUUUDUUDDDDDDUUDUUUDDDD")
        assert type(d) is objects.DyckStats
        assert d._fields == ("semilength", "nbp", "sump", "nbv", "sumv",
                             "hills", "oneValleys", "sumOneValleys",
                             "firstPeakHeight", "avoids3")
        assert d == (15, 5, 22, 4, 7, 0, 3, 7, 5, False)
        assert objects.dyck_fields("") == (0,) * 9 + (True,)


def suite_statuses(report: dict) -> dict[str, str]:
    return {c["name"]: c["status"] for c in report["checks"]}


class TestFieldTuplesReachTheChecks:
    """The brute-force tallies read stanley_fields and dyck_fields, so a
    wrong field there must turn the checks built on it to fail."""

    def test_edgint_off_by_one_fails_the_fibonacci_check(self, monkeypatch):
        real = objects.stanley_fields

        def off_by_one(rows):
            f = real(rows)
            return f._replace(edgint=f.edgint + 1)

        monkeypatch.setattr(objects, "stanley_fields", off_by_one)
        report = verification.run_suite("columns")
        fibonacci = ("polyominoes with no internal edge are counted by "
                     "odd-indexed Fibonacci numbers")
        statuses = suite_statuses(report)
        assert statuses.pop(fibonacci) == "fail"
        assert set(statuses.values()) == {"pass"}

    def test_wrong_sumv_fails_the_three_statistic_check(self, monkeypatch):
        real = objects.dyck_fields

        def wrong_sumv(word):
            f = real(word)
            return f._replace(sumv=f.sumv + f.nbp)

        monkeypatch.setattr(objects, "dyck_fields", wrong_sumv)
        report = verification.run_suite("cf")
        three = ("three-statistic terms equal brute-force counts through "
                 "peak sum 6")
        statuses = suite_statuses(report)
        assert statuses.pop(three) == "fail"
        assert set(statuses.values()) == {"pass"}

    def test_full_tally_equals_a_record_tally(self):
        counted = Counter()
        for n in range(1, 9):
            for p in enumerate_family(FamilyBound("stanley", "columns", n)):
                s = record_stanley_stats(p)
                counted[(s.col, s.row, s.area, s.edgint, s.point)] += 1
        assert verification.full_tally(8) == dict(counted)

    def test_cf_tally_equals_a_record_tally(self):
        counted = Counter()
        for n in range(1, 9):
            for d in enumerate_family(FamilyBound("dyck", "semilength", n)):
                s = list_dyck_stats(d)
                if s.sump <= 8:
                    counted[(s.nbp, s.sump, s.sumv)] += 1
        assert verification.cf_tally(8) == dict(counted)


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

    def test_level_masks_match_set_model(self):
        # the mask functions against the set-based coin model they replaced
        # and the levels the physics check's walk carries against both
        for comp, levels in verification._compositions(12):
            raw = objects.CoinFountain(comp)
            masks = objects.fountain_levels(raw)
            sets = set_fountain_levels(raw)
            assert masks == [sum(1 << j for j in lvl) for lvl in sets], comp
            assert list(levels) == masks, comp
            supported = objects.levels_support_ok(masks)
            assert supported == set_levels_support_ok(sets), comp
            if supported:
                assert objects.diagonals_from_levels(masks) == comp
                assert set_diagonals_from_levels(sets) == comp
        # bottoms no composition gives: a gap, no offset 1, offset 0, empty
        for sets in ([{1, 3}], [{2, 3}, {2}], [{0, 1, 2}], [set()], [],
                     [{1, 2}, {1}]):
            masks = [sum(1 << j for j in lvl) for lvl in sets]
            assert objects.levels_support_ok(masks) == \
                set_levels_support_ok(sets), sets


def old_compositions(n):
    """The recursive generator the physics check walked before."""
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for rest in old_compositions(n - head):
            yield (head,) + rest


def set_fountain_levels(c):
    height = max(c.diagonals)
    return [{j + 1 for j, dj in enumerate(c.diagonals) if dj > lvl}
            for lvl in range(height)]


def set_levels_support_ok(levels):
    if not levels or not levels[0]:
        return False
    if levels[0] != set(range(1, len(levels[0]) + 1)):
        return False
    return all(j in levels[lvl - 1] and j + 1 in levels[lvl - 1]
               for lvl in range(1, len(levels)) for j in levels[lvl])


def set_diagonals_from_levels(levels):
    return tuple(sum(1 for lvl in levels if j in lvl)
                 for j in range(1, len(levels[0]) + 1))


def stack_compositions(limit):
    """The stack walk the physics check used before it carried levels."""
    stack = [((), 0)]
    while stack:
        comp, total = stack.pop()
        if comp:
            yield comp
        stack.extend((comp + (head,), total + head)
                     for head in range(1, limit - total + 1))


class TestFountainPhysicsCheck:
    def test_walk_visits_every_composition_once(self):
        walked = [comp for comp, _ in verification._compositions(10)]
        assert len(walked) == 2 ** 10 - 1
        assert len(set(walked)) == len(walked)
        assert sorted(walked) == sorted(
            c for n in range(1, 11) for c in old_compositions(n))
        assert walked == list(stack_compositions(10))

    @staticmethod
    def run_check():
        checks = []
        verification._fountain_brute_checks(checks)
        (check,) = checks
        return check

    def test_looser_inequality_is_caught(self, monkeypatch):
        def loose(diagonals):
            d = tuple(diagonals)
            if d[-1] != 1 or any(a > b + 2 for a, b in zip(d, d[1:])):
                raise DiagonalDrop(f"{d} drops by more than 2")
            return objects.CoinFountain(d)

        monkeypatch.setattr(objects, "make_fountain", loose)
        check = self.run_check()
        assert check["status"] == "fail"
        assert check["actual"] == "43718 disagreements over 262143 compositions"

    def test_stacking_rule_that_accepts_all_is_caught(self, monkeypatch):
        monkeypatch.setattr(objects, "levels_support_ok", lambda levels: True)
        check = self.run_check()
        assert check["status"] == "fail"
        assert check["actual"] == "247073 disagreements over 262143 compositions"

    def test_level_builder_that_drops_the_top_is_caught(self, monkeypatch):
        real = objects.fountain_levels
        monkeypatch.setattr(objects, "fountain_levels",
                            lambda c: real(c)[:-1])
        check = self.run_check()
        assert check["status"] == "fail"
        assert check["actual"] == "15070 disagreements over 262143 compositions"

    def test_every_composition_goes_through_each_check(self, monkeypatch):
        calls = Counter()

        def counted(name):
            real = getattr(objects, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(objects, name, wrapper)

        for name in ("make_fountain", "levels_support_ok",
                     "diagonals_from_levels", "fountain_levels"):
            counted(name)
        check = self.run_check()
        assert check["status"] == "pass"
        assert calls == {"make_fountain": 262143, "levels_support_ok": 262143,
                         "diagonals_from_levels": 15070,
                         "fountain_levels": 15070}


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


# every validation message, word for word: the Dyck and Motzkin words share
# one check, and the Stanley rows and parallelogram columns another
MESSAGES = [
    (objects.make_dyck, "UDF", InvalidPath, "bad step 'F' in Dyck word"),
    (objects.make_dyck, "UDDU", InvalidPath, "Dyck word dips below the axis"),
    (objects.make_dyck, "UUD", InvalidPath,
     "Dyck word does not return to the axis"),
    (objects.make_dyck, 5, InvalidPath, "a Dyck word must be a string, got 5"),
    (objects.make_motzkin, "UXD", InvalidPath, "bad step 'X' in Motzkin word"),
    (objects.make_motzkin, "FD", InvalidPath,
     "Motzkin word dips below the axis"),
    (objects.make_motzkin, "UF", InvalidPath,
     "Motzkin word does not return to the axis"),
    (objects.make_motzkin, None, InvalidPath,
     "a Motzkin word must be a string, got None"),
    (objects.make_stanley, [(0, 2), (1, 1.5)], InvalidObject,
     "row (1, 1.5) must be two integers"),
    (objects.make_stanley, [(0, 2), (1, 0)], NegativeOrZeroLength,
     "row length 0 must be positive"),
    (objects.make_stanley, [5], InvalidObject, "rows must be a list of pairs"),
    (objects.make_parallelogram, [(0, 2), ("1", 2)], InvalidObject,
     "column ('1', 2) must be two integers"),
    (objects.make_parallelogram, [(0, 2), (1, -1)], NegativeOrZeroLength,
     "column height -1 must be positive"),
    (objects.make_parallelogram, [(0, 1, 2)], InvalidObject,
     "columns must be a list of pairs"),
]


@pytest.mark.parametrize("make, data, error, message", MESSAGES,
                         ids=[m for *_, m in MESSAGES])
def test_validation_message(make, data, error, message):
    with pytest.raises(error) as info:
        make(data)
    assert type(info.value) is error
    assert str(info.value) == message


def test_package_imports_only_names_it_uses():
    # no module imports a name it never reads; __init__ reads its imports
    # through __all__
    unused = []
    for path in sorted(Path(objects.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(stanlab.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}:{name}")
    assert unused == []


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
    # is named in the package outside its own definition, or (top level
    # only) exported through __all__
    paths = sorted(Path(objects.__file__).parent.glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    named = Counter(n for tree in trees.values() for n in _identifiers(tree))
    unused = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        for node in _public_definitions(tree)
        if not node.name.startswith("_")
        and named[node.name] == Counter(_identifiers(node))[node.name]
    ]
    assert unused == []


def test_perfbench_physics_hooks_resolve():
    # perfbench sums objects.fountain_physics.self_s over the functions its
    # PHYSICS tuple names; a renamed function would read 0 there silently
    layers = Path(__file__).parents[1] / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text(encoding="utf-8"))
    (names,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["PHYSICS"]]
    assert names
    for name in names:
        module, attr = name.split(".")
        assert module == "objects"
        assert callable(getattr(objects, attr, None)), name
