import ast
import json
import random
from collections import Counter
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stanlab
from stanlab import enumeration, errors, objects, verification
from stanlab.enumeration import FamilyBound, enumerate_family, iter_raw
from stanlab.errors import (
    BadLastDiagonal,
    CapExceeded,
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
        # phi writes the paper's a_i as its U runs and b_i as its D runs
        word = stanlab.phi(objects.make_stanley(WORKED)).word
        a = [len(run) for run in word.replace("D", " ").split()]
        b = [len(run) for run in word.replace("U", " ").split()]
        assert a == [5, 3, 2, 2, 3]
        assert b == [3, 1, 6, 1, 4]

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

    def test_pruned_cf_tally_equals_the_filtered_full_walk(self, monkeypatch):
        # the tally before pruning: every path of semilength 1 .. bound,
        # then the terms whose peak height sum fits the bound
        real = objects.dyck_fields

        def filtered(bound):
            counted = Counter()
            for n in range(1, bound + 1):
                for word in iter_raw(FamilyBound("dyck", "semilength", n)):
                    counted[attrgetter("nbp", "sump", "sumv")(real(word))] += 1
            return verification.upto(counted, 1, bound)

        for bound in range(13):
            expected = filtered(bound)
            words = []

            def recording(word):
                words.append(word)
                return real(word)

            monkeypatch.setattr(objects, "dyck_fields", recording)
            assert verification.cf_tally(bound) == expected, bound
            monkeypatch.setattr(objects, "dyck_fields", real)
            assert len(set(words)) == len(words) == sum(expected.values())
            assert all(real(w).sump <= bound for w in words)

    def test_cf_tally_stops_at_the_cap(self, monkeypatch):
        # cf_tally(10) counts 2,271 paths: a cap of exactly that many lets
        # it through, and the first path past it at 11 raises
        monkeypatch.setattr(enumeration, "DEFAULT_CAP", 2271)
        assert sum(verification.cf_tally(10).values()) == 2271
        with pytest.raises(CapExceeded) as caught:
            verification.cf_tally(11)
        assert str(caught.value) == ("Dyck paths with peak height sum at "
                                     "most 11 exceeded cap of 2271 objects")


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

    def test_rule_matches_the_raising_constructor(self):
        # every composition of at most 12 coins, the fountain inputs of
        # MESSAGES and seeded lists of small ints, non-ints, bools and ():
        # make_fountain raises what old_make_fountain raised, word for word,
        # or builds the same fountain
        def outcome(make, data):
            try:
                return make(data)
            except InvalidObject as exc:
                return type(exc), str(exc)

        rng = random.Random(33)
        pool = [*range(-2, 6), 1.0, "1", None, True, False, ()]
        inputs = [c for n in range(1, 13) for c in old_compositions(n)]
        inputs += [data for make, data, *_ in MESSAGES
                   if make is objects.make_fountain]
        inputs += [[rng.choice(pool) for _ in range(rng.randint(0, 6))]
                   for _ in range(20000)]
        built = 0
        for data in inputs:
            new = outcome(objects.make_fountain, data)
            assert new == outcome(old_make_fountain, data), data
            if isinstance(new, objects.CoinFountain):
                built += 1
        assert built == 788  # the fountains among the inputs

    def test_inequalities_are_the_rule_on_positive_sizes(self):
        # on tuples of positive ints the input checks cannot fire, so the
        # diagonal inequalities are the whole rule: for every composition of
        # at most 12 coins and every such input of MESSAGES, diagonal_fault
        # is None exactly when make_fountain builds, and its record formats
        # to the error make_fountain raises
        inputs = [c for n in range(1, 13) for c in old_compositions(n)]
        positive = [tuple(data) for make, data, *_ in MESSAGES
                    if make is objects.make_fountain and type(data) is list
                    and data and all(type(x) is int and x > 0 for x in data)]
        assert positive == [(2, 2), (1, 3, 1)]
        faults = Counter()
        for d in inputs + positive:
            fault = objects.diagonal_fault(d)
            if fault is None:
                assert objects.make_fountain(d).diagonals == d
            else:
                with pytest.raises(fault[0]) as caught:
                    objects.make_fountain(d)
                assert str(caught.value) == fault[1] % fault[2:], d
            faults[fault and fault[0]] += 1
        # 554 fountains among the compositions; one fault of each kind in
        # MESSAGES
        assert faults == {None: 554, BadLastDiagonal: 2047 + 1,
                          DiagonalDrop: 1494 + 1}

    def test_coin_parities(self):
        s = objects.fountain_stats(objects.make_fountain((2, 3, 2, 1)))
        # ceil halves on even levels, floor halves above
        assert (s.e, s.o) == (5, 3)
        assert (s.m, s.firstDiag) == (4, 2)

    def test_stats_match_the_two_sum_formula(self):
        # every fountain with at most 10 diagonals (Catalan many for each m)
        seen = 0
        for m in range(1, 11):
            for d in iter_raw(FamilyBound("fountain", "diagonals", m)):
                s = objects.fountain_stats(objects.CoinFountain(d))
                assert type(s) is objects.FountainStats
                assert s == (sum((x + 1) // 2 for x in d),
                             sum(x // 2 for x in d), len(d), d[0]), d
                seen += 1
        assert seen == 23713

    def test_parity_table_entries_match_the_two_sum_formulas(self):
        # the o and e entries of STATISTICS, not the record, which shares
        # their helper, against the formulas they replace
        odd = objects.STATISTICS[("fountain", "o")]
        even = objects.STATISTICS[("fountain", "e")]

        def check(ds):
            assert list(map(odd, ds)) == [sum(x // 2 for x in d) for d in ds]
            assert list(map(even, ds)) == [sum((x + 1) // 2 for x in d)
                                           for d in ds]

        seen = 0
        for measure, largest in (("diagonals", 12), ("evenCoins", 14)):
            for value in range(largest + 1):
                ds = list(iter_raw(FamilyBound("fountain", measure, value)))
                check(ds)
                seen += len(ds)
        assert seen == 354844
        rng = random.Random(32)
        seeded = []
        for _ in range(200):
            d = [1]
            for _ in range(rng.randint(0, 400)):
                d.append(rng.randint(1, d[-1] + 1))
            seeded.append(tuple(reversed(d)))
        check(seeded + [tuple(range(3000, 0, -1)), (1,) * 3000,
                        (2, 1) * 1500, (3000, 2999, 1)])

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
                except InvalidObject:
                    accepted = False
                assert accepted == physical, comp

    def test_level_masks_match_set_model(self, physics_run):
        # the levels the physics check's walk carries against the mask
        # functions for every composition and against the set-based coin
        # model they replaced up to total 12, then the two models
        assert physics_run.levels_unlike_masks == []
        assert physics_run.levels_unlike_sets == []
        for comp in physics_run.small:
            raw = objects.CoinFountain(comp)
            masks = objects.fountain_levels(raw)
            sets = set_fountain_levels(raw)
            assert masks == [sum(1 << j for j in lvl) for lvl in sets], comp
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


def old_make_fountain(diagonals):
    """make_fountain as it was before its inequalities moved to
    diagonal_fault."""
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
    return objects.CoinFountain(d)


def slice_levels_support_ok(levels):
    """levels_support_ok as it was, walking a copy of all but the bottom."""
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


def old_diagonals_from_levels(levels):
    """The per-diagonal formula diagonals_from_levels replaced: bits 0 and
    above the bottom level's coin count are ignored."""
    width = levels[0].bit_count()
    return tuple(sum(lvl >> j & 1 for lvl in levels)
                 for j in range(1, width + 1))


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


SMALL = 12  # the largest total whose compositions a physics run keeps


@pytest.fixture(scope="module")
def physics_run():
    """One run of the physics check through wrappers on the objects
    functions it calls: its report, the calls to each function, the count
    of compositions per total, the compositions of total SMALL or less, and
    those whose levels disagree with fountain_levels or, up to SMALL, with
    the set model.  Levels are compared as each composition is checked,
    because the walk updates its level lists in place."""
    real = {name: getattr(objects, name) for name in (
        "diagonal_fault", "make_fountain",
        "levels_support_ok", "diagonals_from_levels", "fountain_levels")}
    run = SimpleNamespace(calls=Counter(), totals=Counter(), small=[],
                          levels_unlike_masks=[], levels_unlike_sets=[],
                          accepted=[])
    pending = []

    def meet(comp):
        # the walk asks diagonal_fault right after levels_support_ok, so the
        # levels that call left are this composition's; make_fountain asks
        # the inequalities again with nothing pending
        if not pending:
            return
        comp, levels = tuple(comp), pending.pop()
        total = sum(comp)
        run.totals[total] += 1
        raw = objects.CoinFountain(comp)
        if levels != real["fountain_levels"](raw):
            run.levels_unlike_masks.append(comp)
        if total <= SMALL:
            run.small.append(comp)
            sets = set_fountain_levels(raw)
            if levels != [sum(1 << j for j in lvl) for lvl in sets]:
                run.levels_unlike_sets.append(comp)

    def counted(name, see=lambda arg: None):
        def wrapper(arg):
            run.calls[name] += 1
            see(arg)
            return real[name](arg)
        return wrapper

    with pytest.MonkeyPatch.context() as m:
        m.setattr(objects, "diagonal_fault", counted("diagonal_fault", meet))
        m.setattr(objects, "make_fountain", counted("make_fountain"))
        m.setattr(objects, "levels_support_ok", counted(
            "levels_support_ok", lambda levels: pending.append(list(levels))))
        m.setattr(objects, "diagonals_from_levels", counted(
            "diagonals_from_levels",
            lambda levels: run.accepted.append(list(levels))))
        m.setattr(objects, "fountain_levels", counted("fountain_levels"))
        checks = []
        verification._fountain_brute_checks(checks)
    (run.check,) = checks
    return run


class TestFountainPhysicsCheck:
    def test_walk_visits_every_composition_once(self, physics_run):
        assert physics_run.totals == {n: 2 ** (n - 1) for n in range(1, 19)}
        small = physics_run.small
        assert len(set(small)) == len(small)
        assert sorted(small) == sorted(
            c for n in range(1, SMALL + 1) for c in old_compositions(n))

    @staticmethod
    def run_check():
        checks = []
        verification._fountain_brute_checks(checks)
        (check,) = checks
        return check

    def test_looser_inequality_is_caught(self, monkeypatch):
        # make_fountain reads the inequalities from the module, so it
        # builds what the looser rule accepts
        def loose(d):
            if d[-1] != 1 or any(a > b + 2 for a, b in zip(d, d[1:])):
                return DiagonalDrop(f"{d} drops by more than 2")
            return None

        monkeypatch.setattr(objects, "diagonal_fault", loose)
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

    def test_every_composition_goes_through_each_check(self, physics_run):
        # diagonal_fault sees every composition from the walk and each of
        # the 15,070 fountains again inside make_fountain, which alone asks
        # the full rule
        assert physics_run.check["status"] == "pass"
        assert physics_run.calls == {
            "diagonal_fault": 262143 + 15070, "levels_support_ok": 262143,
            "make_fountain": 15070, "diagonals_from_levels": 15070,
            "fountain_levels": 15070}

    def test_no_error_object_is_built(self, monkeypatch):
        # the rule reports its faults as records, so the whole check builds
        # no InvalidObject; make_fountain still builds one to raise
        made = []
        real = errors.InvalidObject.__init__

        def init(self, *args):
            made.append(type(self))
            real(self, *args)

        monkeypatch.setattr(errors.InvalidObject, "__init__", init)
        check = self.run_check()
        assert check["status"] == "pass"
        assert made == []
        with pytest.raises(BadLastDiagonal) as caught:
            objects.make_fountain((2,))
        assert str(caught.value) == "last diagonal must be 1, got 2"
        assert made == [BadLastDiagonal]

    def test_support_rule_matches_the_slice_form(self, monkeypatch):
        # every level list the check asks about, then seeded masks with
        # the empty list and a bottom level of 0 among them
        real = objects.levels_support_ok
        asked, unlike = Counter(), []

        def compared(levels):
            verdict = real(levels)
            asked[verdict] += 1
            if verdict != slice_levels_support_ok(levels):
                unlike.append(list(levels))
            return verdict

        monkeypatch.setattr(objects, "levels_support_ok", compared)
        assert self.run_check()["status"] == "pass"
        assert unlike == []
        assert asked == {True: 15070, False: 247073}
        rng = random.Random(35)
        masks = [[], [0]]
        for _ in range(20000):
            # a full or random bottom, then levels mostly held up by the
            # level below, sometimes anything
            width = rng.randint(0, 8)
            below = rng.choice(((2 << width) - 2, rng.getrandbits(width + 2)))
            levels = [below]
            for _ in range(rng.randint(0, 6)):
                held = below & below >> 1 if rng.random() < 0.9 else -1
                below = rng.getrandbits(width + 2) & held
                levels.append(below)
            masks.append(levels)
        verdicts = Counter()
        for levels in masks:
            verdict = real(levels)
            assert verdict == slice_levels_support_ok(levels), levels
            verdicts[verdict] += 1
        assert min(verdicts[True], verdicts[False]) > 5000, verdicts

    def test_diagonals_match_the_old_formula(self, physics_run):
        # the level lists the check accepts, then seeded masks with bit 0
        # and bits above the bottom level's count set
        assert len(physics_run.accepted) == 15070
        for levels in physics_run.accepted:
            assert objects.diagonals_from_levels(levels) == \
                old_diagonals_from_levels(levels), levels
        rng = random.Random(2026)
        for _ in range(2000):
            levels = [rng.getrandbits(rng.randint(0, 14))
                      for _ in range(rng.randint(1, 8))]
            assert objects.diagonals_from_levels(levels) == \
                old_diagonals_from_levels(levels), levels


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
        assert (s.area, s.colCount, s.overlaps) == (3, 1, ())

    def test_one_pass_matches_the_column_formulas(self):
        for n in range(1, 10):
            for cols in iter_raw(FamilyBound("parallelogram", "area", n)):
                s = objects.parallelogram_stats(
                    objects.ParallelogramPolyomino(cols))
                assert type(s) is objects.ParallelogramStats
                assert s == (sum(h for _, h in cols), len(cols), tuple(
                    cols[i][0] + cols[i][1] - cols[i + 1][0]
                    for i in range(len(cols) - 1))), cols

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
    (objects.make_parallelogram, [], EmptyInput,
     "a parallelogram polyomino needs at least one column"),
    (objects.make_parallelogram, [(1, 2), (1, 3)], NonMonotoneBoundary,
     "first column must start at row 0, got 1"),
    (objects.make_fountain, 7, InvalidObject,
     "diagonals must be a list of integers"),
    (objects.make_fountain, [], EmptyInput,
     "a fountain needs at least one diagonal"),
    (objects.make_fountain, [1, True], InvalidObject,
     "diagonal size True must be an integer"),
    (objects.make_fountain, [2, -1, 1], NegativeOrZeroLength,
     "diagonal size -1 must be positive"),
    (objects.make_fountain, [2, 2], BadLastDiagonal,
     "last diagonal must be 1, got 2"),
    (objects.make_fountain, [1, 3, 1], DiagonalDrop,
     "diagonal 2 of size 3 exceeds neighbour 1 + 1"),
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
    @staticmethod
    def one_of_each_family() -> dict:
        cases = {
            "stanley": objects.make_stanley(WORKED),
            "dyck": objects.make_dyck("UUDD"),
            "peaklessMotzkin": objects.make_motzkin("UFD"),
            "fountain": objects.make_fountain((2, 1)),
            "parallelogram": objects.make_parallelogram([(0, 2), (1, 2)]),
        }
        assert set(cases) == set(objects.FAMILIES)
        return cases

    def test_all_families(self):
        cases = self.one_of_each_family()
        for family, (cls, _, _) in objects.FAMILIES.items():
            x = cases[family]
            assert type(x) is cls
            data = objects.to_json_obj(x)
            decoded = json.loads(json.dumps(data))
            assert decoded == data
            # JSON integers pass the exact int type test
            assert objects.from_json_obj(family, decoded) == x

    def test_stats_json_is_the_record_in_field_order(self):
        for family, x in self.one_of_each_family().items():
            record = objects.FAMILIES[family][2](x)
            data = objects.stats_json(x)
            assert list(data) == list(record._fields), family
            for key, value in zip(record._fields, record):
                if type(value) is tuple:
                    assert type(data[key]) is list, (family, key)
                    assert data[key] == list(value), (family, key)
                else:
                    assert type(data[key]) is type(value), (family, key)
                    assert data[key] == value, (family, key)
        # the parallelogram's overlaps is the one tuple field
        assert objects.stats_json(objects.make_parallelogram(
            [(0, 2), (1, 2)]))["overlaps"] == [1]


    @pytest.mark.parametrize("call, error, message", [
        (lambda: objects.to_json_obj(5), TypeError,
         "not a family object: int"),
        (lambda: objects.from_json_obj("nope", {}), ValueError,
         "unknown family 'nope'"),
    ], ids=["to-json-of-an-int", "from-json-of-an-unknown-family"])
    def test_refusals(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message


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


def _perfbench_tuples(name: str) -> dict:
    """The top-level tuple constants of perfbench/<name>, read without
    importing it."""
    path = Path(__file__).parents[1] / "perfbench" / name
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Tuple)}


def test_perfbench_physics_hooks_resolve():
    # perfbench reads per-layer metrics off the spans of the functions these
    # tables name; a renamed function would read 0 there silently
    layers = _perfbench_tuples("layers.py")
    suites = _perfbench_tuples("workloads.py")["SUITES"]
    hooks = [f"objects.{fam}_stats" for fam in layers["FAMILY_STATS"]]
    hooks += [f"bijections.{b}" for b in layers["BIJECTIONS"]]
    hooks += [f"catalog.{g}" for g in layers["GFS"]]
    hooks += ["verification.suite_" + s.replace("-", "_") for s in suites]
    hooks += layers["PHYSICS"]
    assert all(layers[t] for t in ("FAMILY_STATS", "BIJECTIONS", "GFS",
                                   "PHYSICS")) and suites
    for name in hooks:
        module, attr = name.split(".")
        assert callable(getattr(getattr(stanlab, module), attr, None)), name
