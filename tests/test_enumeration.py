import tracemalloc
from itertools import islice

import pytest

from stanlab import enumeration, objects, verification
from stanlab.catalog import catalan
from stanlab.enumeration import (
    SUPPORTED_PAIRS,
    FamilyBound,
    count,
    count_grouped,
    enumerate_family,
    iter_raw,
)
from stanlab.errors import CapExceeded, UnsupportedPair


class TestBounds:
    def test_supported_pairs(self):
        FamilyBound("stanley", "columns", 3)
        FamilyBound("fountain", "evenCoins", 4)

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedPair):
            FamilyBound("stanley", "rows", 3)

    def test_unknown_family(self):
        with pytest.raises(UnsupportedPair):
            FamilyBound("tree", "nodes", 3)

    def test_negative_value(self):
        with pytest.raises(UnsupportedPair):
            FamilyBound("dyck", "semilength", -1)

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True, False, None])
    def test_value_must_be_an_exact_int(self, value):
        # refused before any walk starts, not leaked as a TypeError from it
        # or, for True, counted as 1
        with pytest.raises(UnsupportedPair, match="must be an integer"):
            count(FamilyBound("dyck", "semilength", value))

    def test_non_int_value_message(self):
        with pytest.raises(UnsupportedPair) as info:
            FamilyBound("fountain", "evenCoins", "3")
        assert str(info.value) == "measure value must be an integer, got '3'"


class TestCounts:
    def test_stanley_by_columns_is_catalan(self):
        for n in range(1, 9):
            assert count(FamilyBound("stanley", "columns", n)) == catalan(n - 1)

    def test_dyck_is_catalan(self):
        for m in range(0, 8):
            assert count(FamilyBound("dyck", "semilength", m)) == catalan(m)

    def test_fountains_by_diagonals_are_catalan(self):
        for m in range(1, 9):
            assert count(FamilyBound("fountain", "diagonals", m)) == catalan(m)

    def test_stanley_by_semiperimeter(self):
        want = [1, 1, 1, 2, 4, 8, 17, 37, 82]
        got = [count(FamilyBound("stanley", "semiperimeter", n))
               for n in range(2, 11)]
        assert got == want

    def test_peakless_motzkin(self):
        want = [1, 1, 1, 2, 4, 8, 17, 37]
        got = [count(FamilyBound("peaklessMotzkin", "steps", m)) for m in range(8)]
        assert got == want

    def test_stanley_by_area(self):
        want = [1, 1, 1, 2, 3, 6, 10, 19, 34]
        got = [count(FamilyBound("stanley", "area", n)) for n in range(1, 10)]
        assert got == want

    def test_parallelogram_by_area(self):
        want = [1, 2, 4, 9, 20, 46]
        got = [count(FamilyBound("parallelogram", "area", n)) for n in range(1, 7)]
        assert got == want

    def test_fountain_by_even_coins(self):
        # diagonal (1) has a single coin on the even level
        assert count(FamilyBound("fountain", "evenCoins", 1)) == 1
        by_brute = {}
        for m in range(1, 12):
            for raw in iter_raw(FamilyBound("fountain", "diagonals", m)):
                e = objects.fountain_stats(objects.CoinFountain(raw)).e
                by_brute[e] = by_brute.get(e, 0) + 1
        for e in range(1, 6):
            assert count(FamilyBound("fountain", "evenCoins", e)) == by_brute[e]


class TestStreaming:
    def test_objects_are_valid(self):
        for n in range(1, 7):
            for p in enumerate_family(FamilyBound("stanley", "columns", n)):
                objects.make_stanley(p.rows)

    def test_deterministic_order(self):
        bound = FamilyBound("stanley", "area", 7)
        assert list(iter_raw(bound)) == list(iter_raw(bound))

    @pytest.mark.parametrize("stream", [iter_raw, enumerate_family])
    def test_streams_walk_nothing_before_the_first_draw(self, stream,
                                                        monkeypatch):
        pair = ("dyck", "semilength")
        real = enumeration._GENERATORS[pair]
        calls = []

        def recorded(n):
            calls.append(n)
            return real(n)

        monkeypatch.setitem(enumeration._GENERATORS, pair, recorded)
        items = stream(FamilyBound(*pair, 3))
        assert calls == []
        next(items)
        assert calls == [3]
        assert len(list(items)) == 4 and calls == [3]

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(enumeration, "DEFAULT_CAP", 100)
        with pytest.raises(CapExceeded):
            list(iter_raw(FamilyBound("dyck", "semilength", 8)))

    def test_cap_allows_exactly_cap_objects(self, monkeypatch):
        # 42 Dyck words of semilength 5
        bound = FamilyBound("dyck", "semilength", 5)
        monkeypatch.setattr(enumeration, "DEFAULT_CAP", 42)
        assert len(list(iter_raw(bound))) == 42
        monkeypatch.setattr(enumeration, "DEFAULT_CAP", 41)
        with pytest.raises(CapExceeded, match="exceeded cap of 41 objects"):
            list(iter_raw(bound))

    # 42 Dyck words of semilength 5; 82 triple-free ones of semilength 7,
    # the chi-prime sources, which call the cap directly
    @pytest.mark.parametrize("stream, size", [
        (lambda: iter_raw(FamilyBound("dyck", "semilength", 5)), 42),
        (lambda: verification.chi_prime_sources(7), 82),
    ], ids=["iter_raw", "chi_prime_sources"])
    def test_cap_is_checked_item_by_item(self, monkeypatch, stream, size):
        monkeypatch.setattr(enumeration, "DEFAULT_CAP", size)
        items = stream()
        for _ in range(size):
            next(items)
        with pytest.raises(StopIteration):
            next(items)
        monkeypatch.setattr(enumeration, "DEFAULT_CAP", size - 1)
        items = stream()
        for _ in range(size - 1):
            next(items)
        with pytest.raises(CapExceeded,
                           match=f"exceeded cap of {size - 1} objects$"):
            next(items)

    def test_even_coins_streams_in_canonical_order(self, monkeypatch):
        with monkeypatch.context() as m, pytest.raises(CapExceeded):
            m.setattr(enumeration, "DEFAULT_CAP", 10)
            list(iter_raw(FamilyBound("fountain", "evenCoins", 14)))
        # the first object arrives without the rest of the stream being built
        first = next(iter_raw(FamilyBound("fountain", "evenCoins", 200)))
        assert first == (1,) * 200
        # values 0-9 are checked for every pair below
        for e in range(10, 13):
            raw = list(iter_raw(FamilyBound("fountain", "evenCoins", e)))
            assert raw == sorted(set(raw))

    @pytest.mark.parametrize("family, measure", sorted(SUPPORTED_PAIRS))
    def test_every_pair_streams_in_canonical_order(self, family, measure):
        for value in range(10):
            raw = list(iter_raw(FamilyBound(family, measure, value)))
            assert raw == sorted(set(raw)), value

    @pytest.mark.parametrize("family, measure, value", [
        ("stanley", "columns", 0),
        ("stanley", "area", 0),
        ("stanley", "semiperimeter", 0),
        ("stanley", "semiperimeter", 1),
        ("parallelogram", "area", 0),
        ("fountain", "diagonals", 0),
        ("fountain", "evenCoins", 0),
    ])
    def test_empty_streams(self, family, measure, value):
        assert list(iter_raw(FamilyBound(family, measure, value))) == []


# The recursive path walks the explicit-stack walks replaced, kept as
# references for the stream and its order.

def recursive_dyck(n: int):
    total = 2 * n

    def walk(word: list, h: int, ups: int):
        if len(word) == total:
            yield "".join(word)
            return
        remaining = total - len(word)
        if h > 0 and h <= remaining:  # D sorts before U
            word.append("D")
            yield from walk(word, h - 1, ups)
            word.pop()
        if ups < n and h + 1 <= remaining - 1:
            word.append("U")
            yield from walk(word, h + 1, ups + 1)
            word.pop()

    yield from walk([], 0, 0)


def recursive_dyck_triple_free(n: int, max_run: int = 2):
    total = 2 * n

    def walk(word: list, h: int, run: int):
        remaining = total - len(word)
        if remaining == 0:
            yield "".join(word)
            return
        if h > 0 and run > -max_run:
            word.append("D")
            yield from walk(word, h - 1, min(run, 0) - 1)
            word.pop()
        if h + 2 <= remaining and run < max_run:
            word.append("U")
            yield from walk(word, h + 1, max(run, 0) + 1)
            word.pop()

    yield from walk([], 0, 0)


def recursive_peakless_motzkin(n: int):
    def walk(word: list, h: int):
        rest = n - len(word)
        if rest == 0:
            if h == 0:
                yield "".join(word)
            return
        if h > rest:
            return
        last = word[-1] if word else ""
        if h > 0 and last != "U":  # no UD factor
            word.append("D")
            yield from walk(word, h - 1)
            word.pop()
        word.append("F")
        yield from walk(word, h)
        word.pop()
        if h + 2 <= rest:
            word.append("U")
            yield from walk(word, h + 1)
            word.pop()

    yield from walk([], 0)


def completes(children, node, known: dict) -> bool:
    """Whether a plain recursive walk below node reaches a leaf."""
    state = node[1:]
    if state not in known:
        known[state] = not node[-1] or any(
            completes(children, kid, known) for kid in children(*node))
    return known[state]


def dead_nodes(generator, n: int, monkeypatch):
    """Runs generator(n) and returns the nodes the driver handed to children
    that have no completion, how many it handed over, and how many tables
    it built.  Expanded nodes and the empty-object root of every table all
    go through children; a table is built by a walk without tables."""
    walk = enumeration._walk
    handed = []
    builds = []

    def recorded(roots, children, near=0):
        original = getattr(children, "original", children)
        if not near:
            builds.append(roots)

        def listed(*node):
            handed.append((original, node))
            return original(*node)
        listed.original = original
        return walk(roots, listed, near)

    with monkeypatch.context() as m:
        m.setattr(enumeration, "_walk", recorded)
        for _ in generator(n):
            pass
    known = {}
    dead = [node for children, node in handed
            if not completes(children, node, known)]
    return dead, len(handed), len(builds)


class TestPathWalks:
    @pytest.mark.parametrize("n", range(13))
    def test_dyck_matches_the_recursive_walk(self, n):
        assert list(enumeration._gen_dyck(n)) == list(recursive_dyck(n))

    @pytest.mark.parametrize("n", range(15))
    def test_triple_free_dyck_matches_the_recursive_walk(self, n):
        assert list(enumeration._gen_dyck(n, 2)) == list(
            recursive_dyck_triple_free(n))

    @pytest.mark.parametrize("max_run", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(13))
    def test_run_limited_dyck_matches_the_recursive_walk(self, n, max_run):
        assert list(enumeration._gen_dyck(n, max_run)) == list(
            recursive_dyck_triple_free(n, max_run))

    @pytest.mark.parametrize("max_run", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(13))
    def test_run_limited_dyck_pops_only_prefixes_that_complete(
            self, n, max_run, monkeypatch):
        # every prefix the driver takes off its stack to expand, and every
        # table it builds, has at least one completion
        dead, expanded, _ = dead_nodes(
            lambda n: enumeration._gen_dyck(n, max_run), n, monkeypatch)
        assert dead == [], (len(dead), expanded, dead[:3])
        assert expanded or n == 0  # the empty word is a leaf at once

    @pytest.mark.parametrize("n", range(17))
    def test_peakless_motzkin_matches_the_recursive_walk(self, n):
        assert list(enumeration._gen_peakless_motzkin(n)) == list(
            recursive_peakless_motzkin(n))


# The recursive wide walks the shared explicit-stack driver replaced, kept
# as references for the stream and its order.

def recursive_stanley_columns(n: int):
    def walk(rows: tuple, s: int, e: int):
        if e == n:
            yield rows
            return
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, n + 1):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2)

    for l1 in range(1, n + 1):
        yield from walk(((0, l1),), 0, l1)


def recursive_stanley_semiperimeter(n: int):
    def walk(rows: tuple, s: int, e: int):
        if e + len(rows) == n:
            yield rows
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, n - len(rows)):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2)

    for l1 in range(1, n):
        yield from walk(((0, l1),), 0, l1)


def recursive_stanley_area(n: int):
    def walk(rows: tuple, s: int, e: int, area: int):
        if area == n:
            yield rows
            return
        for s2 in range(s + 1, e):
            for e2 in range(e + 1, s2 + (n - area) + 1):
                yield from walk(rows + ((s2, e2 - s2),), s2, e2,
                                area + e2 - s2)

    for l1 in range(1, n + 1):
        yield from walk(((0, l1),), 0, l1, l1)


def recursive_parallelogram_area(n: int):
    def walk(cols: tuple, b: int, top: int, area: int):
        if area == n:
            yield cols
            return
        for b2 in range(b, top + 1):
            for h2 in range(top - b2 + 1, n - area + 1):
                yield from walk(cols + ((b2, h2),), b2, b2 + h2 - 1,
                                area + h2)

    for h1 in range(1, n + 1):
        yield from walk(((0, h1),), 0, h1 - 1, h1)


def recursive_fountain_diagonals(m: int):
    if m < 1:
        return

    def walk(diag: tuple):
        j = len(diag)
        if j == m:
            if diag[-1] == 1:
                yield diag
            return
        lo = max(1, diag[-1] - 1) if diag else 1
        for d in range(lo, m - j + 1):
            yield from walk(diag + (d,))

    yield from walk(())


class TestWideWalks:
    @pytest.mark.parametrize("family, measure, reference, top", [
        ("stanley", "columns", recursive_stanley_columns, 12),
        ("stanley", "semiperimeter", recursive_stanley_semiperimeter, 17),
        ("stanley", "area", recursive_stanley_area, 20),
        ("parallelogram", "area", recursive_parallelogram_area, 14),
        ("fountain", "diagonals", recursive_fountain_diagonals, 11),
    ])
    def test_matches_the_recursive_walk(self, family, measure, reference,
                                        top):
        for n in range(top + 1):
            bound = FamilyBound(family, measure, n)
            assert list(iter_raw(bound)) == list(reference(n)), n

    @pytest.mark.parametrize("family, measure, top", [
        ("stanley", "columns", 12),
        ("stanley", "semiperimeter", 17),
        ("stanley", "area", 20),
        ("parallelogram", "area", 14),
        ("fountain", "diagonals", 11),
    ])
    def test_every_expanded_node_has_a_child(self, family, measure, top,
                                             monkeypatch):
        walk = enumeration._walk
        empty = []

        def listed(roots, children, *near):
            def checked(*node):
                kids = list(children(*node))
                if not kids:
                    empty.append(node)
                return iter(kids)
            return walk(roots, checked, *near)

        monkeypatch.setattr(enumeration, "_walk", listed)
        for n in range(top + 1):
            for _ in iter_raw(FamilyBound(family, measure, n)):
                pass
            assert empty == [], (n, len(empty), empty[:3])


# Every generator through the sizes the tests above compare to a reference
# (evenCoins through 16, which reaches its tables), then the run-limited
# Dyck walks, whose completion check is TestPathWalks'.
GENERATORS = [
    (f"{family}/{measure}", enumeration._GENERATORS[family, measure], top)
    for family, measure, top in [
        ("stanley", "columns", 12),
        ("stanley", "semiperimeter", 17),
        ("stanley", "area", 20),
        ("dyck", "semilength", 12),
        ("peaklessMotzkin", "steps", 16),
        ("fountain", "diagonals", 11),
        ("fountain", "evenCoins", 16),
        ("parallelogram", "area", 14),
    ]]
DRIVEN = GENERATORS + [
    (f"dyck/max_run={k}", lambda n, k=k: enumeration._gen_dyck(n, k),
     14 if k == 2 else 12) for k in (1, 2, 3, 4)]


class TestDriver:
    @pytest.mark.parametrize("name, generator, top", GENERATORS,
                             ids=[name for name, _, _ in GENERATORS])
    def test_every_expanded_node_and_table_completes(self, name, generator,
                                                     top, monkeypatch):
        for n in range(top + 1):
            dead, expanded, builds = dead_nodes(generator, n, monkeypatch)
            assert dead == [], (n, len(dead), expanded, dead[:3])
        assert builds, "the largest size builds no table"

    @pytest.mark.parametrize("name, generator, top", DRIVEN,
                             ids=[name for name, _, _ in DRIVEN])
    def test_tables_on_and_off_give_the_same_stream(self, name, generator,
                                                    top, monkeypatch):
        with_tables = [list(generator(n)) for n in range(top + 1)]
        walk = enumeration._walk
        monkeypatch.setattr(enumeration, "_walk",
                            lambda roots, children, near=0: walk(roots,
                                                                 children))
        assert [list(generator(n)) for n in range(top + 1)] == with_tables

    def test_tables_stay_bounded_in_a_wide_walk(self, monkeypatch):
        # At columns 100 a row on the first row (0, 96) may start anywhere on
        # it, so states near the end have far more than TABLE_LIMIT
        # completions; they are expanded, not tabled.
        # The tables live in the top-level walk's run generator, the first
        # one made.
        walk, runs = enumeration._walk, enumeration._runs

        def first_objects(tabled: bool):
            made = []

            def from_row_96(roots, children, near=0):
                if near:  # the top-level walk, not a table's
                    roots = [r for r in roots if r[0] == ((0, 96),)]
                    near = near if tabled else 0
                return walk(roots, children, near)

            def recorded(*args):
                made.append(runs(*args))
                return made[-1]

            monkeypatch.setattr(enumeration, "_walk", from_row_96)
            monkeypatch.setattr(enumeration, "_runs", recorded)
            stream = enumeration._GENERATORS["stanley", "columns"](100)
            return list(islice(stream, 1000)), made[0]

        tracemalloc.start()
        try:
            first, top = first_objects(tabled=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = top.gi_frame.f_locals["tables"]
        assert len(first) == 1000 and first[0][0] == (0, 96)
        assert max(map(len, tables.values())) <= enumeration.TABLE_LIMIT
        assert () in tables.values()  # some state was too wide for a table
        assert peak < 4 * 2**20, peak
        assert first_objects(tabled=False)[0] == first


class TestGrouping:
    def test_group_by_row(self):
        counts = count_grouped(FamilyBound("stanley", "area", 6), "row")
        assert counts == {1: 1, 2: 4, 3: 1}

    def test_unknown_statistic(self):
        with pytest.raises(UnsupportedPair, match="not defined"):
            count_grouped(FamilyBound("stanley", "area", 5), "perimeterish")

    def test_boolean_statistic_rejected(self):
        with pytest.raises(UnsupportedPair, match="not an integer mark"):
            count_grouped(FamilyBound("dyck", "semilength", 3), "avoids3")
        with pytest.raises(UnsupportedPair, match="not an integer mark"):
            count_grouped(FamilyBound("peaklessMotzkin", "steps", 3),
                          "peakless")

    @pytest.mark.parametrize("family, measure, value, name, message", [
        ("stanley", "semiperimeter", 1, "nonsense", "not defined"),
        ("fountain", "evenCoins", 0, "nonsense", "not defined"),
        ("parallelogram", "area", 0, "overlaps", "not an integer mark"),
    ])
    def test_statistic_checked_on_empty_bound(self, family, measure, value,
                                              name, message):
        bound = FamilyBound(family, measure, value)
        assert list(iter_raw(bound)) == []
        with pytest.raises(UnsupportedPair, match=message):
            count_grouped(bound, name)


class TestStatisticsTable:
    def test_keys_are_the_integer_fields_of_each_record(self):
        for family, measure in SUPPORTED_PAIRS:
            x = next(enumerate_family(FamilyBound(family, measure, 4)))
            record = objects.stats_json(x)
            table = {n for f, n in objects.STATISTICS if f == family}
            assert table == {n for n, v in record.items() if type(v) is int}
            assert {n for f, n in objects.NON_INTEGER_STATISTICS
                    if f == family} == set(record) - table

    @pytest.mark.parametrize("family, measure", sorted(SUPPORTED_PAIRS))
    def test_every_accessor_matches_the_record(self, family, measure):
        accessors = {n: fn for (f, n), fn in objects.STATISTICS.items()
                     if f == family}
        seen = 0
        for value in range(8):
            bound = FamilyBound(family, measure, value)
            for raw, x in zip(iter_raw(bound), enumerate_family(bound),
                              strict=True):
                record = objects.stats_json(x)
                for name, fn in accessors.items():
                    assert fn(raw) == record[name], (raw, name)
                seen += 1
        assert seen > 0
