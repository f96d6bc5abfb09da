"""Round trips, statistic transport, and inverse lookup for the bijections."""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stanlab import bijections
from stanlab.bijections import (
    chi,
    chi_prime,
    f_inv,
    f_map,
    h_map,
    phi,
    phi_inv,
    preimages,
    psi,
    table_inverse,
)
from stanlab.enumeration import FamilyBound, cached_count, iter_raw
from stanlab.errors import (
    ContainsTriple,
    InvariantViolation,
    MultiplePreimages,
    NoPreimage,
    TooSmall,
)
from stanlab.objects import (
    DyckPath,
    MotzkinPath,
    StanleyPolyomino,
    dyck_stats,
    fountain_stats,
    make_dyck,
    make_fountain,
    make_motzkin,
    make_parallelogram,
    make_stanley,
    parallelogram_stats,
    stanley_stats,
)
from stanlab.verification import TABLE1_IDENTITIES

WORKED = ((0, 6), (3, 6), (4, 7), (10, 3), (11, 5))
WORKED_WORD = "UUUUUDDDUUUDUUDDDDDDUUDUUUDDDD"


def stanleys(columns: int):
    return (make_stanley(r) for r in iter_raw(FamilyBound("stanley", "columns", columns)))


def dycks(semilength: int):
    return (make_dyck(w) for w in iter_raw(FamilyBound("dyck", "semilength", semilength)))


@st.composite
def random_stanley(draw):
    rows = [(0, draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 4))):
        s_prev, l_prev = rows[-1]
        if l_prev == 1:
            break
        end_prev = s_prev + l_prev
        start = draw(st.integers(s_prev + 1, end_prev - 1))
        end = draw(st.integers(end_prev + 1, end_prev + 4))
        rows.append((start, end - start))
    return make_stanley(rows)


# -- large objects, built valid step by step --------------------------------------

@st.composite
def large_stanley(draw):
    """30-60 columns; every row but the last has two or more cells, so the
    next row can start strictly inside it and end strictly past it."""
    n = draw(st.integers(30, 60))
    s, e = 0, draw(st.integers(2, 6))
    rows = [(s, e)]
    while e < n:
        s2 = draw(st.integers(s + 1, e - 1))
        e2 = draw(st.integers(e + 1, min(n, e + 6)))
        rows.append((s2, e2 - s2))
        s, e = s2, e2
    return make_stanley(rows)


@st.composite
def large_fountain(draw):
    """40-60 diagonals: d_m = 1 and d_j <= d_{j+1} + 1, built right to left."""
    d = [1]
    for _ in range(draw(st.integers(39, 59))):
        d.append(draw(st.integers(1, d[-1] + 1)))
    return make_fountain(d[::-1])


@st.composite
def large_parallelogram(draw):
    """Area 70-90 or a little more: each column starts inside the last one
    and ends no lower."""
    target = draw(st.integers(70, 90))
    b, h = 0, draw(st.integers(1, 6))
    cols, area = [(b, h)], h
    while area < target:
        b2 = draw(st.integers(b, b + h - 1))
        h2 = draw(st.integers(b + h - b2, b + h - b2 + 3))
        cols.append((b2, h2))
        b, h, area = b2, h2, area + h2
    return make_parallelogram(cols)


@lru_cache(maxsize=None)
def _next_steps(alphabet: str, h: int, left: int, last: str, run: int) -> tuple:
    """Steps from height h with `left` steps to go that can still end on the
    axis: "UD" words avoid UUU and DDD, "UFD" words avoid the factor UD."""
    out = []
    for c in alphabet:
        h2 = h + (c == "U") - (c == "D")
        if h2 < 0 or h2 > left - 1:
            continue
        if alphabet == "UD" and c == last and run == 2:
            continue
        if alphabet == "UFD" and last + c == "UD":
            continue
        run2 = run + 1 if c == last else 1
        if left == 1:
            if h2 == 0:
                out.append(c)
        elif _next_steps(alphabet, h2, left - 1, c, run2):
            out.append(c)
    return tuple(out)


@st.composite
def long_word(draw, alphabet: str):
    """A word of length 60-120 (even for Dyck words) drawn one feasible step
    at a time."""
    if alphabet == "UD":
        length = 2 * draw(st.integers(30, 60))
    else:
        length = draw(st.integers(60, 120))
    word, h, last, run = [], 0, "", 0
    for left in range(length, 0, -1):
        c = draw(st.sampled_from(_next_steps(alphabet, h, left, last, run)))
        h += (c == "U") - (c == "D")
        run = run + 1 if c == last else 1
        last = c
        word.append(c)
    return "".join(word)


# -- the tuple-based maps these replaced, one full row rewrite per step -----------

def _tuple_add_bottom_row(rows: tuple, k: int) -> tuple:
    return ((0, k),) + tuple((s + 1, l) for s, l in rows)


def _tuple_prepend_cells(rows: tuple, m: int) -> tuple:
    new = [(s - 1, l + 1) if i < m else (s, l) for i, (s, l) in enumerate(rows)]
    return tuple((s + 1, l) for s, l in new)


def tuple_replay(ops, first_len: int) -> StanleyPolyomino:
    rows: tuple = ((0, first_len),)
    for kind, n in ops:
        if kind == "row":
            rows = _tuple_add_bottom_row(rows, n)
        else:
            rows = _tuple_prepend_cells(rows, n)
    return make_stanley(rows)


def tuple_f_map(c):
    rows: tuple = ((0, 2),)
    for k in reversed(c.diagonals[:-1]):
        if k % 2:
            rows = _tuple_add_bottom_row(rows, (k - 1) // 2 + 2)
        else:
            rows = _tuple_prepend_cells(rows, k // 2)
    return make_stanley(rows)


def tuple_f_inv(p):
    rows = p.rows
    sizes = []
    while rows != ((0, 2),):
        ps = stanley_stats(StanleyPolyomino(rows))
        d, r = ps.firstD, ps.first
        if r >= d + 2:
            sizes.append(2 * d)
            rows = tuple((s + 1, l - 1) if i < d else (s, l)
                         for i, (s, l) in enumerate(rows))
            rows = tuple((s - 1, l) for s, l in rows)
        else:
            sizes.append(2 * r - 3)
            rows = tuple((s - 1, l) for s, l in rows[1:])
    sizes.append(1)
    return make_fountain(sizes)


def tuple_chi(fn, x):
    """fn (chi or chi_prime) with its row surgery done by tuple_replay."""
    with mock.patch.object(bijections, "_replay", tuple_replay):
        return fn(x)


# -- the word-rebuilding peels chi and chi_prime replaced, quadratic in length --

def _steps_on_axis(word: str) -> int:
    h = n = 0
    for c in word:
        h += (c == "U") - (c == "D")
        n += h == 0
    return n


def _first_return(word: str) -> int:
    h = 0
    for i, c in enumerate(word):
        h += (c == "U") - (c == "D")
        if h == 0 and c == "D":
            return i + 1
    raise AssertionError("unbalanced word")


def _hills(word: str) -> int:
    h = n = 0
    for i, c in enumerate(word):
        if c == "U" and h == 0 and word[i + 1 : i + 2] == "D":
            n += 1
        h += (c == "U") - (c == "D")
    return n


def word_peel_chi(m):
    ops, word = [], m.word
    while word:
        if word[0] == "F":
            ops.append(("cells", 1))
            word = word[1:]
        else:
            cut = _first_return(word)
            ops.append(("row", _steps_on_axis(word) + 1))
            word = word[1 : cut - 1] + word[cut:]
    return bijections._replay(reversed(ops), 1)


def word_peel_chi_prime(d):
    ops, word = [], d.word
    while word:
        if word.startswith("UD"):
            ops.append(("cells", 1))
            word = word[2:]
        else:
            cut = _first_return(word)
            body, tail = word[1 : cut - 1], word[cut:]
            assert body.endswith("UD")
            ops.append(("row", _hills(tail) + 2))
            word = body[:-2] + tail
    return bijections._replay(reversed(ops), 2)


def fountains(diagonals: int):
    bound = FamilyBound("fountain", "diagonals", diagonals)
    return (make_fountain(d) for d in iter_raw(bound))


def triple_free_dycks(semilength: int):
    return (d for d in dycks(semilength)
            if "UUU" not in d.word and "DDD" not in d.word)


def motzkins(steps: int):
    bound = FamilyBound("peaklessMotzkin", "steps", steps)
    return (make_motzkin(w) for w in iter_raw(bound))


class TestPhi:
    def test_worked_example_word(self):
        assert phi(make_stanley(WORKED)).word == WORKED_WORD

    def test_worked_example_round_trip(self):
        p = make_stanley(WORKED)
        assert phi_inv(phi(p)) == p

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustive_round_trip(self, n: int):
        words = set()
        for p in stanleys(n):
            d = phi(p)
            assert dyck_stats(d).semilength == n - 1
            assert phi_inv(d) == p
            words.add(d.word)
        assert len(words) == cached_count("stanley", "columns", n)

    @pytest.mark.parametrize("m", range(0, 7))
    def test_inverse_lands_on_polyominoes(self, m: int):
        for d in dycks(m):
            p = phi_inv(d)
            assert stanley_stats(p).col == m + 1
            assert phi(p) == d

    @given(random_stanley())
    @settings(max_examples=150)
    def test_round_trip_random(self, p):
        d = phi(p)
        assert phi_inv(d) == p
        assert dyck_stats(d).semilength == stanley_stats(p).col - 1


class TestChi:
    def test_smallest_paths(self):
        assert chi(make_motzkin("")).rows == ((0, 1),)
        assert chi(make_motzkin("F")).rows == ((0, 2),)
        assert chi(make_motzkin("UFD")).rows == ((0, 2), (1, 2))

    @pytest.mark.parametrize("m", range(0, 8))
    def test_bijective_onto_semiperimeter_class(self, m: int):
        images = set()
        for w in iter_raw(FamilyBound("peaklessMotzkin", "steps", m)):
            p = chi(make_motzkin(w))
            assert stanley_stats(p).sper == m + 2
            images.add(p.rows)
        assert len(images) == cached_count("stanley", "semiperimeter", m + 2)


class TestChiPrime:
    def test_rejects_triple_rise(self):
        with pytest.raises(ContainsTriple):
            chi_prime(make_dyck("UUUDDD"))

    def test_empty_path(self):
        assert chi_prime(make_dyck("")).rows == ((0, 2),)

    @pytest.mark.parametrize("m", range(0, 7))
    def test_statistics_transport(self, m: int):
        for w in iter_raw(FamilyBound("dyck", "semilength", m)):
            if "UUU" in w or "DDD" in w:
                continue
            d = make_dyck(w)
            p = chi_prime(d)
            ps = stanley_stats(p)
            assert ps.sper == m + 3
            assert ps.first == dyck_stats(d).hills + 2

    def test_known_collision_pair(self):
        # The recursion merges these two sources; inverse lookup must refuse.
        a = chi_prime(make_dyck("UUDUDDUUDD"))
        b = chi_prime(make_dyck("UUDUUDDUDD"))
        assert a == b
        assert a.rows == ((0, 2), (1, 3), (3, 2))

    def test_collision_search_script_finds_the_pair(self, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "collision_search.py"
        spec = importlib.util.spec_from_file_location("collision_search", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.scan(6, 1) > 0
        out = capsys.readouterr().out
        assert "semilength 5: 17 sources, 16 images, 1 merged targets" in out
        assert "[(0, 2), (1, 3), (3, 2)] <- UUDUDDUUDD, UUDUUDDUDD" in out
        for option in ("--pairs", "--max-semilength"):
            with pytest.raises(SystemExit) as exc:
                script.main([option, "-1"])
            assert exc.value.code == 2
        assert "must be nonnegative" in capsys.readouterr().err


class TestFountainMap:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_forward_round_trip(self, m: int):
        for diags in iter_raw(FamilyBound("fountain", "diagonals", m)):
            c = make_fountain(diags)
            p = f_map(c)
            ps = stanley_stats(p)
            cs = fountain_stats(c)
            assert ps.col == m + 1
            assert ps.area == 2 * cs.e - cs.o
            assert f_inv(p) == c

    @pytest.mark.parametrize("n", range(2, 9))
    def test_reverse_round_trip(self, n: int):
        for p in stanleys(n):
            assert f_map(f_inv(p)) == p


class TestLargeObjects:
    @given(large_fountain())
    @settings(max_examples=60, deadline=None)
    def test_fountain_round_trip_and_marks(self, c):
        p = f_map(c)
        ps = stanley_stats(p)
        cs = fountain_stats(c)
        assert ps.col == cs.m + 1
        assert ps.area == 2 * cs.e - cs.o
        assert f_inv(p) == c

    @given(large_stanley())
    @settings(max_examples=60, deadline=None)
    def test_polyomino_round_trip(self, p):
        assert f_map(f_inv(p)) == p

    @given(large_stanley())
    @settings(max_examples=60, deadline=None)
    def test_phi_round_trip_and_table1_transport(self, p):
        d = phi(p)
        assert phi_inv(d) == p
        ps, ds = stanley_stats(p), dyck_stats(d)
        for label, attr, rhs in TABLE1_IDENTITIES:
            assert getattr(ps, attr) == rhs(ds), label

    @given(long_word("UD"))
    @settings(max_examples=40, deadline=None)
    def test_phi_inv_round_trip(self, w):
        d = make_dyck(w)
        assert phi(phi_inv(d)) == d

    @given(large_parallelogram())
    @settings(max_examples=60, deadline=None)
    def test_h_and_psi_transport(self, q):
        qs = parallelogram_stats(q)
        ds = dyck_stats(h_map(q))
        assert (ds.sump, ds.nbp) == (qs.area, qs.colCount)
        cs = fountain_stats(psi(q))
        assert (cs.e, cs.o) == (qs.area, qs.area - qs.colCount)

    @given(long_word("UFD"))
    @settings(max_examples=40, deadline=None)
    def test_chi_semiperimeter(self, w):
        assert stanley_stats(chi(make_motzkin(w))).sper == len(w) + 2

    @given(long_word("UD"))
    @settings(max_examples=40, deadline=None)
    def test_chi_prime_semiperimeter_and_first_row(self, w):
        d = make_dyck(w)
        ps = stanley_stats(chi_prime(d))
        assert ps.sper == len(w) // 2 + 3
        assert ps.first == dyck_stats(d).hills + 2


class TestTupleReference:
    """The list-plus-offset row surgery gives the same rows as the tuple
    rewrites it replaced."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_f_map_exhaustive(self, m: int):
        for c in fountains(m):
            assert f_map(c) == tuple_f_map(c)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_f_inv_exhaustive(self, n: int):
        for p in stanleys(n):
            assert f_inv(p) == tuple_f_inv(p)

    @pytest.mark.parametrize("size", range(0, 9))
    def test_chi_and_chi_prime_exhaustive(self, size: int):
        for m in motzkins(size):
            assert chi(m) == tuple_chi(chi, m)
        for d in triple_free_dycks(size):
            assert chi_prime(d) == tuple_chi(chi_prime, d)

    @given(large_fountain(), large_stanley())
    @settings(max_examples=40, deadline=None)
    def test_f_maps_large(self, c, p):
        assert f_map(c) == tuple_f_map(c)
        assert f_inv(p) == tuple_f_inv(p)

    @given(long_word("UFD"), long_word("UD"))
    @settings(max_examples=40, deadline=None)
    def test_chi_maps_large(self, w, v):
        m, d = make_motzkin(w), make_dyck(v)
        assert chi(m) == tuple_chi(chi, m)
        assert chi_prime(d) == tuple_chi(chi_prime, d)

    def test_one_column_too_small(self):
        with pytest.raises(TooSmall):
            f_inv(make_stanley(((0, 1),)))


class TestWordPeelReference:
    """The one-scan peels of chi and chi_prime give the same polyominoes as
    the peels that rebuilt and rescanned the word at every step."""

    @pytest.mark.parametrize("size", range(0, 9))
    def test_exhaustive(self, size: int):
        for m in motzkins(size):
            assert chi(m) == word_peel_chi(m)
        for d in triple_free_dycks(size):
            assert chi_prime(d) == word_peel_chi_prime(d)

    @given(long_word("UFD"), long_word("UD"))
    @settings(max_examples=40, deadline=None)
    def test_large(self, w, v):
        m, d = make_motzkin(w), make_dyck(v)
        assert chi(m) == word_peel_chi(m)
        assert chi_prime(d) == word_peel_chi_prime(d)

    @pytest.mark.parametrize("fn, word", [
        (chi, "UFDD"), (chi, "UF"), (chi_prime, "UDD"), (chi_prime, "UUDUD")])
    def test_unbalanced_words_rejected(self, fn, word):
        path = MotzkinPath(word) if fn is chi else DyckPath(word)
        with pytest.raises(InvariantViolation):
            fn(path)


class TestParallelogramMaps:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_h_transports_area_and_columns(self, n: int):
        words = set()
        for cols in iter_raw(FamilyBound("parallelogram", "area", n)):
            q = make_parallelogram(cols)
            qs = parallelogram_stats(q)
            d = h_map(q)
            ds = dyck_stats(d)
            assert ds.sump == qs.area
            assert ds.nbp == qs.colCount
            words.add(d.word)
        assert len(words) == cached_count("parallelogram", "area", n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_psi_transports_coin_parities(self, n: int):
        for cols in iter_raw(FamilyBound("parallelogram", "area", n)):
            q = make_parallelogram(cols)
            qs = parallelogram_stats(q)
            cs = fountain_stats(psi(q))
            assert cs.e == qs.area
            assert cs.o == qs.area - qs.colCount


class TestPreimages:
    @pytest.mark.parametrize("m", range(10))
    def test_chi_prime_sources_are_the_triple_free_words(self, m: int):
        groups = preimages("chi_prime", m)
        words = [d.word for ds in groups.values() for d in ds]
        assert sorted(words) == sorted(
            w for w in iter_raw(FamilyBound("dyck", "semilength", m))
            if dyck_stats(make_dyck(w)).avoids3)
        for rows, ds in groups.items():
            assert all(chi_prime(d).rows == rows for d in ds)

    @pytest.mark.parametrize("m", range(10))
    def test_chi_sources_are_every_peakless_path(self, m: int):
        groups = preimages("chi", m)
        words = [p.word for ps in groups.values() for p in ps]
        assert len(set(words)) == len(words)
        assert len(words) == cached_count("peaklessMotzkin", "steps", m)
        assert all(len(w) == m and "UD" not in w for w in words)
        for rows, ps in groups.items():
            assert all(chi(p).rows == rows for p in ps)

    def test_collision_group(self):
        groups = preimages("chi_prime", 5)
        assert [d.word for d in groups[((0, 2), (1, 3), (3, 2))]] == [
            "UUDUDDUUDD", "UUDUUDDUDD"]


class TestTableInverse:
    def test_chi_round_trip(self):
        w = make_motzkin("UFFFD")
        target = chi(w)
        assert table_inverse("chi", target) == w

    def test_chi_prime_round_trip_small(self):
        d = make_dyck("UUDDUD")
        assert table_inverse("chi_prime", chi_prime(d)) == d

    def test_no_preimage(self):
        missed = make_stanley(((0, 2), (1, 3), (2, 3)))
        with pytest.raises(NoPreimage):
            table_inverse("chi_prime", missed)

    def test_multiple_preimages(self):
        doubled = make_stanley(((0, 2), (1, 3), (3, 2)))
        with pytest.raises(MultiplePreimages):
            table_inverse("chi_prime", doubled)

    def test_unknown_map_name(self):
        with pytest.raises(KeyError):
            table_inverse("phi", make_stanley(((0, 1),)))

    def test_size_bound(self):
        # source size 65, one past the bound: refused before any scan
        target = chi(make_motzkin("U" + "F" * 63 + "D"))
        with pytest.raises(NoPreimage):
            table_inverse("chi", target)
