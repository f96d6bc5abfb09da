"""Round trips, statistic transport, and preimage lookup for the bijections."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings, strategies as st

from stanlab import bijections, enumeration, verification
from stanlab.bijections import (
    chi,
    chi_inv,
    chi_prime,
    f_inv,
    f_map,
    h_inv,
    h_map,
    phi,
    phi_inv,
    psi,
    psi_inv,
)
from stanlab.enumeration import FamilyBound, count, iter_raw
from stanlab.errors import (
    CapExceeded,
    ContainsTriple,
    InvariantViolation,
    NotPeakless,
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
from stanlab.verification import (
    TABLE1_IDENTITIES,
    chi_prime_sources,
    preimages,
)

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
#
# Each builder takes randint(lo, hi), which hypothesis draws or a seeded
# random.Random supplies.

def build_stanley(randint, lo: int, hi: int):
    """lo-hi columns; every row but the last has two or more cells, so the
    next row can start strictly inside it and end strictly past it."""
    n = randint(lo, hi)
    s, e = 0, randint(2, 6)
    rows = [(s, e)]
    while e < n:
        s2 = randint(s + 1, e - 1)
        e2 = randint(e + 1, min(n, e + 6))
        rows.append((s2, e2 - s2))
        s, e = s2, e2
    return make_stanley(rows)


def build_fountain(randint, lo: int, hi: int):
    """lo-hi diagonals: d_m = 1 and d_j <= d_{j+1} + 1, built right to left."""
    d = [1]
    for _ in range(randint(lo - 1, hi - 1)):
        d.append(randint(1, d[-1] + 1))
    return make_fountain(d[::-1])


@st.composite
def large_stanley(draw):
    return build_stanley(lambda a, b: draw(st.integers(a, b)), 30, 60)


@st.composite
def large_fountain(draw):
    return build_fountain(lambda a, b: draw(st.integers(a, b)), 40, 60)


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
        # a third equal step is refused in "UD" words and runs are unread in
        # "UFD" words, so capping the run at 2 keeps the cache small
        run2 = min(run + 1, 2) if c == last else 1
        if left == 1:
            if h2 == 0:
                out.append(c)
        elif _next_steps(alphabet, h2, left - 1, c, run2):
            out.append(c)
    return tuple(out)


def build_word(randint, alphabet: str, lo: int, hi: int) -> str:
    """A word of length lo-hi (even for Dyck words) drawn one feasible step
    at a time."""
    length = randint(lo, hi)
    if alphabet == "UD":
        length -= length % 2
    word, h, last, run = [], 0, "", 0
    for left in range(length, 0, -1):
        steps = _next_steps(alphabet, h, left, last, run)
        c = steps[randint(0, len(steps) - 1)]
        h += (c == "U") - (c == "D")
        run = min(run + 1, 2) if c == last else 1
        last = c
        word.append(c)
    return "".join(word)


@st.composite
def long_word(draw, alphabet: str):
    return build_word(lambda a, b: draw(st.integers(a, b)), alphabet, 60, 120)


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
    return tuple_replay(reversed(ops), 1)


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
    return tuple_replay(reversed(ops), 2)


# -- h and psi against the formula and composition the shear replaced -----------

def old_h_map(q):
    """The overlap formula h_map replaced: the runs between two columns come
    from their heights less the rows they share."""
    heights = [h for _, h in q.columns]
    parts = ["U" * heights[0]]
    for i, o in enumerate(parallelogram_stats(q).overlaps):
        parts.append("D" * (heights[i] - o + 1))
        parts.append("U" * (heights[i + 1] - o + 1))
    parts.append("D" * heights[-1])
    return make_dyck("".join(parts))


def check_shear(q) -> None:
    """h_map is the overlap formula, phi_inv of it is the shear of q's
    columns, and psi is f_inv of that polyomino."""
    d = h_map(q)
    assert d == old_h_map(q)
    assert phi_inv(d).rows == tuple((b + i, h + 1)
                                    for i, (b, h) in enumerate(q.columns))
    assert psi(q) == f_inv(phi_inv(d))


def parallelograms(area: int):
    bound = FamilyBound("parallelogram", "area", area)
    return (make_parallelogram(cols) for cols in iter_raw(bound))


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
        assert len(words) == count(FamilyBound("stanley", "columns", n))

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

    @pytest.mark.parametrize("word", ["UD", "UDF", "FUUDD", "UFDUD"])
    def test_rejects_a_peak(self, word):
        # a Motzkin word, but its UD factor is a peak
        with pytest.raises(NotPeakless, match="no UD factor"):
            chi(make_motzkin(word))

    @pytest.mark.parametrize("m", range(0, 8))
    def test_bijective_onto_semiperimeter_class(self, m: int):
        images = set()
        for w in iter_raw(FamilyBound("peaklessMotzkin", "steps", m)):
            p = chi(make_motzkin(w))
            assert stanley_stats(p).sper == m + 2
            images.add(p.rows)
        assert len(images) == count(FamilyBound("stanley", "semiperimeter", m + 2))


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
        # The recursion merges these two sources; preimages lists both
        # under the shared image (TestPreimages::test_collision_group).
        a = chi_prime(make_dyck("UUDUDDUUDD"))
        b = chi_prime(make_dyck("UUDUUDDUDD"))
        assert a == b
        assert a.rows == ((0, 2), (1, 3), (3, 2))


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


# A failing large draw is reported as found: large_parallelogram() builds its
# columns in an open loop, which hypothesis shrinks poorly (one failing h/psi
# run was still shrinking after 5 minutes).
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


class TestLargeObjects:
    @given(large_fountain())
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_fountain_round_trip_and_marks(self, c):
        p = f_map(c)
        ps = stanley_stats(p)
        cs = fountain_stats(c)
        assert ps.col == cs.m + 1
        assert ps.area == 2 * cs.e - cs.o
        assert f_inv(p) == c

    @given(large_stanley())
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_polyomino_round_trip(self, p):
        assert f_map(f_inv(p)) == p

    @given(large_stanley())
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_phi_round_trip_and_table1_transport(self, p):
        d = phi(p)
        assert phi_inv(d) == p
        ps, ds = stanley_stats(p), dyck_stats(d)
        for label, attr, rhs in TABLE1_IDENTITIES:
            assert getattr(ps, attr) == rhs(ds), label

    @given(long_word("UD"))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_phi_inv_round_trip(self, w):
        d = make_dyck(w)
        assert phi(phi_inv(d)) == d

    @given(large_parallelogram())
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_h_and_psi_transport(self, q):
        qs = parallelogram_stats(q)
        ds = dyck_stats(h_map(q))
        assert (ds.sump, ds.nbp) == (qs.area, qs.colCount)
        cs = fountain_stats(psi(q))
        assert (cs.e, cs.o) == (qs.area, qs.area - qs.colCount)

    @given(large_parallelogram())
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    def test_h_and_psi_are_the_shear(self, q):
        check_shear(q)

    @given(large_parallelogram(), long_word("UD"), large_fountain())
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_h_and_psi_round_trips(self, q, w, c):
        assert h_inv(h_map(q)) == q
        assert psi_inv(psi(q)) == q
        d = make_dyck(w)
        assert h_map(h_inv(d)) == d
        assert psi(psi_inv(c)) == c

    @given(long_word("UFD"))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_chi_semiperimeter(self, w):
        assert stanley_stats(chi(make_motzkin(w))).sper == len(w) + 2

    @given(long_word("UD"))
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_chi_prime_semiperimeter_and_first_row(self, w):
        d = make_dyck(w)
        ps = stanley_stats(chi_prime(d))
        assert ps.sper == len(w) // 2 + 3
        assert ps.first == dyck_stats(d).hills + 2


class TestTupleReference:
    """f_map and f_inv, which read diagonal sizes in one pass, agree with the
    tuple rewrites of the recursive definition, one diagonal per step.  The
    seeded objects also hold chi and chi_prime to the word peels, whose rows
    are tuple rewrites; TestWordPeelReference checks them exhaustively and on
    hypothesis draws."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_f_map_exhaustive(self, m: int):
        for c in fountains(m):
            assert f_map(c) == tuple_f_map(c)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_f_inv_exhaustive(self, n: int):
        for p in stanleys(n):
            assert f_inv(p) == tuple_f_inv(p)

    @given(large_fountain(), large_stanley())
    @settings(max_examples=40, deadline=None)
    def test_f_maps_large(self, c, p):
        assert f_map(c) == tuple_f_map(c)
        assert f_inv(p) == tuple_f_inv(p)

    def test_seeded_objects_of_200_to_400(self):
        randint = random.Random(31).randint
        for _ in range(50):
            c = build_fountain(randint, 200, 400)
            p = f_map(c)
            assert p == tuple_f_map(c)
            assert f_inv(p) == c
            q = build_stanley(randint, 200, 400)
            c = f_inv(q)
            assert c == tuple_f_inv(q)
            assert f_map(c) == q
            assert chi(chi_inv(q)) == q
            m = make_motzkin(build_word(randint, "UFD", 1, 400))
            d = make_dyck(build_word(randint, "UD", 1, 400))
            assert chi(m) == word_peel_chi(m)
            assert chi_inv(chi(m)) == m
            assert chi_prime(d) == word_peel_chi_prime(d)

    def test_one_column_too_small(self):
        with pytest.raises(TooSmall):
            f_inv(make_stanley(((0, 1),)))

    def test_rows_that_read_as_no_fountain(self):
        # unvalidated: the top row of one cell reads as a last size of -1
        with pytest.raises(InvariantViolation, match="as a fountain"):
            f_inv(StanleyPolyomino(((0, 3), (1, 1))))


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
        assert len(words) == count(FamilyBound("parallelogram", "area", n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_psi_transports_coin_parities(self, n: int):
        for cols in iter_raw(FamilyBound("parallelogram", "area", n)):
            q = make_parallelogram(cols)
            qs = parallelogram_stats(q)
            cs = fountain_stats(psi(q))
            assert cs.e == qs.area
            assert cs.o == qs.area - qs.colCount

    @pytest.mark.parametrize("n", range(1, 13))
    def test_h_and_psi_are_the_shear(self, n: int):
        for q in parallelograms(n):
            check_shear(q)


class TestParallelogramInverses:
    """h_inv and psi_inv undo h and psi on every parallelogram polyomino of
    area 1-12 (12,077), h_inv is undone by h on every nonempty Dyck path of
    semilength 1-10 (23,713) and psi_inv by psi on every fountain with 1-12
    coins on even rows (12,077)."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exhaustive_from_polyominoes(self, n: int):
        for q in parallelograms(n):
            assert h_inv(h_map(q)) == q
            assert psi_inv(psi(q)) == q

    @pytest.mark.parametrize("m", range(1, 11))
    def test_exhaustive_from_paths(self, m: int):
        for d in dycks(m):
            assert h_map(h_inv(d)) == d

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exhaustive_from_fountains(self, n: int):
        bound = FamilyBound("fountain", "evenCoins", n)
        for diagonals in iter_raw(bound):
            c = make_fountain(diagonals)
            assert psi(psi_inv(c)) == c

    def test_empty_path_too_small(self):
        # its polyomino is the single cell, the one row of length 1
        with pytest.raises(TooSmall):
            h_inv(make_dyck(""))


class TestPreimages:
    @pytest.mark.parametrize("m", range(10))
    def test_chi_prime_sources_are_the_triple_free_words(self, m: int):
        groups = preimages(m)
        words = [d.word for ds in groups.values() for d in ds]
        assert sorted(words) == sorted(
            w for w in iter_raw(FamilyBound("dyck", "semilength", m))
            if dyck_stats(make_dyck(w)).avoids3)
        for rows, ds in groups.items():
            assert all(chi_prime(d).rows == rows for d in ds)

    @pytest.mark.parametrize("m", range(11))
    def test_chi_prime_sources_keep_the_dyck_order(self, m: int):
        # the pruned walk yields the filtered full enumeration, in order
        assert [d.word for d in chi_prime_sources(m)] == [
            w for w in iter_raw(FamilyBound("dyck", "semilength", m))
            if "UUU" not in w and "DDD" not in w]

    def test_chi_prime_sources_stop_at_the_cap(self, monkeypatch):
        # the cap counts the triple-free words: 82 at semilength 7, 185 at 8
        monkeypatch.setattr(enumeration, "DEFAULT_CAP", 100)
        assert sum(map(len, preimages(7).values())) == 82
        with pytest.raises(CapExceeded):
            preimages(8)

    @pytest.mark.parametrize("m", range(10))
    def test_chi_sources_are_every_peakless_path(self, monkeypatch, m: int):
        # the chi check sweeps every peakless path of each size through chi,
        # whose images should have semiperimeter steps + 2
        sweeps = []
        monkeypatch.setattr(verification, "_sweep",
                            lambda *args: sweeps.append(args) or (0, []))
        verification._chi_checks([], m)
        ((sources, sizes, forward, ok, _),) = sweeps
        assert (forward, sizes) == (chi, range(m + 1))
        words = [p.word for p in sources(m)]
        assert len(set(words)) == len(words)
        assert len(words) == count(FamilyBound("peaklessMotzkin", "steps", m))
        assert all(len(w) == m and "UD" not in w for w in words)
        assert all(ok(m, p, chi(p)) and not ok(m + 1, p, chi(p))
                   for p in sources(m))

    def test_collision_group(self):
        groups = preimages(5)
        assert [d.word for d in groups[((0, 2), (1, 3), (3, 2))]] == [
            "UUDUDDUUDD", "UUDUUDDUDD"]


class TestTableInverse:
    """Fixed chi targets go through chi_inv, whatever their size, and fixed
    chi_prime targets are read off preimages.  The names are those of the
    tests of the source-scanning inverse this replaced."""

    def test_chi_round_trip(self):
        w = make_motzkin("UFFFD")
        target = chi(w)
        assert chi_inv(target) == w

    def test_chi_prime_round_trip_small(self):
        d = make_dyck("UUDDUD")
        assert preimages(3)[chi_prime(d).rows] == [d]

    def test_no_preimage(self):
        missed = make_stanley(((0, 2), (1, 3), (2, 3)))
        assert stanley_stats(missed).sper == 5 + 3
        assert missed.rows not in preimages(5)

    def test_multiple_preimages(self):
        doubled = make_stanley(((0, 2), (1, 3), (3, 2)))
        assert len(preimages(5)[doubled.rows]) == 2

    def test_unknown_map_name(self):
        # preimages serves chi-prime alone and takes no map name
        with pytest.raises(TypeError):
            preimages("phi", 0)

    def test_size_bound(self):
        # the source has the target's semiperimeter less 2 steps
        w = make_motzkin("U" + "F" * 13 + "D")
        target = chi(w)
        assert stanley_stats(target).sper == 15 + 2
        assert chi_inv(target) == w

    def test_large_source_inverted_at_once(self):
        # too many 40-step paths to scan before the enumeration cap
        w = make_motzkin("U" + "F" * 38 + "D")
        assert chi_inv(chi(w)) == w

    def test_chi_round_trip_at_the_bound(self):
        w = make_motzkin("UFUFFDFFDUFFFD")
        assert chi_inv(chi(w)) == w


class TestChiInverse:
    """chi_inv undoes chi on every peakless path of 0-14 steps and chi on
    chi_inv for every polyomino of semiperimeter 2-16, 22,130 of each."""

    @pytest.mark.parametrize("m", range(15))
    def test_exhaustive_from_paths(self, m: int):
        for w in motzkins(m):
            assert chi_inv(chi(w)) == w

    @pytest.mark.parametrize("n", range(2, 17))
    def test_exhaustive_from_polyominoes(self, n: int):
        for r in iter_raw(FamilyBound("stanley", "semiperimeter", n)):
            p = make_stanley(r)
            assert chi(chi_inv(p)) == p

    @given(long_word("UFD"), large_stanley())
    @settings(max_examples=40, deadline=None)
    def test_large(self, w, p):
        m = make_motzkin(w)
        assert chi_inv(chi(m)) == m
        assert chi(chi_inv(p)) == p


@pytest.mark.parametrize("name, checks_of, check, pair", [
    ("phi", "_phi_checks", "staircase word map round-trips from words",
     (DyckPath("UDUD"), DyckPath("UUDD"))),
    ("f_map", "_f_checks", "coin diagonal map round-trips from polyominoes",
     (StanleyPolyomino(((0, 3),)), StanleyPolyomino(((0, 2), (1, 2))))),
], ids=["phi", "f"])
def test_round_trip_checks_count_each_miss(monkeypatch, name, checks_of,
                                           check, pair):
    # the map swaps the images of two objects, so neither comes back
    real = getattr(bijections, name)
    swap = {pair[0]: pair[1], pair[1]: pair[0]}

    def swapped(x):
        y = real(x)
        return swap.get(y, y)

    monkeypatch.setattr(bijections, name, swapped)
    checks = []
    getattr(verification, checks_of)(checks, 5)
    (got,) = (c for c in checks if c["name"] == check)
    total = int(got["expected"].split()[0])
    assert (got["status"], got["actual"]) == ("fail", f"{total - 2} round-trips")


TWO_BY_ONE, ONE_BY_TWO = (make_parallelogram(((0, 2),)),
                          make_parallelogram(((0, 1), (0, 1))))


@pytest.mark.parametrize("name, checks_of, size, a, b, swap, check, actual", [
    ("phi", "_phi_checks", 5, make_stanley(((0, 3),)),
     make_stanley(((0, 2), (1, 2))), True,
     "staircase word map round-trips from polyominoes", "21 round-trips"),
    ("phi", "_phi_checks", 5, make_stanley(((0, 3),)),
     make_stanley(((0, 2), (1, 2))), False,
     "staircase word map is injective on polyominoes", 22),
    ("chi", "_chi_checks", 5, make_motzkin("FFF"), make_motzkin("UFD"), True,
     "flat-step map carries steps to semiperimeter and axis landings to the "
     "first row", "2 mismatches"),
    ("chi", "_chi_checks", 5, make_motzkin("FFF"), make_motzkin("UFD"), False,
     "flat-step map is bijective at each size",
     "steps 3: 2 paths, 1 images, 2 polyominoes"),
    ("chi_prime", "_chi_prime_checks", 4, make_dyck("UDUD"), make_dyck("UUDD"),
     True, "triple-run-free map carries semilength to semiperimeter and hills "
     "to the first row", "2 mismatches"),
    ("chi_prime", "_chi_prime_checks", 4, make_dyck("UDUD"), make_dyck("UUDD"),
     False, "triple-run-free map is injective at each source size",
     "semilength 2: 2 words, 1 distinct images"),
    ("chi_prime", "_chi_prime_checks", 4, make_dyck("UDUD"), make_dyck("UUDD"),
     False, "triple-run-free map image counts match semiperimeter counts",
     "semilength 2: 1 images, 2 polyominoes"),
    ("f_map", "_f_checks", 5, make_fountain((1, 1)), make_fountain((2, 1)),
     True, "coin diagonal map round-trips with the stated column and area "
     "marks", "62 clean round-trips"),
    ("h_map", "_h_psi_checks", 5, TWO_BY_ONE, ONE_BY_TWO, True,
     "boundary word map sends area to peak height sum and columns to peaks",
     "2 mismatches"),
    ("h_map", "_h_psi_checks", 5, TWO_BY_ONE, ONE_BY_TWO, False,
     "boundary word map is injective per area", False),
    ("psi", "_h_psi_checks", 5, TWO_BY_ONE, ONE_BY_TWO, True,
     "composed fountain map lands on the stated coin counts", "2 mismatches"),
    ("psi", "_h_psi_checks", 5, TWO_BY_ONE, ONE_BY_TWO, False,
     "composed fountain map is bijective onto coin-count classes",
     "area 2: class counts differ"),
], ids=["phi-from-polyominoes", "phi-injective", "chi-marks", "chi-bijective",
        "chi-prime-marks", "chi-prime-injective", "chi-prime-counts",
        "f-marks", "h-marks", "h-injective", "psi-marks", "psi-classes"])
def test_every_map_check_can_fail(monkeypatch, name, checks_of, size, a, b,
                                  swap, check, actual):
    # the map swaps the images of two sources of one size, or sends the
    # first to the second's image; the check names exactly what broke
    real = getattr(bijections, name)
    image_a, image_b = real(a), real(b)
    change = {image_a: image_b}
    if swap:
        change[image_b] = image_a

    def broken(x):
        y = real(x)
        return change.get(y, y)

    monkeypatch.setattr(bijections, name, broken)
    checks = []
    getattr(verification, checks_of)(checks, size)
    (got,) = (c for c in checks if c["name"] == check)
    assert (got["status"], got["actual"]) == ("fail", actual)


def test_h_psi_checks_sweep_every_area_asked_for(monkeypatch):
    # each area's fountain classes are counted once, so the areas counted
    # are the areas swept; the walks are stubbed out to keep this cheap
    areas = []

    def recording(bound, name):
        areas.append(bound.value)
        return {}

    monkeypatch.setattr(verification, "enumerate_family", lambda bound: ())
    monkeypatch.setattr(verification, "count_grouped", recording)
    checks = []
    verification._h_psi_checks(checks, 13)
    assert areas == list(range(1, 14))
    assert [c["status"] for c in checks] == ["pass"] * 4
