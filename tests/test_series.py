import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanlab.errors import (
    NotInvertible,
    OutOfRange,
    Unstable,
    UnsoundSubstitution,
    VariableMismatch,
)
from stanlab.series import (
    SeriesRing,
    collapse,
    continued_fraction,
    derivative,
    div_monomial,
    invert,
    pochhammer,
    series_json,
    solve_fixed_point,
    substitute_monomial,
)


def ring2(order=8):
    return SeriesRing(("x", "y"), grade="x", order=order)


class TestArithmetic:
    def test_add_mul(self):
        r = ring2()
        x, y = r.gens()
        s = (x + y * x) * (x - y * x)
        assert s.coeff({"x": 2}) == 1
        assert s.coeff({"x": 2, "y": 2}) == -1
        assert s.coeff({"x": 2, "y": 1}) == 0

    def test_truncation_drops_high_grade(self):
        r = ring2(order=3)
        x, _ = r.gens()
        s = (r.one() + x) ** 5
        assert s.coeff({"x": 3}) == 10
        assert s.coeff({"x": 4}) == 0

    def test_pow_matches_repeated_mul(self):
        r = ring2(order=6)
        x, y = r.gens()
        base = r.one() + x + x * y
        assert (base ** 3).terms == (base * base * base).terms

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(-3, 3)), max_size=6),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(-3, 3)), max_size=6))
    def test_mul_against_dict_reference(self, ta, tb):
        r = ring2(order=4)
        a = sum((r.monomial(c, x=i, y=j) for i, j, c in ta), r.zero())
        b = sum((r.monomial(c, x=i, y=j) for i, j, c in tb), r.zero())
        want: dict = {}
        for i, j, c in ta:
            for k, l, d in tb:
                if i + k <= 4 and c and d:
                    e = (i + k, j + l)
                    want[e] = want.get(e, 0) + c * d
        want = {e: v for e, v in want.items() if v}
        assert {e: int(c) for e, c in (a * b).terms.items()} == want


class TestRing:
    def test_grade_must_be_a_variable(self):
        with pytest.raises(VariableMismatch):
            SeriesRing(("x", "y"), grade="z", order=4)

    def test_laurent_variables_must_be_variables(self):
        with pytest.raises(VariableMismatch):
            SeriesRing(("x", "y"), grade="x", order=4, laurent=("z",))

    def test_equal_settings_make_one_ring(self):
        a = ring2(order=5).var("x")
        b = ring2(order=5).var("y")
        assert (a + b).ring == a.ring
        assert (a * b).terms == {(1, 1): 1}

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_different_orders_rejected(self, op):
        a = ring2(order=4).var("x")
        b = ring2(order=6).var("x")
        with pytest.raises(VariableMismatch):
            a + b if op == "add" else a * b


class TestInvert:
    def test_geometric(self):
        r = ring2()
        x, _ = r.gens()
        s = invert(r.one() - x)
        assert all(s.coeff({"x": n}) == 1 for n in range(9))

    def test_inverse_multiplies_to_one(self):
        r = ring2()
        x, y = r.gens()
        a = r.constant(2) + x * y + 3 * x * x
        assert (a * invert(a)).terms == r.one().terms

    def test_zero_constant_rejected(self):
        r = ring2()
        x, _ = r.gens()
        with pytest.raises(NotInvertible):
            invert(x)

    def test_nongrade_constant_rejected(self):
        # grade-zero part 1 + y is not a single monomial
        r = ring2()
        x, y = r.gens()
        with pytest.raises(NotInvertible):
            invert(r.one() + y + x)

    def test_negative_grade_rejected(self):
        # a Laurent grade variable may go below grade 0, where no
        # grade-by-grade expansion exists
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("x",))
        with pytest.raises(NotInvertible):
            invert(r.one() + r.monomial(1, x=-1))


def _dict_mul(a: dict, b: dict, gi: int, order: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if e[gi] <= order:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _geometric_inverse(terms: dict, gi: int, order: int) -> dict:
    """Reference inverse on plain dicts: divide by the constant monomial,
    then sum the powers (-t)**0 .. (-t)**order."""
    (e0, c0), = ((e, c) for e, c in terms.items() if e[gi] == 0)
    inv_c = {tuple(-x for x in e0): Fraction(1) / c0}
    zero = (0,) * len(e0)
    minus_t = {e: -c for e, c in _dict_mul(terms, inv_c, gi, order).items()
               if e != zero}
    total = {zero: Fraction(1)}
    power = {zero: Fraction(1)}
    for _ in range(order):
        power = _dict_mul(power, minus_t, gi, order)
        for e, c in power.items():
            total[e] = total.get(e, 0) + c
    return _dict_mul(total, inv_c, gi, order)


constants = st.sampled_from([1, -1, 3, Fraction(-2, 5), Fraction(7, 3)])
small_coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3)])


class TestInvertAgainstGeometricReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), constants, st.integers(-2, 2), st.data())
    def test_matches_geometric_expansion(self, nvars, c0, laurent_exp, data):
        # grade x; y is Laurent, so the constant monomial may carry y**k
        names = ("x", "y", "w")[:nvars]
        order = 4
        r = SeriesRing(names, grade="x", order=order, laurent=("y",))
        other = st.tuples(st.integers(1, order), st.integers(-2, 2),
                          st.integers(0, 2), small_coeffs)
        terms = {(0, laurent_exp, 0)[:nvars]: c0}
        for gx, ey, ew, c in data.draw(st.lists(other, max_size=5)):
            e = (gx, ey, ew)[:nvars]
            terms[e] = terms.get(e, 0) + c
        terms = {e: c for e, c in terms.items() if c}
        a = r.zero()
        for e, c in terms.items():
            a = a + r.monomial(c, **dict(zip(names, e)))
        inv = invert(a)
        want = _geometric_inverse(a.terms, 0, order)
        assert inv.terms == want
        assert all(type(c) is int or c.denominator != 1
                   for c in inv.terms.values())
        assert (a * inv).terms == r.one().terms


def _capped_pair(cap: int):
    names = ("x", "y", "w")
    free = SeriesRing(names, grade="x", order=4)
    return free, SeriesRing(names, grade="x", order=4, caps={"y": cap})


def _series(ring, terms):
    return sum((ring.monomial(c, **dict(zip(ring.names, e)))
                for e, c in terms), ring.zero())


def _under_cap(terms: dict, cap: int) -> dict:
    return {e: c for e, c in terms.items() if e[1] <= cap}


cap_terms = st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                         st.integers(0, 2)), small_coeffs),
                     max_size=6)


class TestCaps:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), cap_terms, cap_terms)
    def test_mul_equals_uncapped_then_dropped(self, cap, ta, tb):
        free, capped = _capped_pair(cap)
        want = _series(free, ta) * _series(free, tb)
        got = _series(capped, ta) * _series(capped, tb)
        assert got.terms == _under_cap(want.terms, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), constants, cap_terms)
    def test_invert_equals_uncapped_then_dropped(self, cap, c0, ta):
        # the grade-constant part of an invertible series is one constant
        free, capped = _capped_pair(cap)
        ta = [((max(gx, 1), ey, ew), c) for (gx, ey, ew), c in ta]
        want = invert(c0 + _series(free, ta))
        got = invert(c0 + _series(capped, ta))
        assert got.terms == _under_cap(want.terms, cap)

    @pytest.mark.parametrize("caps, laurent, err", [
        ({"x": 2}, (), VariableMismatch),
        ({"y": 2}, ("y",), VariableMismatch),
        ({"v": 2}, (), VariableMismatch),
        ({"y": -1}, (), OutOfRange),
    ])
    def test_ring_refuses_cap(self, caps, laurent, err):
        with pytest.raises(err):
            SeriesRing(("x", "y"), grade="x", order=4, laurent=laurent,
                       caps=caps)

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_capped_and_uncapped_rings_do_not_mix(self, op):
        free, capped = _capped_pair(2)
        a, b = free.var("y"), capped.var("y")
        with pytest.raises(VariableMismatch):
            a + b if op == "add" else a * b

    def test_operations_that_lower_a_capped_exponent_rejected(self):
        _, capped = _capped_pair(2)
        x, y, w = capped.gens()
        s = x * y + w
        with pytest.raises(UnsoundSubstitution):
            substitute_monomial(s, "y", 1)
        with pytest.raises(UnsoundSubstitution):
            derivative(s, "y")
        with pytest.raises(UnsoundSubstitution):
            div_monomial(s * y, {"y": 1})
        with pytest.raises(UnsoundSubstitution):
            collapse(s, {"x": 1, "y": 1}, "t")
        assert substitute_monomial(s, "y", 0).terms == w.terms


class TestIntegerCoefficients:
    def test_integral_coefficients_are_ints(self):
        r = ring2()
        x, y = r.gens()
        s = invert(r.one() - x - x * y) * (r.constant(Fraction(1, 2)) * 2)
        assert s.terms
        assert all(type(c) is int for c in s.terms.values())
        assert type(r.monomial(Fraction(6, 3), x=1).coeff({"x": 1})) is int

    def test_inverse_of_integer_constant_is_exact(self):
        r = ring2()
        inv = invert(r.constant(3) + r.var("x"))
        assert inv.coeff({}) == Fraction(1, 3)
        assert all(type(c) is Fraction for c in inv.terms.values())

    def test_negative_power_substitution_is_exact(self):
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
        s = substitute_monomial(r.monomial(1, x=1, y=-1), "y", 2)
        c = s.coeff({"x": 1})
        assert type(c) is Fraction and c == Fraction(1, 2)

    def test_json_numbers_and_strings(self):
        r = ring2(order=3)
        x, _ = r.gens()
        s = invert(r.one() - 2 * x) + r.constant(Fraction(1, 3))
        text = json.dumps(series_json(s), separators=(",", ":"))
        assert '{"e":[1,0],"c":2}' in text
        assert '{"e":[0,0],"c":"4/3"}' in text


class TestSubstitution:
    def test_specialize_to_one(self):
        r = ring2()
        x, y = r.gens()
        s = x + x * y + x * y * y
        assert substitute_monomial(s, "y", 1).coeff({"x": 1}) == 3

    def test_zero_kills_positive_powers(self):
        r = ring2()
        x, y = r.gens()
        s = substitute_monomial(x + x * y, "y", 0)
        assert s.terms == x.terms

    def test_negative_power_sent_to_zero_rejected(self):
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
        with pytest.raises(UnsoundSubstitution):
            substitute_monomial(r.monomial(1, x=1, y=-1), "y", 0)

    def test_grade_decrease_rejected(self):
        r = ring2()
        x, y = r.gens()
        with pytest.raises(UnsoundSubstitution):
            substitute_monomial(x * x * y, "x", 1)

    def test_unknown_variable_rejected(self):
        r = ring2()
        x, _ = r.gens()
        with pytest.raises(VariableMismatch):
            substitute_monomial(x, "z", 1)


class TestDerivativeAndDivision:
    def test_derivative(self):
        r = ring2()
        x, y = r.gens()
        s = derivative(x * y * y + 2 * x * y, "y")
        assert s.coeff({"x": 1, "y": 1}) == 2
        assert s.coeff({"x": 1}) == 2

    def test_div_monomial_exact(self):
        r = ring2()
        x, y = r.gens()
        s = div_monomial(2 * x * x * y, {"y": 1})
        assert s.terms == {(2, 0): 2}

    def test_div_monomial_requires_divisibility(self):
        r = ring2()
        x, y = r.gens()
        with pytest.raises(NotInvertible):
            div_monomial(x + y * x, {"y": 1})

    def test_div_monomial_by_grade_rejected(self):
        # [x^3] of (1/(1-x) - 1)/x is 1, but the order-3 input lacks x^4
        r = SeriesRing(("x",), grade="x", order=3)
        x = r.var("x")
        with pytest.raises(UnsoundSubstitution):
            div_monomial(invert(r.one() - x) - r.one(), {"x": 1})

    def test_div_monomial_raising_the_grade_is_sound(self):
        # a negative shift multiplies by x*y
        r = ring2(order=3)
        s = div_monomial(invert(r.one() - r.var("x")), {"x": -1, "y": -1})
        assert s.terms == {(1, 1): 1, (2, 1): 1, (3, 1): 1}

    def test_derivative_in_grade_rejected(self):
        # [x^3] of d/dx 1/(1-x) is 4, but the order-3 input lacks x^4
        r = SeriesRing(("x",), grade="x", order=3)
        x = r.var("x")
        with pytest.raises(UnsoundSubstitution):
            derivative(invert(r.one() - x), "x")


class TestCollapse:
    def test_weighted_sum_of_exponents(self):
        r = SeriesRing(("p", "q"), grade="q", order=6)
        p, q = r.gens()
        s = p * q + p * p * q
        t = collapse(s, {"q": 1, "p": 1}, "z")
        assert t.coeff({"z": 2}) == 1
        assert t.coeff({"z": 3}) == 1

    def test_dropping_graded_variable_is_unsound(self):
        r = SeriesRing(("p", "q"), grade="q", order=6)
        p, q = r.gens()
        with pytest.raises(UnsoundSubstitution):
            collapse(p * q, {"p": 1}, "w")


class TestFixedPointAndPochhammer:
    def test_catalan_fixed_point(self):
        r = SeriesRing(("x",), grade="x", order=10)
        x = r.var("x")
        c = solve_fixed_point(lambda w: r.one() + x * w * w, r.one())
        assert [int(c.coeff({"x": n})) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_pochhammer_telescopes(self):
        r = SeriesRing(("z",), grade="z", order=9)
        z = r.var("z")
        prod = pochhammer(z, z, 3)
        want = (r.one() - z) * (r.one() - z * z) * (r.one() - z ** 3)
        assert prod.terms == want.terms


class TestContinuedFraction:
    def test_small_coefficients(self):
        r = SeriesRing(("q", "v"), grade="q", order=7)
        q, v = r.gens()

        def level(k):
            return r.one() + v - r.monomial(1, q=k, v=k)

        a = continued_fraction(level, v, depth=9)
        assert a.coeff({"q": 1}) == 1
        assert a.coeff({"q": 2}) == 2
        assert a.coeff({"q": 3}) == 4
        # the lowest-weight profile with a raised valley
        assert a.coeff({"q": 4, "v": 1}) == 1

    def test_depth_too_small_is_unstable(self):
        r = SeriesRing(("q", "v"), grade="q", order=7)
        q, v = r.gens()

        def level(k):
            return r.one() + v - r.monomial(1, q=k, v=k)

        with pytest.raises(Unstable):
            continued_fraction(level, v, depth=1)

    @pytest.mark.parametrize("depth", [0, -2])
    def test_depth_below_one_is_out_of_range(self, depth):
        r = SeriesRing(("q", "v"), grade="q", order=4)
        v = r.var("v")
        with pytest.raises(OutOfRange):
            continued_fraction(lambda k: r.one() + v, v, depth=depth)

    def test_numerator_needs_coefficient_one(self):
        r = SeriesRing(("q", "v"), grade="q", order=4)
        v = r.var("v")

        def level(k):
            return r.one() + 2 * v - r.monomial(1, q=k, v=k)

        with pytest.raises(NotInvertible):
            continued_fraction(level, 2 * v, depth=8)

    def test_stable_depth_is_idempotent(self):
        r = SeriesRing(("q", "v"), grade="q", order=6)
        v = r.var("v")

        def level(k):
            return r.one() + v - r.monomial(1, q=k, v=k)

        a = continued_fraction(level, v, depth=8)
        b = continued_fraction(level, v, depth=12)
        assert a.terms == b.terms


class TestJson:
    def test_integer_coefficients_stay_numbers(self):
        r = ring2(order=3)
        x, _ = r.gens()
        data = series_json(r.one() + 2 * x)
        assert {tuple(t["e"]): t["c"] for t in data["terms"]} == {
            (0, 0): 1, (1, 0): 2}

    def test_fractions_become_strings(self):
        r = ring2(order=3)
        data = series_json(r.constant(Fraction(1, 2)))
        assert data["terms"][0]["c"] == "1/2"
