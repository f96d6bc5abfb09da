from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanlab import series
from stanlab.errors import (
    CancellationFailure,
    NotInteger,
    NotInvertible,
    OutOfRange,
    Unstable,
    UnsoundSubstitution,
    VariableMismatch,
)
from stanlab.series import (
    SLOT_BITS,
    SeriesRing,
    collapse,
    continued_fraction,
    derivative,
    divide,
    evaluate_at_one,
    lift,
    pochhammer,
    series_json,
)


def ring2(order=8):
    return SeriesRing(("x", "y"), grade="x", order=order)


def fixed_point(phi, w):
    """phi iterated from w until it gives w back, within order + 2 rounds."""
    for _ in range(w.ring.order + 2):
        if (nxt := phi(w)) == w:
            return w
        w = nxt
    raise AssertionError("no fixed point")


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

    def test_negative_order_rejected(self):
        # its one() would be the zero series
        with pytest.raises(OutOfRange):
            SeriesRing(("x", "y"), grade="x", order=-1)

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
        s = divide(r.one(), r.one() - x)
        assert all(s.coeff({"x": n}) == 1 for n in range(9))

    def test_inverse_multiplies_to_one(self):
        r = ring2()
        x, y = r.gens()
        a = r.constant(-1) + x * y + 3 * x * x
        assert (a * divide(r.one(), a)).terms == r.one().terms

    @pytest.mark.parametrize("c0", [2, -3])
    def test_non_unit_constant_rejected(self, c0):
        # over the integers 1 / (c0 + x) exists only for c0 = 1 or -1
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
        for const in (r.constant(c0), r.monomial(c0, y=1)):
            with pytest.raises(NotInvertible):
                divide(r.one(), const + r.var("x"))

    def test_zero_constant_rejected(self):
        r = ring2()
        x, _ = r.gens()
        with pytest.raises(NotInvertible):
            divide(r.one(), x)

    def test_nongrade_constant_rejected(self):
        # grade-zero part 1 + y is not a single monomial
        r = ring2()
        x, y = r.gens()
        with pytest.raises(NotInvertible):
            divide(r.one(), r.one() + y + x)

    def test_negative_grade_rejected(self):
        # a Laurent grade variable may go below grade 0, where no
        # grade-by-grade expansion exists
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("x",))
        with pytest.raises(NotInvertible):
            divide(r.one(), r.one() + r.monomial(1, x=-1))


def _refused_denominators():
    """Denominators that divide refuses, each with NotInvertible."""
    r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
    x, y = r.gens()
    lx = SeriesRing(("x", "y"), grade="x", order=4, laurent=("x",))
    return {
        "constant 2": r.constant(2) + x,
        "monomial -3y": r.monomial(-3, y=1) + x,
        "zero constant": x,
        "zero": r.zero(),
        "two grade-0 terms": r.one() + y + x,
        "non-Laurent monomial": ring2().var("y") + ring2().var("x"),
        "negative grade": lx.one() + lx.monomial(1, x=-1),
    }


class TestDivide:
    def test_geometric_quotient(self):
        r = ring2()
        x, y = r.gens()
        q = divide(y + x, r.one() - x)
        assert q.terms == ({(n, 1): 1 for n in range(9)}
                           | {(n, 0): 1 for n in range(1, 9)})

    def test_numerator_below_grade_zero(self):
        # a Laurent grade lets the quotient start below grade 0
        r = SeriesRing(("x",), grade="x", order=4, laurent=("x",))
        q = divide(r.monomial(1, x=-2), r.one() - r.var("x"))
        assert q.terms == {(n,): 1 for n in range(-2, 5)}

    @pytest.mark.parametrize("case", sorted(_refused_denominators()))
    def test_refuses_what_invert_refuses(self, case):
        den = _refused_denominators()[case]
        with pytest.raises(NotInvertible):
            divide(den.ring.one(), den)
        with pytest.raises(NotInvertible):
            divide(den.ring.one() + den.ring.var("x"), den)

    @pytest.mark.parametrize("other", [ring2(order=6), SeriesRing(
        ("x", "y"), grade="x", order=4, caps={"y": 2})])
    def test_rings_must_match(self, other):
        r = ring2(order=4)
        with pytest.raises(VariableMismatch):
            divide(r.var("y"), other.one())
        with pytest.raises(VariableMismatch):
            divide(other.var("y"), r.one())


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
    inv_c = {tuple(-x for x in e0): c0}  # 1 / c0 is c0 for c0 = 1 or -1
    zero = (0,) * len(e0)
    minus_t = {e: -c for e, c in _dict_mul(terms, inv_c, gi, order).items()
               if e != zero}
    total = {zero: 1}
    power = {zero: 1}
    for _ in range(order):
        power = _dict_mul(power, minus_t, gi, order)
        for e, c in power.items():
            total[e] = total.get(e, 0) + c
    return _dict_mul(total, inv_c, gi, order)


constants = st.sampled_from([1, -1])
small_coeffs = st.sampled_from([1, -1, 2, -3, 5, -4])


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
        inv = divide(r.one(), a)
        want = _geometric_inverse(a.terms, 0, order)
        assert inv.terms == want
        assert all(type(c) is int for c in inv.terms.values())
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
        want = divide(free.one(), c0 + _series(free, ta))
        got = divide(capped.one(), c0 + _series(capped, ta))
        assert got.terms == _under_cap(want.terms, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), constants, cap_terms, cap_terms)
    def test_divide_equals_uncapped_then_dropped(self, cap, c0, tn, ta):
        free, capped = _capped_pair(cap)
        ta = [((max(gx, 1), ey, ew), c) for (gx, ey, ew), c in ta]
        want = divide(_series(free, tn), c0 + _series(free, ta))
        got = divide(_series(capped, tn), c0 + _series(capped, ta))
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
            evaluate_at_one(s, "y")
        with pytest.raises(UnsoundSubstitution):
            derivative(s, "y")
        with pytest.raises(UnsoundSubstitution):
            divide(s * y, y)
        with pytest.raises(UnsoundSubstitution):
            collapse(s, {"x": 1, "y": 1}, "t")
        assert s.cofactor("y", 0).terms == w.terms


class TestIntegerCoefficients:
    def test_integral_coefficients_are_ints(self):
        r = ring2()
        x, y = r.gens()
        s = divide(r.one(), r.one() - x - x * y) * (r.constant(-3) * 2)
        assert s.terms
        assert all(type(c) is int for c in s.terms.values())
        assert type(r.monomial(6, x=1).coeff({"x": 1})) is int

    def test_inverse_of_integer_constant_is_exact(self):
        r = ring2()
        inv = divide(r.one(), r.constant(-1) + r.var("x"))
        assert inv.terms == {(n, 0): -1 for n in range(9)}
        assert all(type(c) is int for c in inv.terms.values())

    def test_negative_power_substitution_is_exact(self):
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
        s = evaluate_at_one(r.monomial(3, x=1, y=-3), "y")
        c = s.coeff({"x": 1})
        assert type(c) is int and c == 3

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4, 2), 0.5, 1.0,
                                     True])
    def test_non_int_scalar_refused(self, bad):
        r = ring2()
        x, y = r.gens()
        uses = [lambda: r.constant(bad), lambda: r.monomial(bad, x=1),
                lambda: x + bad, lambda: bad + x, lambda: x - bad,
                lambda: bad - x, lambda: x * bad, lambda: bad * x]
        for use in uses:
            with pytest.raises(NotInteger):
                use()


def _substitute(a, var: str, c0: int) -> dict:
    """Reference: var evaluated at c0 in 0 or 1 on exponent tuples, as the
    series code did before packed keys; setting a variable to 0 drops its
    positive powers and refuses a negative one."""
    ring = a.ring
    vi = ring.names.index(var)
    out: dict = {}
    for e, c in a.terms.items():
        k = e[vi]
        if k and c0 == 0:
            if k > 0:
                continue
            raise UnsoundSubstitution("negative power sent to zero")
        if k > 0 and ring._bounded(var):
            raise UnsoundSubstitution(f"lowers the degree in {var}")
        ne = e[:vi] + (0,) + e[vi + 1:]
        out[ne] = out.get(ne, 0) + c
    return {e: c for e, c in out.items() if c}


# grade x, Laurent y, w capped or not
laurent_terms = st.lists(st.tuples(st.tuples(st.integers(0, 4),
                                             st.integers(-3, 3),
                                             st.integers(0, 2)), small_coeffs),
                         max_size=6)


def _laurent_ring(capped: bool):
    return SeriesRing(("x", "y", "w"), grade="x", order=4, laurent=("y",),
                      caps={"w": 2} if capped else {})


class TestSubstitution:
    def test_specialize_to_one(self):
        r = ring2()
        x, y = r.gens()
        s = x + x * y + x * y * y
        assert evaluate_at_one(s, "y").coeff({"x": 1}) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("x", "y", "w")), st.booleans(), laurent_terms)
    def test_evaluate_at_one_matches_tuple_reference(self, var, capped, terms):
        a = _series(_laurent_ring(capped), terms)
        try:
            want = _substitute(a, var, 1)
        except UnsoundSubstitution:
            with pytest.raises(UnsoundSubstitution):
                evaluate_at_one(a, var)
            return
        assert evaluate_at_one(a, var).terms == want

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), laurent_terms)
    def test_cofactor_zero_is_evaluation_at_zero(self, capped, terms):
        # w is not Laurent, so nothing is refused at w = 0
        a = _series(_laurent_ring(capped), terms)
        assert a.cofactor("w", 0).terms == _substitute(a, "w", 0)

    @pytest.mark.parametrize("capped", [False, True])
    def test_negative_exponent_check_names_the_term(self, capped):
        r = _laurent_ring(capped)
        ok = r.monomial(1, x=1, w=2) + r.monomial(3, y=2)
        ok.assert_no_negative_exponents("ok")
        with pytest.raises(CancellationFailure, match=r"^form kept a negative "
                           r"exponent: \{'x': 1, 'y': -1, 'w': 2\}$"):
            (ok + r.monomial(1, x=1, y=-1, w=2)).assert_no_negative_exponents(
                "form")

    def test_zero_kills_positive_powers(self):
        r = ring2()
        x, y = r.gens()
        s = (x + x * y).cofactor("y", 0)
        assert s.terms == x.terms

    def test_grade_decrease_rejected(self):
        r = ring2()
        x, y = r.gens()
        with pytest.raises(UnsoundSubstitution):
            evaluate_at_one(x * x * y, "x")

    def test_unknown_variable_rejected(self):
        r = ring2()
        x, _ = r.gens()
        with pytest.raises(VariableMismatch):
            evaluate_at_one(x, "z")

    @pytest.mark.parametrize("view", [
        lambda a, var: a.cofactor(var, 0), derivative],
        ids=["cofactor", "derivative"])
    def test_unknown_variable_rejected_by_every_view(self, view):
        x, _ = ring2().gens()
        with pytest.raises(VariableMismatch,
                           match="^'w' not a series variable$"):
            view(x, "w")


class TestDerivativeAndDivision:
    def test_derivative(self):
        r = ring2()
        x, y = r.gens()
        s = derivative(x * y * y + 2 * x * y, "y")
        assert s.coeff({"x": 1, "y": 1}) == 2
        assert s.coeff({"x": 1}) == 2

    def test_div_monomial_exact(self):
        # y is neither Laurent nor capped: dividing by it is an exact shift
        r = ring2()
        x, y = r.gens()
        s = divide(2 * x * x * y, y)
        assert s == 2 * x * x

    def test_div_monomial_requires_divisibility(self):
        r = ring2()
        x, y = r.gens()
        with pytest.raises(NotInvertible):
            divide(x + x * y, y)

    def test_div_monomial_by_grade_rejected(self):
        # [x^3] of (1/(1-x) - 1)/x is 1, but the order-3 input lacks x^4;
        # x has no grade-constant part, so no division by it is offered
        r = SeriesRing(("x",), grade="x", order=3)
        x = r.var("x")
        with pytest.raises(NotInvertible):
            divide(divide(r.one(), r.one() - x) - r.one(), x)

    def test_derivative_in_grade_rejected(self):
        # [x^3] of d/dx 1/(1-x) is 4, but the order-3 input lacks x^4
        r = SeriesRing(("x",), grade="x", order=3)
        x = r.var("x")
        with pytest.raises(UnsoundSubstitution):
            derivative(divide(r.one(), r.one() - x), "x")


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

    def test_positive_weight_on_a_laurent_variable_is_unsound(self):
        # the dropped x**(n+1) y**-(n+1) would collapse to t**0 at every
        # order n, so the result would depend on the order
        r = SeriesRing(("x", "y"), grade="x", order=2, laurent=("y",))
        x, y = r.var("x"), r.monomial(1, y=-1)
        s = divide(r.one(), r.one() - x * y)
        with pytest.raises(UnsoundSubstitution):
            collapse(s, {"x": 1, "y": 1}, "t")
        assert collapse(s, {"x": 1}, "t").terms == {(0,): 1, (1,): 1, (2,): 1}


class TestRefusals:
    """Refusals at the edges of the ring, each with its typed error."""

    def test_negative_exponent_on_a_plain_variable(self):
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
        assert r.monomial(1, y=-1).terms == {(0, -1): 1}
        with pytest.raises(NotInvertible, match="non-Laurent variable 'x'"):
            r.monomial(1, x=-1)

    def test_monomial_in_an_unknown_variable(self):
        with pytest.raises(VariableMismatch, match=r"unknown variables \['w'\]"):
            ring2().monomial(1, w=1)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_power(self, n):
        s = 1 - ring2().var("x")
        with pytest.raises(NotInvertible, match="use divide"):
            s ** n

    @pytest.mark.parametrize("ring, term, weights, error, message", [
        (ring2(), {}, {"w": 1, "x": 1}, VariableMismatch,
         r"unknown collapse variables \['w'\]"),
        (ring2(), {}, {"x": 1, "y": -1}, UnsoundSubstitution,
         "weights must be nonnegative"),
        (SeriesRing(("x", "y"), grade="x", order=4, laurent=("x",)), {"x": -1},
         {"x": 1}, UnsoundSubstitution, "negative exponent"),
    ], ids=["unknown", "negative-weight", "negative-result"])
    def test_collapse_refusals(self, ring, term, weights, error, message):
        with pytest.raises(error, match=message):
            collapse(ring.monomial(1, **term), weights, "t")


class TestFixedPointAndPochhammer:
    def test_catalan_fixed_point(self):
        r = SeriesRing(("x",), grade="x", order=10)
        x = r.var("x")
        c = fixed_point(lambda w: r.one() + x * w * w, r.one())
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

        a = continued_fraction(level, v)
        assert a.coeff({"q": 1}) == 1
        assert a.coeff({"q": 2}) == 2
        assert a.coeff({"q": 3}) == 4
        # the lowest-weight profile with a raised valley
        assert a.coeff({"q": 4, "v": 1}) == 1

    @staticmethod
    def count_divisions(monkeypatch) -> list:
        calls = []
        real = series.divide

        def counted(num, den):
            calls.append(den)
            return real(num, den)

        monkeypatch.setattr(series, "divide", counted)
        return calls

    def test_stable_fraction_evaluates_once(self, monkeypatch):
        # the depth + 1 tail is 1, so the depth + 1 fraction is the depth
        # one: order + 3 divisions, not 2 order + 5
        r = SeriesRing(("p", "q", "v"), grade="q", order=20)
        v = r.var("v")

        def level(k):
            return r.one() + v - r.monomial(1, p=1, q=k, v=k)

        calls = self.count_divisions(monkeypatch)
        a = continued_fraction(level, v)
        assert len(calls) == 23
        monkeypatch.undo()
        # against the two full evaluations it replaces
        for depth in (22, 23):
            assert a == series._cf_eval(level, v, depth, r.one())

    def test_depth_too_small_is_unstable(self, monkeypatch):
        # level k has grade k // 4: the depth order + 2 is too shallow, and
        # the depth + 1 tail is not 1, so both fractions are evaluated
        r = SeriesRing(("q", "v"), grade="q", order=7)
        v = r.var("v")

        def level(k):
            return r.one() + v - r.monomial(1, q=max(1, k // 4), v=k)

        calls = self.count_divisions(monkeypatch)
        with pytest.raises(Unstable):
            continued_fraction(level, v)
        assert len(calls) == 2 * r.order + 5

    def test_numerator_needs_coefficient_one(self):
        r = SeriesRing(("q", "v"), grade="q", order=4)
        v = r.var("v")

        def level(k):
            return r.one() + 2 * v - r.monomial(1, q=k, v=k)

        with pytest.raises(NotInvertible):
            continued_fraction(level, 2 * v)


class TestLift:
    def test_keeps_the_terms_at_a_higher_order(self):
        low, high = ring2(order=3), ring2(order=9)
        x, y = low.gens()
        a = 1 + 2 * x * y - x ** 3
        lifted = lift(a, high)
        assert lifted.ring == high
        assert lifted.terms == a.terms
        hx, hy = high.gens()
        assert lifted * hx == 1 * hx + 2 * hx * hx * hy - hx ** 4
        assert lift(a, low) == a

    @pytest.mark.parametrize("ring", [
        SeriesRing(("x", "z"), grade="x", order=9),
        SeriesRing(("y", "x"), grade="x", order=9),
        SeriesRing(("x", "y"), grade="y", order=9),
        SeriesRing(("x", "y"), grade="x", order=9, laurent=("y",)),
        SeriesRing(("x", "y"), grade="x", order=9, caps={"y": 4}),
        SeriesRing(("x", "y"), grade="x", order=2),
    ])
    def test_refuses_any_other_ring(self, ring):
        a = ring2(order=3).var("x")
        with pytest.raises(VariableMismatch, match="cannot lift"):
            lift(a, ring)


class TestJson:
    def test_integer_coefficients_stay_numbers(self):
        r = ring2(order=3)
        x, _ = r.gens()
        data = series_json(r.one() + 2 * x)
        assert {tuple(t["e"]): t["c"] for t in data["terms"]} == {
            (0, 0): 1, (1, 0): 2}


# -- the tuple-keyed kernel the packed keys replaced ---------------------------

HALF = 1 << (SLOT_BITS - 1)


def tuple_build(ring, terms: dict) -> dict:
    """The reference's truncation and checks: OutOfRange when a nonzero
    term kept within the order and caps has an exponent out of range."""
    gi = ring.names.index(ring.grade)
    cap_at = [(ring.names.index(n), m) for n, m in ring.caps]
    clean = {}
    for e, c in terms.items():
        if c == 0 or e[gi] > ring.order or any(e[i] > m for i, m in cap_at):
            continue
        for name, exp in zip(ring.names, e):
            if exp < 0 and name not in ring.laurent:
                raise NotInvertible(f"negative exponent on {name!r}")
            if abs(exp) >= HALF:
                raise OutOfRange(f"exponent {exp} on {name!r}")
        clean[e] = c
    return clean


def tuple_add(ring, a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return tuple_build(ring, out)


def tuple_neg(ring, a: dict) -> dict:
    return tuple_build(ring, {e: -c for e, c in a.items()})


def tuple_mul(ring, a: dict, b: dict) -> dict:
    gi = ring.names.index(ring.grade)
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea[gi] + eb[gi] > ring.order:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return tuple_build(ring, out)


def tuple_divide(ring, num: dict, den: dict) -> dict:
    """num / den on a grade that is not Laurent: den over its grade-0
    monomial is 1 + t, q_n = num_n - (t_1 q_{n-1} + ... + t_n q_0) with no
    truncation or range check, then the truncated and checked sum of the
    q_n times the inverse monomial."""
    gi = ring.names.index(ring.grade)
    (e0, c0), = ((e, c) for e, c in den.items() if e[gi] == 0)
    inv_mono = tuple_build(ring, {tuple(-x for x in e0): c0})
    u = tuple_mul(ring, den, inv_mono)
    one = (0,) * len(ring.names)
    t = tuple_add(ring, u, {one: -1})
    t_by_grade = [[] for _ in range(ring.order + 1)]
    for e, c in t.items():
        t_by_grade[e[gi]].append((e, c))
    q = [{e: c for e, c in num.items() if e[gi] == n}
         for n in range(ring.order + 1)]
    for n in range(1, ring.order + 1):
        for k in range(1, n + 1):
            for et, ct in t_by_grade[k]:
                for eq, cq in q[n - k].items():
                    e = tuple(x + y for x, y in zip(et, eq))
                    q[n][e] = q[n].get(e, 0) - ct * cq
        q[n] = {e: c for e, c in q[n].items() if c}
    total = tuple_build(ring, {e: c for qn in q for e, c in qn.items()})
    return tuple_mul(ring, total, inv_mono)


def tuple_invert(ring, a: dict) -> dict:
    return tuple_divide(ring, {(0,) * len(ring.names): 1}, a)


def typed(terms) -> dict:
    """Terms with each coefficient's type, so 2 and 2.0 differ."""
    return {e: (type(c), c) for e, c in terms.items()}


# grade x; y Laurent; w capped at 2; v free
KERNEL_RING = SeriesRing(("x", "y", "w", "v"), grade="x", order=4,
                         laurent=("y",), caps={"w": 2})
kernel_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(-3, 3), st.integers(0, 3),
              st.integers(0, 2)),
    st.sampled_from([1, -1, 2, -3, 5, -4, 6]),
    max_size=6)


def kernel_den(c0: int, laurent_exp: int, rest: dict) -> dict:
    """Denominator terms: c0 * y**laurent_exp plus rest moved to grade 1
    or more."""
    raw = {(0, laurent_exp, 0, 0): c0}
    for (gx, ey, ew, ev), c in rest.items():
        e = (max(gx, 1), ey, ew, ev)
        raw[e] = raw.get(e, 0) + c
    return raw


@st.composite
def kernel_pair(draw):
    """Two term dicts; b may repeat some of a's terms negated or scaled, so
    sums and products cancel."""
    a = draw(kernel_terms)
    b = draw(kernel_terms)
    for e in draw(st.lists(st.sampled_from(sorted(a)), max_size=3)
                  if a else st.just([])):
        b[e] = -a[e] * draw(st.sampled_from([1, -1, 2]))
    return a, b


class TestPackedAgainstTupleKernel:
    @settings(max_examples=80, deadline=None)
    @given(kernel_pair())
    def test_build_add_neg_mul(self, pair):
        r = KERNEL_RING
        ta, tb = (tuple_build(r, t) for t in pair)
        a, b = (r._build(t) for t in pair)
        assert typed(a.terms) == typed(ta)
        assert typed((a + b).terms) == typed(tuple_add(r, ta, tb))
        assert typed((-a).terms) == typed(tuple_neg(r, ta))
        assert typed((a - b).terms) == typed(tuple_add(r, ta, tuple_neg(r, tb)))
        assert typed((a * b).terms) == typed(tuple_mul(r, ta, tb))
        assert typed((a * -3).terms) == typed(
            tuple_mul(r, ta, {(0, 0, 0, 0): -3}))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, -1]), st.integers(-2, 2), kernel_terms)
    def test_invert(self, c0, laurent_exp, rest):
        r = KERNEL_RING
        raw = kernel_den(c0, laurent_exp, rest)
        a = r._build(raw)
        want = tuple_invert(r, tuple_build(r, raw))
        assert typed(divide(r.one(), a).terms) == typed(want)

    @settings(max_examples=80, deadline=None)
    @given(kernel_terms, st.sampled_from([1, -1]), st.integers(-2, 2),
           kernel_terms)
    def test_divide(self, num, c0, laurent_exp, rest):
        r = KERNEL_RING
        raw = kernel_den(c0, laurent_exp, rest)
        a, b = r._build(num), r._build(raw)
        ta, tb = tuple_build(r, num), tuple_build(r, raw)
        q = divide(a, b)
        assert typed(q.terms) == typed(tuple_mul(r, ta, tuple_invert(r, tb)))
        assert typed(q.terms) == typed(tuple_divide(r, ta, tb))
        assert q * b == a

    @settings(max_examples=80, deadline=None)
    @given(kernel_terms, st.sampled_from([1, -1]), st.integers(-2, 2),
           kernel_terms, st.sampled_from([1, -1]), st.integers(-3, 3),
           st.integers(0, 3))
    def test_common_monomial_cancels(self, num, c0, laurent_exp, rest,
                                     cm, ey, ev):
        # m sits on the uncapped variables: y is Laurent, v is not
        r = KERNEL_RING
        raw = kernel_den(c0, laurent_exp, rest)
        m = r.monomial(cm, y=ey, v=ev)
        q = divide(r._build(num) * m, r._build(raw) * m)
        want = tuple_divide(r, tuple_build(r, num), tuple_build(r, raw))
        assert typed(q.terms) == typed(want)

    @settings(max_examples=40, deadline=None)
    @given(kernel_terms, st.sampled_from(KERNEL_RING.names), st.integers(-3, 4))
    def test_cofactor(self, terms, var, k):
        r = KERNEL_RING
        vi = r.names.index(var)
        want = {e[:vi] + (0,) + e[vi + 1:]: c
                for e, c in tuple_build(r, terms).items() if e[vi] == k}
        assert typed(r._build(terms).cofactor(var, k).terms) == typed(want)

    def test_terms_view_is_read_only(self):
        s = KERNEL_RING.var("y")
        with pytest.raises(TypeError):
            s.terms[(0, 0, 0, 0)] = 1


class TestRangeGuard:
    @pytest.mark.parametrize("exp", [HALF, -HALF, 3 * HALF])
    def test_monomial_outside_the_slot_rejected(self, exp):
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
        with pytest.raises(OutOfRange):
            r.monomial(1, y=exp)

    @pytest.mark.parametrize("exp", [HALF - 1, 1 - HALF])
    def test_monomial_at_the_slot_edge_kept(self, exp):
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
        assert r.monomial(3, y=exp).terms == {(0, exp): 3}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_squaring_past_the_slot_raises(self, sign):
        r = SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",))
        s = r.monomial(1, y=sign) + r.var("x")
        k = 0
        with pytest.raises(OutOfRange):
            while True:
                # y**e + ... : every term so far is exact, none wrapped
                e = sign << k
                assert s.coeff({"y": e}) == 1
                assert all(abs(ey) <= abs(e) and 0 <= ex <= 4
                           for ex, ey in s.terms)
                s = s * s
                k += 1
        assert 1 << k == HALF // 2

    def test_borrow_past_the_order_never_wraps(self):
        # the y-slot sum 2 - 2**32 fits its slot, so the x**2 product is
        # truncated at order 1 and never passes for an x**1 term
        r = SeriesRing(("x", "y"), grade="x", order=1, laurent=("y",))
        a = r.monomial(1, x=1, y=1 - HALF)
        assert (a * a).is_zero()
        # within the order, the same product leaves the range
        r = SeriesRing(("x", "y"), grade="x", order=2, laurent=("y",))
        a = r.monomial(1, x=1, y=1 - HALF)
        with pytest.raises(OutOfRange):
            a * a

    def test_laurent_grade_past_the_slot_raises(self):
        r = SeriesRing(("x",), grade="x", order=4, laurent=("x",))
        a = r.monomial(1, x=1 - HALF)
        assert (a * r.var("x")).terms == {(2 - HALF,): 1}
        with pytest.raises(OutOfRange):
            a * a

    def test_inverse_checks_each_grade(self):
        # 1 / (y**3 + x y**(2**30 + 3)) has x**2 y**(2**31 - 3), but the
        # recurrence's grade-2 term y**(2**31) is out of range first
        r = SeriesRing(("x", "y"), grade="x", order=2, laurent=("y",))
        a = r.monomial(1, y=3) + r.monomial(1, x=1, y=HALF // 2 + 3)
        with pytest.raises(OutOfRange):
            divide(r.one(), a)

    @pytest.mark.parametrize("ring, scans", [
        (SeriesRing(("z",), grade="z", order=40), False),
        (SeriesRing(("x", "w"), grade="x", order=4, caps={"w": 3}), False),
        (SeriesRing(("x", "w"), grade="x", order=4), True),
        (SeriesRing(("x", "y"), grade="x", order=4, laurent=("y",)), True),
        (SeriesRing(("x",), grade="x", order=4, laurent=("x",)), True),
        (SeriesRing(("x",), grade="x", order=HALF), True),
    ])
    def test_scan_only_where_an_exponent_can_leave_the_range(self, ring,
                                                             scans):
        # a ring with no Laurent variable, caps on every other variable and
        # an order below HALF cannot form this grade exponent, so it skips
        # the scan that would refuse it
        bad = {ring._zero + (HALF << ring._top): 1}
        if scans:
            with pytest.raises(OutOfRange):
                ring._in_range(bad)
        else:
            assert ring._in_range(bad) is bad

    def test_inverse_past_the_slot_raises(self):
        r = SeriesRing(("x", "y"), grade="x", order=40)
        with pytest.raises(OutOfRange):
            divide(r.one(), r.one() - r.monomial(1, x=1, y=1 << 26))

    def test_inverse_with_a_loose_bound_but_small_exponents(self):
        # the x**4 term is at 2**30 in y, and no product of it is in order
        r = SeriesRing(("x", "y"), grade="x", order=4)
        big = r.monomial(1, x=4, y=1 << 30)
        inv = divide(r.one(), r.one() - r.var("x") - big)
        want = {(n, 0): 1 for n in range(5)}
        want[(4, 1 << 30)] = 1
        assert inv.terms == want

    def test_small_fixed_point_through_order_60(self):
        r = SeriesRing(("x",), grade="x", order=60)
        x, one = r.var("x"), r.one()
        c = fixed_point(lambda w: one + x * w * w, one)
        assert [c.coeff({"x": n}) for n in range(61)] == [
            comb(2 * n, n) // (n + 1) for n in range(61)]


# grade x; y Laurent; w capped just below the slot edge; v free
EDGE_RING = SeriesRing(("x", "y", "w", "v"), grade="x", order=3,
                       laurent=("y",), caps={"w": HALF - 3})


def near(*centers):
    """Integers within a few units of one of these centers."""
    return st.builds(lambda c, d: c + d, st.sampled_from(centers),
                     st.integers(-3, 3))


laurent_near_edge = near(-HALF, -HALF // 2, 0, HALF // 2, HALF).filter(
    lambda e: abs(e) < HALF)
edge_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), laurent_near_edge,
              near(0, HALF // 2, HALF - 3).filter(
                  lambda e: 0 <= e <= HALF - 3),
              near(0, HALF // 2, HALF).filter(lambda e: 0 <= e < HALF)),
    st.sampled_from([1, -1, 2, -3]),
    min_size=1, max_size=4)


def outcome(build):
    """The typed terms build returns, or OutOfRange if it raises that."""
    try:
        return typed(build())
    except OutOfRange:
        return OutOfRange


class TestRangeGuardNearTheEdge:
    """Against the tuple reference: the exact truncated terms when every
    nonzero term the reference forms is in range, else OutOfRange."""

    @settings(max_examples=150, deadline=None)
    @given(edge_terms, edge_terms)
    def test_mul(self, ta, tb):
        r = EDGE_RING
        got = outcome(lambda: (r._build(ta) * r._build(tb)).terms)
        assert got == outcome(lambda: tuple_mul(r, ta, tb))

    @settings(max_examples=150, deadline=None)
    @given(laurent_near_edge, st.sampled_from([1, -1]), edge_terms)
    def test_invert(self, ey0, c0, rest):
        r = EDGE_RING
        raw = {(max(gx, 1), *e): c for (gx, *e), c in rest.items()}
        raw[(0, ey0, 0, 0)] = c0
        got = outcome(lambda: divide(r.one(), r._build(raw)).terms)
        assert got == outcome(lambda: tuple_invert(r, raw))

    @settings(max_examples=150, deadline=None)
    @given(edge_terms, laurent_near_edge, st.sampled_from([1, -1]), edge_terms)
    def test_divide(self, num, ey0, c0, rest):
        r = EDGE_RING
        raw = {(max(gx, 1), *e): c for (gx, *e), c in rest.items()}
        raw[(0, ey0, 0, 0)] = c0
        got = outcome(lambda: divide(r._build(num), r._build(raw)).terms)
        assert got == outcome(
            lambda: tuple_divide(r, tuple_build(r, num), raw))
