"""Closed-form generating functions for the polyomino statistics.

Every series here is produced at least two independent ways (closed form vs
fixed-point iteration, coefficient formula vs series extraction, continued
fraction vs ratio of q-sums) and the agreement is asserted before anything is
returned.  Enumeration cross-checks that need object streams live in
``verification``; the only enumeration used here is the parallelogram-area
count backing the collapsed continued fraction.

Variable conventions, fixed throughout:

- full five-variable series F: x columns, y rows, z area, p internal edges
  (edgint), q interior points (point); p and q may appear with negative
  exponents in intermediate values only.
- columns/semiperimeter pairs (G(u), G(1)): x grades (columns, respectively
  semiperimeter), u marks the first-row length.
- continued fraction A: p peaks (nbp), q peak-height sum (sump), v
  valley-height sum (sumv); equivalently rows / area minus rows / points.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import (
    CancellationFailure,
    InvariantViolation,
    MismatchBetweenForms,
    OutOfRange,
)
from .series import (
    SeriesRing,
    TruncatedSeries,
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


def fibonacci(n: int) -> int:
    if n < 0:
        raise OutOfRange(f"fibonacci index {n} is negative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def catalan(n: int) -> int:
    if n < 0:
        raise OutOfRange(f"catalan index {n} is negative")
    return comb(2 * n, n) // (n + 1)


def _assert_equal(a: TruncatedSeries, b: TruncatedSeries, what: str) -> None:
    if a.terms != b.terms:
        raise MismatchBetweenForms(f"{what}: the two forms disagree")


# -- columns -------------------------------------------------------------------

@lru_cache(maxsize=None)
def _columns_core(order_x: int):
    ring = SeriesRing(("x", "u"), grade="x", order=order_x)
    x, u = ring.gens()
    one = ring.one()
    r = solve_fixed_point(lambda w: one + x * w * w, one)
    if not (x * r * r - r + one).is_zero():
        raise MismatchBetweenForms("columns kernel root fails its equation")
    G = x * u * invert(one - u * x * r)
    G1 = substitute_monomial(G, "u", 1)
    _assert_equal(G1, x * r, "columns G(1) vs x*r")
    for n in range(1, order_x + 1):
        want = Fraction(comb(2 * n - 2, n - 1), n)
        if G1.coeff({"x": n}) != want:
            raise MismatchBetweenForms(f"columns G(1) coefficient at x^{n}")
    rk = one
    for k in range(1, order_x + 1):
        # u^k slice must be x^k * r^(k-1)
        _assert_equal(G.cofactor("u", k), ring.monomial(1, x=k) * rk,
                      f"columns u^{k} slice")
        rk = rk * r
    return ring, r, G, G1


def gf_columns(order_x: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Columns-by-first-row-length series G(u) and its evaluation G(1)."""
    if order_x < 1:
        raise OutOfRange(f"order {order_x} < 1")
    _, _, G, G1 = _columns_core(order_x)
    return G, G1


def coeff_columns(n: int, k: int) -> int:
    """Number of polyominoes with n columns and first row of k cells."""
    if n < 2 or k < 1 or k > n:
        raise OutOfRange(f"coeff_columns({n}, {k}) outside n >= 2, 1 <= k <= n")
    val = Fraction(k - 1, 2 * n - k - 1) * comb(2 * n - k - 1, n - k)
    if val.denominator != 1:
        raise InvariantViolation(f"coeff_columns({n}, {k}) not an integer")
    return int(val)


@lru_cache(maxsize=None)
def gf_columns_corollaries(order_x: int) -> dict:
    """First-row totals, edgint-free and point-free counts, by columns."""
    if order_x < 1:
        raise OutOfRange(f"order {order_x} < 1")
    ring, r, G, _ = _columns_core(order_x)
    x = ring.var("x")
    one = ring.one()

    first_row_total = substitute_monomial(derivative(G, "u"), "u", 1)
    _assert_equal(first_row_total, r - one, "first-row total vs r - 1")
    for n in range(1, order_x + 1):
        if first_row_total.coeff({"x": n}) != catalan(n):
            raise MismatchBetweenForms(f"first-row total at x^{n}")
    ratios = [
        {"n": n, "ratio": str(Fraction(catalan(n), catalan(n - 1))),
         "value": catalan(n) / catalan(n - 1)}
        for n in range(1, order_x + 1)
    ]

    uni = SeriesRing(("x",), grade="x", order=order_x)
    xx = uni.var("x")
    uone = uni.one()

    edgint_free = xx * (uone - 2 * xx) * invert(uone - 3 * xx + xx * xx)
    for n in range(2, order_x + 1):
        if edgint_free.coeff({"x": n}) != fibonacci(2 * n - 3):
            raise MismatchBetweenForms(f"edgint-free columns count at x^{n}")

    point_free = xx * (uone - xx) * invert(uone - 2 * xx)
    for n in range(2, order_x + 1):
        if point_free.coeff({"x": n}) != 2 ** (n - 2):
            raise MismatchBetweenForms(f"point-free columns count at x^{n}")

    return {
        "first-row-total": {
            "series": first_row_total,
            "catalan-identity": True,
            "average-first-row-ratios": ratios,
        },
        "edgint-free": {"series": edgint_free, "fibonacci-odd-identity": True},
        "point-free": {"series": point_free, "power-of-two-identity": True},
    }


# -- semiperimeter ---------------------------------------------------------------

@lru_cache(maxsize=None)
def _semiperimeter_core(order_x: int):
    ring = SeriesRing(("x", "u"), grade="x", order=order_x)
    x, u = ring.gens()
    one = ring.one()
    t = one + x - x * x
    inv_t = invert(t)
    r = solve_fixed_point(lambda w: (one + x * w * w) * inv_t, one)
    if not (x * r * r - t * r + one).is_zero():
        raise MismatchBetweenForms("semiperimeter kernel root fails its equation")
    x2 = ring.monomial(1, x=2)
    G = x2 * u * invert(one - u * x * r)
    G1 = substitute_monomial(G, "u", 1)
    _assert_equal(G1 * r, r - one, "semiperimeter G(1) vs (r-1)/r")
    xr_pow = one
    for k in range(1, order_x):
        # u^k slice must be x^2 * (x*r)^(k-1)
        _assert_equal(G.cofactor("u", k), x2 * xr_pow, f"semiperimeter u^{k} slice")
        xr_pow = xr_pow * (x * r)
    return ring, r, G, G1


def gf_semiperimeter(order_x: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Semiperimeter-by-first-row-length series G(u) and G(1)."""
    if order_x < 2:
        raise OutOfRange(f"order {order_x} < 2")
    _, _, G, G1 = _semiperimeter_core(order_x)
    return G, G1


def coeff_semiperimeter(n: int, k: int) -> int:
    """Number of polyominoes with semiperimeter n and first row of k cells."""
    if n < 2 or k < 1 or k > n - 1:
        raise OutOfRange(
            f"coeff_semiperimeter({n}, {k}) outside n >= 2, 1 <= k <= n-1"
        )
    if k == 1:
        # a one-cell first row forces the single-cell polyomino
        return 1 if n == 2 else 0
    total = Fraction(0)
    for j in range(n - k):
        m = n - k - 1 - j
        inner = sum(
            comb(n + j - b - 3, m - b) * comb(m - b, b)
            for b in range(m // 2 + 1)
        )
        total += (
            Fraction(k - 1, 2 * j + k - 1)
            * comb(2 * j + k - 1, j)
            * (-1) ** m
            * inner
        )
    if total.denominator != 1:
        raise InvariantViolation(f"coeff_semiperimeter({n}, {k}) not an integer")
    return int(total)


@lru_cache(maxsize=None)
def gf_semiperimeter_corollaries(order_x: int) -> dict:
    """First-row totals and the edgint-free Fibonacci series, by semiperimeter.

    The edgint-free entry reports the series whose coefficients follow the
    odd-index-free Fibonacci pattern [x^n] = F(n-1); whether those numbers
    count anything is left to the enumeration suites.
    """
    if order_x < 2:
        raise OutOfRange(f"order {order_x} < 2")
    ring, r, G, G1 = _semiperimeter_core(order_x)
    x = ring.var("x")
    one = ring.one()
    x2 = ring.monomial(1, x=2)

    first_row_total = substitute_monomial(derivative(G, "u"), "u", 1)
    _assert_equal(first_row_total, x2 * invert((one - x * r) ** 2),
                  "first-row total closed form")
    _assert_equal(x2 * first_row_total, G1 * G1,
                  "first-row total vs convolution square of G(1)")

    uni = SeriesRing(("x",), grade="x", order=order_x)
    xx = uni.var("x")
    uone = uni.one()
    fib_series = xx * (uone - xx * xx) * invert(uone - xx - xx * xx)
    for n in range(2, order_x + 1):
        if fib_series.coeff({"x": n}) != fibonacci(n - 1):
            raise MismatchBetweenForms(f"Fibonacci series coefficient at x^{n}")

    return {
        "first-row-total": {
            "series": first_row_total,
            "convolution-square-identity": True,
        },
        "edgint-free": {
            "series": fib_series,
            "series-follows-fibonacci": True,
        },
    }


# -- area ------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gf_area(order_z: int) -> TruncatedSeries:
    """Area series as a ratio of two alternating q-type sums."""
    if order_z < 1:
        raise OutOfRange(f"order {order_z} < 1")
    ring = SeriesRing(("z",), grade="z", order=order_z)
    z = ring.var("z")
    one = ring.one()
    num = ring.zero()
    den = one
    level = 0
    while (level + 2) * (level + 1) // 2 <= order_z:
        sign = -1 if level % 2 else 1
        poch = pochhammer(z, z, level)
        num = num + sign * ring.monomial(1, z=(level + 2) * (level + 1) // 2) * invert(
            poch * poch * (one - ring.monomial(1, z=level + 1))
        )
        poch1 = pochhammer(z, z, level + 1)
        den = den - sign * ring.monomial(
            1, z=(level + 4) * (level + 1) // 2
        ) * invert(poch1 * poch1)
        level += 1
    return num * invert(den)


# -- full five-variable series ---------------------------------------------------

def full_order_z(order_x: int) -> int:
    """Largest area of any polyomino with at most order_x columns."""
    return max(k * (order_x - k + 1) for k in range(1, order_x + 1))


def _full_closed(ring: SeriesRing) -> TruncatedSeries:
    x, y, z, p, q = ring.gens()
    one = ring.one()
    v = ring.monomial(1, z=1, p=1, q=1)
    g_tot = h_tot = ring.zero()
    level = 0
    while (level + 2) * (level + 1) // 2 <= ring.order:
        sign = -1 if level % 2 else 1
        kernel_inv = invert(x * z * v ** level - one)
        delta = sign * invert(pochhammer(x * z, v, level) * pochhammer(v, v, level))
        tri = level * (level + 3) // 2
        g_num = (
            ring.monomial(1, x=level + 2, y=level + 2, p=tri, q=tri,
                          z=(level + 3) * (level + 2) // 2) * (p - one)
            - ring.monomial(1, x=level + 1, y=level + 1, p=level * (level + 1) // 2,
                            q=level * (level + 1) // 2,
                            z=(level + 2) * (level + 1) // 2) * p
        )
        g_tot = g_tot + div_monomial(g_num * kernel_inv * delta,
                                     {"p": 2 * level + 1, "q": level})
        kernel_inv2 = invert(v ** (level + 1) - one)
        h_num = (
            -ring.monomial(1, x=level + 1, y=level + 1, p=tri, q=tri,
                           z=(level + 4) * (level + 1) // 2)
            + ring.monomial(1, x=level + 1, y=level + 1,
                            p=level * (level + 5) // 2,
                            q=level * (level + 5) // 2 + 1,
                            z=(level + 6) * (level + 1) // 2) * (p - one)
        )
        h_tot = h_tot + div_monomial(h_num * kernel_inv * kernel_inv2 * delta,
                                     {"p": 2 * level, "q": level})
        level += 1
    return g_tot * invert(one + h_tot)


def _full_iterated(ring: SeriesRing) -> TruncatedSeries:
    x, y, z, p, q = ring.gens()
    one = ring.one()
    v = ring.monomial(1, z=1, p=1, q=1)

    def a_of(big_u: TruncatedSeries) -> TruncatedSeries:
        num = x * z * big_u * (x * y * z * z * (p - one) * big_u - p) * y
        return num * invert(p * (big_u * x * z - one))

    def b_of(big_u: TruncatedSeries) -> TruncatedSeries:
        num = big_u * big_u * z * z * (one - q * z * (p - one) * big_u) * y * x
        return num * invert((big_u * x * z - one) * (big_u * z * q * p - one))

    def c_of(big_u: TruncatedSeries) -> TruncatedSeries:
        num = y * x * big_u * z
        core = num * invert((one - big_u * x * z) * (big_u * z * q * p - one))
        return div_monomial(core, {"q": 1, "p": 2})

    sum_a = sum_b = ring.zero()
    c_prod = one
    level = 0
    while (level + 1) * (level + 2) // 2 <= ring.order:
        big_u = v ** level
        sum_a = sum_a + a_of(big_u) * c_prod
        sum_b = sum_b + b_of(big_u) * c_prod
        c_prod = c_prod * c_of(big_u)
        level += 1
    return sum_a * invert(one - sum_b)


@lru_cache(maxsize=None)
def gf_full(order_x: int) -> TruncatedSeries:
    """Five-variable series in x, y, z, p, q, complete for all x-degrees
    up to order_x.

    Computed independently as a ratio of alternating sums and as the iterated
    solution of the first-row functional equation; the two must agree term by
    term, with every negative p or q exponent cancelled.
    """
    if order_x < 1:
        raise OutOfRange(f"order {order_x} < 1")
    ring = SeriesRing(("x", "y", "z", "p", "q"), grade="z",
                      order=full_order_z(order_x), laurent=("p", "q"),
                      caps={"x": order_x})
    closed = _full_closed(ring)
    iterated = _full_iterated(ring)
    closed.assert_no_negative_exponents(CancellationFailure, "closed form")
    iterated.assert_no_negative_exponents(CancellationFailure, "iterated form")
    closed.assert_integer_coefficients(CancellationFailure, "closed form")
    _assert_equal(closed, iterated, "five-variable series")
    return closed


# -- continued fraction ----------------------------------------------------------

@lru_cache(maxsize=None)
def gf_continued_fractions(order: int, depth: int | None = None) -> dict:
    """Peak/valley continued fraction A(p, q, v) and its named specializations.

    The record carries the full trivariate series, the area collapse (with
    the single-cell term restored: the fraction ranges over nonempty paths
    while the area series starts at the one-cell polyomino), the two
    q-collapses, and the v = 0 slice with its Fibonacci identity.
    """
    if order < 1:
        raise OutOfRange(f"order {order} < 1")
    if depth is None:
        depth = order + 2
    ring = SeriesRing(("p", "q", "v"), grade="q", order=order)
    one = ring.one()
    vv = ring.var("v")

    def level(k: int) -> TruncatedSeries:
        return one + vv - ring.monomial(1, p=1, q=k, v=k)

    a = continued_fraction(level, vv, depth)
    a.assert_integer_coefficients(MismatchBetweenForms, "continued fraction")

    a_qq1 = collapse(a, {"q": 1, "p": 1}, "z")
    area_series = a_qq1 + a_qq1.ring.monomial(1, z=1)
    _assert_equal(area_series, gf_area(order), "area ratio vs collapsed fraction")

    a_1q1 = collapse(a, {"q": 1}, "q")
    a_1qq = collapse(a, {"q": 1, "v": 1}, "q")

    a_pp0 = collapse(substitute_monomial(a, "v", 0), {"q": 1, "p": 1}, "p")
    fib_ring = SeriesRing(("p",), grade="p", order=order)
    pp = fib_ring.var("p")
    fib_form = pp * pp * invert(fib_ring.one() - pp - pp * pp)
    if a_pp0.terms != fib_form.terms:
        raise MismatchBetweenForms("valley-free slice vs p^2/(1-p-p^2)")
    for n in range(2, order + 1):
        if a_pp0.coeff({"p": n}) != fibonacci(n - 1):
            raise MismatchBetweenForms(f"valley-free coefficient at p^{n}")

    enum_limit = min(order, 9)
    from . import enumeration
    for n in range(1, enum_limit + 1):
        count = enumeration.cached_count("parallelogram", "area", n)
        if a_1q1.coeff({"q": n}) != count:
            raise MismatchBetweenForms(
                f"peak-height-sum collapse at q^{n}: series "
                f"{a_1q1.coeff({'q': n})}, parallelogram count {count}"
            )

    return {
        "a": a,
        "depth": depth,
        "a-qq1": a_qq1,
        "area": area_series,
        "area-identity": True,
        "a-1q1": a_1q1,
        "a-1qq": a_1qq,
        "a-pp0": a_pp0,
        "fibonacci-identity": True,
        "parallelogram-area-match": enum_limit,
    }


def record_json(record: dict) -> dict:
    """JSON-ready copy of a corollary record (series expanded to term lists)."""
    out = {}
    for key, val in record.items():
        if isinstance(val, TruncatedSeries):
            out[key] = series_json(val)
        elif isinstance(val, dict):
            out[key] = record_json(val)
        else:
            out[key] = val
    return out
