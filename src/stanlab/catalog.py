"""Closed-form generating functions for the polyomino statistics.

Every series here is produced at least two independent ways (closed form vs
fixed-point iteration, coefficient formula vs series extraction, continued
fraction vs ratio of q-sums) and the agreement is asserted before anything is
returned.  Enumeration cross-checks that need object streams live in
``verification``; the only enumeration used here is ``enumeration.count`` of
parallelograms by area, backing the collapsed continued fraction.  Nothing is
memoised: each call builds its series afresh and returns new objects.

Variable conventions, fixed throughout:

- full five-variable series F: x columns, y rows, z area, p internal edges
  (edgint), q interior points (point); p and q may appear with negative
  exponents in intermediate values only.
- columns/semiperimeter pairs (G(u), G(1)): x grades (columns, respectively
  semiperimeter), u marks the first-row length; both solve one first-row
  kernel equation.
- continued fraction A: p peaks (nbp), q peak-height sum (sump), v
  valley-height sum (sumv); equivalently rows / area minus rows / points.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .enumeration import FamilyBound, count
from .errors import (
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
    divide,
    evaluate_at_one,
    pochhammer,
    series_json,
    solve_fixed_point,
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
    if a != b:
        raise MismatchBetweenForms(f"{what}: the two forms disagree")


# -- first-row kernel: columns and semiperimeter ----------------------------------

# t and the lead exponent of each first-row equation G(u) = x^lead u / (1 - u x r)
_FIRST_ROW = {
    "columns": (lambda x: 1, 1),
    "semiperimeter": (lambda x: 1 + x - x * x, 2),
}


def _first_row(kind: str, order_x: int):
    """r, G(u) and G(1) of a first-row equation, r being the power-series
    root of the kernel F(r) = x r^2 - t r + 1 = 0 (the column-by-column
    method of Bousquet-Melou, Discrete Math. 154, 1996), found by Newton's
    step r - F(r) / F'(r), which doubles the orders of x that are right
    each round.  Asserts the kernel equation, G(1) r = r - 1 and the
    identity G (1 - u x r) = x^lead u.  As 1 - u x r is a unit, that
    identity holds exactly when every u^k slice of G is x^lead (x r)^(k-1)."""
    t_of, lead = _FIRST_ROW[kind]
    if order_x < lead:
        raise OutOfRange(f"order {order_x} < {lead}")
    ring = SeriesRing(("x", "u"), grade="x", order=order_x)
    x, u = ring.gens()
    t = t_of(x)
    # -F'(w) = t - 2 x w has constant term 1, so the division is exact
    r = solve_fixed_point(
        lambda w: w + divide(x * w * w - t * w + 1, t - 2 * x * w), ring.one())
    if not (x * r * r - t * r + 1).is_zero():
        raise MismatchBetweenForms(f"{kind} kernel root fails its equation")
    x_lead_u = ring.monomial(1, x=lead, u=1)
    kernel = 1 - u * x * r
    G = divide(x_lead_u, kernel)
    G1 = evaluate_at_one(G, "u")
    _assert_equal(G1 * r, r - 1, f"{kind} G(1) vs (r-1)/r")
    _assert_equal(G * kernel, x_lead_u, f"{kind} u^k slices")
    return r, G, G1


def _first_row_total(kind: str, r: TruncatedSeries, G: TruncatedSeries,
                     G1: TruncatedSeries) -> TruncatedSeries:
    """d/du G at u = 1, asserted equal to its closed form x^lead / (1 - x r)^2
    and, times x^lead, to G(1)^2."""
    x_lead = G.ring.monomial(1, x=_FIRST_ROW[kind][1])
    total = evaluate_at_one(derivative(G, "u"), "u")
    _assert_equal(total, divide(x_lead, (1 - G.ring.var("x") * r) ** 2),
                  f"{kind} first-row total closed form")
    _assert_equal(x_lead * total, G1 * G1,
                  f"{kind} first-row total vs the square of G(1)")
    return total


# -- columns -------------------------------------------------------------------

def _columns(order_x: int):
    """The columns kernel, G(1) checked against the Catalan numbers."""
    r, G, G1 = _first_row("columns", order_x)
    for n in range(1, order_x + 1):
        if G1.coeff({"x": n}) != catalan(n - 1):
            raise MismatchBetweenForms(f"columns G(1) coefficient at x^{n}")
    return r, G, G1


def gf_columns(order_x: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Columns-by-first-row-length series G(u) and its evaluation G(1)."""
    _, G, G1 = _columns(order_x)
    return G, G1


def coeff_columns(n: int, k: int) -> int:
    """Number of polyominoes with n columns and first row of k cells."""
    if n < 2 or k < 1 or k > n:
        raise OutOfRange(f"coeff_columns({n}, {k}) outside n >= 2, 1 <= k <= n")
    val, rem = divmod((k - 1) * comb(2 * n - k - 1, n - k), 2 * n - k - 1)
    if rem:
        raise InvariantViolation(f"coeff_columns({n}, {k}) not an integer")
    return val


def gf_columns_corollaries(order_x: int) -> dict:
    """First-row totals, edgint-free and point-free counts, by columns."""
    r, G, G1 = _columns(order_x)
    first_row_total = _first_row_total("columns", r, G, G1)
    _assert_equal(first_row_total, r - 1, "first-row total vs r - 1")
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

    edgint_free = divide(xx * (uone - 2 * xx), uone - 3 * xx + xx * xx)
    for n in range(2, order_x + 1):
        if edgint_free.coeff({"x": n}) != fibonacci(2 * n - 3):
            raise MismatchBetweenForms(f"edgint-free columns count at x^{n}")

    point_free = divide(xx * (uone - xx), uone - 2 * xx)
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

def gf_semiperimeter(order_x: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Semiperimeter-by-first-row-length series G(u) and G(1)."""
    _, G, G1 = _first_row("semiperimeter", order_x)
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
    total = 0
    for j in range(n - k):
        m = n - k - 1 - j
        inner = sum(
            comb(n + j - b - 3, m - b) * comb(m - b, b)
            for b in range(m // 2 + 1)
        )
        ballot, rem = divmod((k - 1) * comb(2 * j + k - 1, j), 2 * j + k - 1)
        if rem:
            raise InvariantViolation(
                f"coeff_semiperimeter({n}, {k}) not an integer")
        total += ballot * (-1) ** m * inner
    return total


def gf_semiperimeter_corollaries(order_x: int) -> dict:
    """First-row totals and the edgint-free Fibonacci series, by semiperimeter.

    The edgint-free entry reports the series whose coefficients follow the
    odd-index-free Fibonacci pattern [x^n] = F(n-1); whether those numbers
    count anything is left to the enumeration suites.
    """
    first_row_total = _first_row_total(
        "semiperimeter", *_first_row("semiperimeter", order_x))

    uni = SeriesRing(("x",), grade="x", order=order_x)
    xx = uni.var("x")
    uone = uni.one()
    fib_series = divide(xx * (uone - xx * xx), uone - xx - xx * xx)
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
        num = num + sign * divide(
            ring.monomial(1, z=(level + 2) * (level + 1) // 2),
            poch * poch * (one - ring.monomial(1, z=level + 1)))
        poch1 = pochhammer(z, z, level + 1)
        den = den - sign * divide(
            ring.monomial(1, z=(level + 4) * (level + 1) // 2), poch1 * poch1)
        level += 1
    return divide(num, den)


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
        kernel = x * z * v ** level - one
        delta = pochhammer(x * z, v, level) * pochhammer(v, v, level)
        tri = level * (level + 3) // 2
        g_num = (
            ring.monomial(1, x=level + 2, y=level + 2, p=tri, q=tri,
                          z=(level + 3) * (level + 2) // 2) * (p - one)
            - ring.monomial(1, x=level + 1, y=level + 1, p=level * (level + 1) // 2,
                            q=level * (level + 1) // 2,
                            z=(level + 2) * (level + 1) // 2) * p
        )
        g_tot = g_tot + sign * div_monomial(divide(g_num, kernel * delta),
                                            {"p": 2 * level + 1, "q": level})
        h_num = (
            -ring.monomial(1, x=level + 1, y=level + 1, p=tri, q=tri,
                           z=(level + 4) * (level + 1) // 2)
            + ring.monomial(1, x=level + 1, y=level + 1,
                            p=level * (level + 5) // 2,
                            q=level * (level + 5) // 2 + 1,
                            z=(level + 6) * (level + 1) // 2) * (p - one)
        )
        h_den = kernel * (v ** (level + 1) - one) * delta
        h_tot = h_tot + sign * div_monomial(divide(h_num, h_den),
                                            {"p": 2 * level, "q": level})
        level += 1
    return divide(g_tot, one + h_tot)


def _full_iterated(ring: SeriesRing) -> TruncatedSeries:
    x, y, z, p, q = ring.gens()
    one = ring.one()
    v = ring.monomial(1, z=1, p=1, q=1)

    def a_of(big_u: TruncatedSeries) -> TruncatedSeries:
        num = x * z * big_u * (x * y * z * z * (p - one) * big_u - p) * y
        return divide(num, p * (big_u * x * z - one))

    def b_of(big_u: TruncatedSeries) -> TruncatedSeries:
        num = big_u * big_u * z * z * (one - q * z * (p - one) * big_u) * y * x
        return divide(num, (big_u * x * z - one) * (big_u * z * q * p - one))

    def c_of(big_u: TruncatedSeries) -> TruncatedSeries:
        num = y * x * big_u * z
        core = divide(num, (one - big_u * x * z) * (big_u * z * q * p - one))
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
    return divide(sum_a, one - sum_b)


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
    closed.assert_no_negative_exponents("closed form")
    iterated.assert_no_negative_exponents("iterated form")
    _assert_equal(closed, iterated, "five-variable series")
    return closed


# -- continued fraction ----------------------------------------------------------

def gf_continued_fractions(order: int) -> dict:
    """Peak/valley continued fraction A(p, q, v) and its named specializations.

    The record carries the full trivariate series, the area collapse (with
    the single-cell term restored: the fraction ranges over nonempty paths
    while the area series starts at the one-cell polyomino), the two
    q-collapses, and the v = 0 slice with its Fibonacci identity.
    """
    if order < 1:
        raise OutOfRange(f"order {order} < 1")
    ring = SeriesRing(("p", "q", "v"), grade="q", order=order)
    one = ring.one()
    vv = ring.var("v")

    def level(k: int) -> TruncatedSeries:
        return one + vv - ring.monomial(1, p=1, q=k, v=k)

    a = continued_fraction(level, vv)

    a_qq1 = collapse(a, {"q": 1, "p": 1}, "z")
    area_series = a_qq1 + a_qq1.ring.monomial(1, z=1)
    _assert_equal(area_series, gf_area(order), "area ratio vs collapsed fraction")

    a_1q1 = collapse(a, {"q": 1}, "q")
    a_1qq = collapse(a, {"q": 1, "v": 1}, "q")

    a_pp0 = collapse(a.cofactor("v", 0), {"q": 1, "p": 1}, "p")
    fib_ring = SeriesRing(("p",), grade="p", order=order)
    pp = fib_ring.var("p")
    fib_form = divide(pp * pp, fib_ring.one() - pp - pp * pp)
    if a_pp0 != fib_form:
        raise MismatchBetweenForms("valley-free slice vs p^2/(1-p-p^2)")
    for n in range(2, order + 1):
        if a_pp0.coeff({"p": n}) != fibonacci(n - 1):
            raise MismatchBetweenForms(f"valley-free coefficient at p^{n}")

    enum_limit = min(order, 9)
    for n in range(1, enum_limit + 1):
        want = count(FamilyBound("parallelogram", "area", n))
        if a_1q1.coeff({"q": n}) != want:
            raise MismatchBetweenForms(
                f"peak-height-sum collapse at q^{n}: series "
                f"{a_1q1.coeff({'q': n})}, parallelogram count {want}"
            )

    return {
        "a": a,
        "depth": order + 2,  # the depth continued_fraction evaluates at
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
