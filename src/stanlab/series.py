"""Exact truncated multivariate series over the rationals.

A TruncatedSeries is its ring plus its terms.  The SeriesRing holds the
variable names, the one grade variable, the truncation order, the variables
that may carry negative (Laurent) exponents and caps on other exponents; it
checks them once and builds every series, dropping each term whose grade
exponent exceeds the order or whose exponent exceeds a cap.
The terms are a sparse dict of exponent vectors with exact coefficients: a
plain int whenever the coefficient is an integer, and a Fraction only where
a division is inexact.
Substitution means evaluating one variable at a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Callable, Mapping

from .errors import (
    NoContraction,
    NotInvertible,
    OutOfRange,
    Unstable,
    UnsoundSubstitution,
    VariableMismatch,
)

Exponents = tuple[int, ...]
# int when integral; Fraction only where a division is inexact
Coeff = int | Fraction
Scalar = int | Fraction


def _frac(c: Scalar) -> Coeff:
    """A coefficient in canonical form: an integral Fraction becomes an int."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


@dataclass(frozen=True)
class SeriesRing:
    """Variables, grade, order, Laurent variables and caps shared by its
    series.  A cap is the largest exponent a non-grade, non-Laurent
    variable may keep; no operation may lower a capped exponent."""

    names: tuple[str, ...]
    grade: str
    order: int
    laurent: frozenset[str] = frozenset()
    # given as a mapping, kept as (name, cap) pairs in the order of names
    caps: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names, laurent = tuple(self.names), frozenset(self.laurent)
        if self.grade not in names:
            raise VariableMismatch(f"grade {self.grade!r} not among {names}")
        unknown = laurent - set(names)
        if unknown:
            raise VariableMismatch(
                f"Laurent variables {sorted(unknown)} not among {names}")
        caps = dict(self.caps)
        for name, cap in caps.items():
            if name not in names or name == self.grade or name in laurent:
                raise VariableMismatch(f"cap on {name!r}: not a variable of "
                                       f"{names} besides grade and Laurent")
            if cap < 0:
                raise OutOfRange(f"negative cap on {name!r}: {cap}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "laurent", laurent)
        object.__setattr__(self, "caps",
                           tuple((n, caps[n]) for n in names if n in caps))

    def _build(self, terms: dict) -> "TruncatedSeries":
        """The series of these terms, truncated at the order and the caps,
        with zero coefficients dropped and integral Fractions made ints."""
        gi, order = self.names.index(self.grade), self.order
        cap_at = [(self.names.index(n), m) for n, m in self.caps]
        clean: dict[Exponents, Coeff] = {}
        for e, c in terms.items():
            if c == 0 or e[gi] > order or (
                    cap_at and any(e[i] > m for i, m in cap_at)):
                continue
            for name, exp in zip(self.names, e):
                if exp < 0 and name not in self.laurent:
                    raise NotInvertible(
                        f"negative exponent on non-Laurent variable {name!r}"
                    )
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            clean[e] = c
        return TruncatedSeries(self, clean)

    def _bounded(self, var: str) -> bool:
        """Whether var's exponent is truncated, so may never be lowered."""
        return var == self.grade or any(n == var for n, _ in self.caps)

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def constant(self, c: Scalar) -> "TruncatedSeries":
        return self.monomial(c)

    def one(self) -> "TruncatedSeries":
        return self.constant(1)

    def monomial(self, coeff: Scalar = 1, **exps: int) -> "TruncatedSeries":
        unknown = set(exps) - set(self.names)
        if unknown:
            raise VariableMismatch(f"unknown variables {sorted(unknown)}")
        e = tuple(exps.get(v, 0) for v in self.names)
        return self._build({e: _frac(coeff)})

    def var(self, name: str) -> "TruncatedSeries":
        return self.monomial(1, **{name: 1})

    def gens(self) -> tuple["TruncatedSeries", ...]:
        return tuple(self.var(n) for n in self.names)


@dataclass(frozen=True)
class TruncatedSeries:
    ring: SeriesRing
    terms: dict

    @property
    def vars(self) -> tuple[str, ...]:
        return self.ring.names

    def _compat(self, other: "TruncatedSeries") -> None:
        if other.ring is not self.ring and other.ring != self.ring:
            raise VariableMismatch(f"incompatible series: {self.ring} vs {other.ring}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return self.ring._build(terms)

    __radd__ = __add__

    def __neg__(self):
        return self.ring._build({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return ring._build({e: v * c for e, v in self.terms.items()})
        self._compat(other)
        gi, order = ring.names.index(ring.grade), ring.order
        out: dict[Exponents, Coeff] = {}
        # iterate over the smaller operand outside
        a, b = (self.terms, other.terms)
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            ga = ea[gi]
            for eb, cb in b.items():
                if ga + eb[gi] > order:
                    continue
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return ring._build(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise NotInvertible("negative powers: use invert")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- views ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Mapping[str, int]) -> Coeff:
        e = tuple(exps.get(v, 0) for v in self.ring.names)
        return self.terms.get(e, 0)

    def cofactor(self, var: str, k: int) -> "TruncatedSeries":
        """Terms with var-exponent exactly k, with that exponent zeroed out."""
        vi = self.ring.names.index(var)
        terms = {
            e[:vi] + (0,) + e[vi + 1 :]: c
            for e, c in self.terms.items()
            if e[vi] == k
        }
        return self.ring._build(terms)

    def assert_no_negative_exponents(self, err, what: str):
        for e in self.terms:
            if any(x < 0 for x in e):
                raise err(f"{what} kept a negative exponent: {dict(zip(self.vars, e))}")

    def assert_integer_coefficients(self, err, what: str):
        for e, c in self.terms.items():
            if c.denominator != 1:
                raise err(f"{what} has non-integer coefficient {c} at {e}")


# -- operations ---------------------------------------------------------------

def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse.

    The grade-constant part must be a single monomial supported only on
    Laurent variables.  Dividing by it leaves 1 + t with t of positive
    grade; the inverse of 1 + t is then built one grade at a time by the
    coefficient recurrence for the reciprocal of a power series (Knuth,
    TAOCP vol. 2, 4.7).
    """
    ring = a.ring
    gi = ring.names.index(ring.grade)
    const = {e: c for e, c in a.terms.items() if e[gi] == 0}
    if len(const) != 1:
        raise NotInvertible(
            f"grade-constant part has {len(const)} terms; need exactly one monomial"
        )
    (e0, c0), = const.items()
    # the ring refuses its negative exponents unless e0 is on Laurent variables
    inv_mono = ring._build({tuple(-x for x in e0): Fraction(1) / c0})
    u = a * inv_mono  # now 1 + t with t of positive grade valuation
    t = u - ring.one()
    if any(e[gi] <= 0 for e in t.terms):
        raise NotInvertible("normalized series still has terms of grade 0 or below")
    t_by_grade = [[] for _ in range(ring.order + 1)]
    for e, c in t.terms.items():
        t_by_grade[e[gi]].append((e, c))
    # b_0 = 1 and b_n = -(t_1 b_{n-1} + ... + t_n b_0), one grade at a time
    b = [{(0,) * len(ring.names): 1}]
    for n in range(1, ring.order + 1):
        bn: dict[Exponents, Coeff] = {}
        for k in range(1, n + 1):
            for et, ct in t_by_grade[k]:
                for eb, cb in b[n - k].items():
                    e = tuple(map(add, et, eb))
                    bn[e] = bn.get(e, 0) - ct * cb
        b.append({e: c for e, c in bn.items() if c})
    return ring._build({e: c for bn in b for e, c in bn.items()}) * inv_mono


def substitute_monomial(a: TruncatedSeries, var: str, coeff: Scalar) -> TruncatedSeries:
    """Evaluate var at the constant coeff.

    Setting var to 0 drops its positive powers and is unsound on a negative
    power.  Evaluating the grade or a capped variable is unsound on a
    positive power: it would pull unknown truncated terms into range.
    """
    ring = a.ring
    if var not in ring.names:
        raise VariableMismatch(f"{var!r} not a series variable")
    c0 = _frac(coeff)
    vi = ring.names.index(var)
    out: dict[Exponents, Coeff] = {}
    for e, c in a.terms.items():
        k = e[vi]
        if k == 0:
            out[e] = out.get(e, 0) + c
            continue
        if c0 == 0:
            if k > 0:
                continue
            raise UnsoundSubstitution("negative power of a variable sent to zero")
        if k > 0 and ring._bounded(var):
            raise UnsoundSubstitution(
                f"substitution lowers the degree in {var} by {k} on "
                f"{dict(zip(ring.names, e))}"
            )
        ne = e[:vi] + (0,) + e[vi + 1 :]
        # a negative power of an int must stay exact, not become a float
        out[ne] = out.get(ne, 0) + c * (c0**k if k > 0 else Fraction(c0) ** k)
    return ring._build(out)


def derivative(a: TruncatedSeries, var: str) -> TruncatedSeries:
    """Partial derivative; unsound in the grade or a capped variable."""
    ring = a.ring
    if var not in ring.names:
        raise VariableMismatch(f"{var!r} not a series variable")
    vi = ring.names.index(var)
    out: dict[Exponents, Coeff] = {}
    for e, c in a.terms.items():
        k = e[vi]
        if k == 0:
            continue
        if ring._bounded(var):
            raise UnsoundSubstitution(f"derivative lowers the degree in {var}")
        ne = e[:vi] + (k - 1,) + e[vi + 1 :]
        out[ne] = out.get(ne, 0) + c * k
    return ring._build(out)


def div_monomial(a: TruncatedSeries, exps: Mapping[str, int]) -> TruncatedSeries:
    """Division by the monomial with these exponents and coefficient 1: a
    shift of every exponent vector.  The ring checks that exponents stay in
    range; a positive shift on the grade or a capped variable is unsound."""
    ring = a.ring
    for var, k in exps.items():
        if k > 0 and ring._bounded(var):
            raise UnsoundSubstitution(
                f"division lowers the degree in {var} by {k}")
    shift = tuple(exps.get(v, 0) for v in ring.names)
    return ring._build({tuple(map(sub, e, shift)): c for e, c in a.terms.items()})


def collapse(
    a: TruncatedSeries, weights: Mapping[str, int], new_var: str
) -> TruncatedSeries:
    """Map every term to new_var**(weighted exponent sum).

    The grade variable needs a positive weight, which makes the result
    complete through the input's order; a ring with caps is refused, since
    its dropped terms would be missing at every order.
    """
    if a.ring.caps:
        raise UnsoundSubstitution("collapse of a series with capped variables")
    unknown = set(weights) - set(a.ring.names)
    if unknown:
        raise VariableMismatch(f"unknown collapse variables {sorted(unknown)}")
    w = tuple(weights.get(v, 0) for v in a.ring.names)
    if any(x < 0 for x in w):
        raise UnsoundSubstitution("collapse weights must be nonnegative")
    if weights.get(a.ring.grade, 0) < 1:
        raise UnsoundSubstitution("collapse needs weight >= 1 on the grade variable")
    out: dict[tuple[int], Coeff] = {}
    for e, c in a.terms.items():
        n = sum(x * y for x, y in zip(e, w))
        if n < 0:
            raise UnsoundSubstitution("collapse produced a negative exponent")
        out[(n,)] = out.get((n,), 0) + c
    return SeriesRing((new_var,), new_var, a.ring.order)._build(out)


def solve_fixed_point(
    phi: Callable[[TruncatedSeries], TruncatedSeries],
    seed: TruncatedSeries,
) -> TruncatedSeries:
    """Iterate phi, at most order + 2 times, until two successive series
    agree exactly."""
    rounds = seed.ring.order + 2
    cur = seed
    for _ in range(rounds):
        nxt = phi(cur)
        if nxt.terms == cur.terms:
            return cur
        cur = nxt
    raise NoContraction(f"no fixed point after {rounds} rounds")


def pochhammer(a: TruncatedSeries, b: TruncatedSeries, k: int) -> TruncatedSeries:
    """prod_{j=0}^{k-1} (1 - a * b**j)."""
    one = a.ring.one()
    out = bj = one
    for _ in range(k):
        out = out * (one - a * bj)
        bj = bj * b
    return out


def continued_fraction(
    level: Callable[[int], TruncatedSeries],
    numerator: TruncatedSeries,
    depth: int,
) -> TruncatedSeries:
    """Evaluate -1 + numerator / (L_1 - numerator / (L_2 - ...)).

    The tail below the deepest level is replaced by the branch the infinite
    fraction actually selects: the deepest denominator is L_depth minus 1,
    which keeps every partial denominator a unit multiple of the numerator.
    Evaluating at depth and depth+1 must give identical series through the
    truncation order, else Unstable is raised.
    """
    if depth < 1:
        raise OutOfRange(f"continued fraction needs depth >= 1, got {depth}")
    first = _cf_eval(level, numerator, depth)
    if first.terms != _cf_eval(level, numerator, depth + 1).terms:
        raise Unstable(f"depth {depth} and {depth + 1} disagree; increase depth")
    return first


def _cf_eval(level, numerator, depth) -> TruncatedSeries:
    nu_terms = list(numerator.terms.items())
    if len(nu_terms) != 1 or nu_terms[0][1] != 1:
        raise NotInvertible(
            "continued-fraction numerator must be a monomial with coefficient 1")
    nu_exps = dict(zip(numerator.ring.names, nu_terms[0][0]))
    one = numerator.ring.one()
    # E_k = S_k / numerator - 1 where S_k is the k-th tail denominator
    ek = div_monomial(level(depth) - one - numerator, nu_exps)
    for k in range(depth - 1, 0, -1):
        s_minus_nu = level(k) - one - numerator + (one - invert(one + ek))
        ek = div_monomial(s_minus_nu, nu_exps)
    return invert(one + ek) - one


# -- serialization -------------------------------------------------------------

def series_json(a: TruncatedSeries) -> dict:
    # integer coefficients stay JSON numbers; true fractions become strings
    terms = [
        {"e": list(e), "c": c if c.denominator == 1 else str(c)}
        for e, c in sorted(a.terms.items())
    ]
    return {
        "vars": list(a.ring.names),
        "grade": a.ring.grade,
        "order": a.ring.order,
        "terms": terms,
    }
