"""Exact truncated multivariate series over the integers.

A TruncatedSeries is its ring plus its terms.  The SeriesRing holds the
variable names, the one grade variable, the truncation order, the variables
that may carry negative (Laurent) exponents and caps on other exponents; it
checks them once and builds every series, dropping each term whose grade
exponent exceeds the order or whose exponent exceeds a cap.
Coefficients and scalars are ints; any other scalar raises NotInteger.
Over the integers a series is invertible exactly when its grade-constant
part is one monomial with coefficient 1 or -1.

Packed layout.  A series stores its terms as a dict from one packed int per
exponent vector (Kronecker substitution) to the coefficient.  Each variable
owns a slot of SLOT_BITS bits plus a guard bit holding its exponent plus a
bias; the grade owns the top slot, so keys sort by grade and "grade within
the order" is the one compare ``key < ring._limit``.  With the zero vector's
key taken off one operand, the key of a product of terms is one int add.  A
capped variable's bias puts an exponent sum over its cap in the guard bit.
Products and quotients group terms by the capped slots of their keys, so one
add and one mask skip a whole pair of groups over a cap: no over-cap product
is ever formed.
Tuples appear only at the boundary: ``SeriesRing._build`` packs a dict of
exponent tuples, and ``TruncatedSeries.terms`` is a cached, read-only view
keyed by exponent tuples in the order of the ring's names.

Range guard.  Every exponent must stay below 2**(SLOT_BITS-1) in absolute
value.  Thanks to the guard bit the sum of two in-range exponents fits its
slot, so a product's key is exact: no slot carries into or borrows from its
neighbour.  The key is in range when no slot is below its low or above its
high value, tested as ``(key - _lo | _hi - key) & _guards``: the lowest slot
out of range sets its guard bit in one of the two differences.  ``__mul__``
tests the terms of its result and ``divide`` each grade's terms before a
later grade uses them; a nonzero term out of range raises OutOfRange.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .errors import (
    CancellationFailure,
    NoContraction,
    NotInteger,
    NotInvertible,
    OutOfRange,
    Unstable,
    UnsoundSubstitution,
    VariableMismatch,
)

Exponents = tuple[int, ...]

SLOT_BITS = 32
_HALF = 1 << (SLOT_BITS - 1)  # every exponent's absolute value stays below it
# a slot is SLOT_BITS bits and a guard bit; an uncapped slot holds its
# exponent plus _BIAS, so the sum of two in-range exponents fits the slot
_BIAS = 1 << SLOT_BITS
_MASK = (1 << (SLOT_BITS + 1)) - 1


def _int(c) -> int:
    """c, refused unless it is exactly an int (not a bool, Fraction or float)."""
    if type(c) is not int:
        raise NotInteger(f"series scalars are ints, got {type(c).__name__} {c!r}")
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
        if self.order < 0:
            raise OutOfRange(f"order {self.order} < 0")
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
            if not 0 <= cap < _HALF:
                raise OutOfRange(f"cap on {name!r} outside [0, {_HALF}): {cap}")
        # the packing: slots in the order of names, the grade's on top; a
        # capped slot's bias puts a sum over the cap in the slot's guard bit
        below = [n for n in names if n != self.grade]
        shift = {n: (SLOT_BITS + 1) * i for i, n in enumerate(below)}
        top = shift[self.grade] = (SLOT_BITS + 1) * len(below)
        bias = {n: _BIAS - 1 - caps[n] if n in caps else _BIAS for n in names}
        fields = {
            "names": names,
            "laurent": laurent,
            "caps": tuple((n, caps[n]) for n in names if n in caps),
            "_slots": tuple((shift[n], bias[n]) for n in names),
            "_capmask": sum(_MASK << shift[n] for n in caps),
            "_capzero": sum(bias[n] << shift[n] for n in caps),
            "_capbits": sum(_BIAS << shift[n] for n in caps),
            # in range, a slot holds its bias plus an exponent in (-_HALF,
            # _HALF); a capped one keeps [0, cap], within that
            "_lo": sum((bias[n] + 1 - _HALF) << shift[n] for n in names),
            "_hi": sum((bias[n] + _HALF - 1) << shift[n] for n in names),
            # none when every exponent is in [0, its cap or the order]
            "_guards": 0 if not laurent and len(caps) == len(below)
            and self.order < _HALF else sum(_BIAS << shift[n] for n in names),
            "_top": top,
            "_zero": sum(bias[n] << shift[n] for n in names),
            "_limit": (self.order + 1 + _BIAS) << top,
        }
        for attr, value in fields.items():
            object.__setattr__(self, attr, value)

    def _unpack(self, key: int) -> Exponents:
        return tuple(((key >> s) & _MASK) - b for s, b in self._slots)

    def _by_caps(self, items: Iterable) -> dict[int, list]:
        """(key, coefficient) pairs grouped by the capped slots of the key.
        For groups x and y, x + y - _capzero is the capped slots of their
        products' keys, and it has a _capbits bit set when one is over its
        cap."""
        mask = self._capmask
        if not mask:
            return {0: list(items)}
        out: dict[int, list] = {}
        for k, c in items:
            out.setdefault(k & mask, []).append((k, c))
        return out

    def _in_range(self, packed: dict) -> dict:
        """These exactly packed terms; OutOfRange if a nonzero one has an
        exponent outside (-_HALF, _HALF)."""
        lo, hi, guards = self._lo, self._hi, self._guards
        if not guards:  # no exponent of this ring can leave the range
            return packed
        for k, c in packed.items():
            if (k - lo | hi - k) & guards and c:
                raise OutOfRange(f"exponents {self._unpack(k)} outside the "
                                 f"{SLOT_BITS}-bit range")
        return packed

    def _build(self, terms: dict) -> "TruncatedSeries":
        """The series of these exponent-tuple terms, truncated at the order
        and the caps, with zero coefficients dropped.  Raises OutOfRange on
        an exponent out of range."""
        gi, order = self.names.index(self.grade), self.order
        cap_at = [(self.names.index(n), m) for n, m in self.caps]
        packed: dict[int, int] = {}
        for e, c in terms.items():
            if c == 0 or e[gi] > order or (
                    cap_at and any(e[i] > m for i, m in cap_at)):
                continue
            key = 0
            for name, exp, (s, b) in zip(self.names, e, self._slots):
                if exp < 0 and name not in self.laurent:
                    raise NotInvertible(
                        f"negative exponent on non-Laurent variable {name!r}")
                if abs(exp) >= _HALF:
                    raise OutOfRange(f"exponent {exp} on {name!r} outside "
                                     f"the {SLOT_BITS}-bit range")
                key += (exp + b) << s
            packed[key] = c
        return self._make(packed)

    def _make(self, packed: dict) -> "TruncatedSeries":
        """The series of these packed terms, whose nonzero ones are in range
        and within the order and caps, with zero coefficients dropped."""
        return TruncatedSeries(self, {k: c for k, c in packed.items() if c})

    def _slot(self, var: str) -> tuple[int, int]:
        """var's (shift, bias) in the packed key; VariableMismatch unless
        var is a variable of this ring."""
        if var not in self.names:
            raise VariableMismatch(f"{var!r} not a series variable")
        return self._slots[self.names.index(var)]

    def _bounded(self, var: str) -> bool:
        """Whether var's exponent is truncated, so may never be lowered."""
        return var == self.grade or any(n == var for n, _ in self.caps)

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def constant(self, c: int) -> "TruncatedSeries":
        return self.monomial(c)

    def one(self) -> "TruncatedSeries":
        return self.constant(1)

    def monomial(self, coeff: int = 1, **exps: int) -> "TruncatedSeries":
        unknown = set(exps) - set(self.names)
        if unknown:
            raise VariableMismatch(f"unknown variables {sorted(unknown)}")
        e = tuple(exps.get(v, 0) for v in self.names)
        return self._build({e: _int(coeff)})

    def var(self, name: str) -> "TruncatedSeries":
        return self.monomial(1, **{name: 1})

    def gens(self) -> tuple["TruncatedSeries", ...]:
        return tuple(self.var(n) for n in self.names)


@dataclass(frozen=True)
class TruncatedSeries:
    """Packed key -> nonzero coefficient.  Two series are equal when their
    rings and terms are."""

    ring: SeriesRing
    packed: dict

    @property
    def vars(self) -> tuple[str, ...]:
        return self.ring.names

    @cached_property
    def terms(self) -> Mapping[Exponents, int]:
        """Read-only view of the terms keyed by exponent tuples."""
        unpack = self.ring._unpack
        return MappingProxyType({unpack(k): c for k, c in self.packed.items()})

    def _compat(self, other: "TruncatedSeries") -> None:
        if other.ring is not self.ring and other.ring != self.ring:
            raise VariableMismatch(f"incompatible series: {self.ring} vs {other.ring}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self.ring.constant(other)
        self._compat(other)
        terms = dict(self.packed)
        get = terms.get
        for k, c in other.packed.items():
            terms[k] = get(k, 0) + c
        return self.ring._make(terms)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ring, {k: -c for k, c in self.packed.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _int(other)  # before -True turns a bool into an int
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring = self.ring
        if not isinstance(other, TruncatedSeries):
            c = _int(other)
            return ring._make({k: v * c for k, v in self.packed.items()})
        self._compat(other)
        a, b = self.packed, other.packed
        # iterate over the smaller operand outside
        if len(a) > len(b):
            a, b = b, a
        # both operands grouped by their capped slots, so no pair over a cap
        # is formed.  In a group of the inner operand the keys less the zero
        # key are sorted, so by grade: ka + kb is the product's key, and the
        # products within the order are those with kb < limit - ka, a prefix
        zero, limit, capbits = ring._zero, ring._limit, ring._capbits
        inner = []
        for xb, terms in ring._by_caps(b.items()).items():
            terms = sorted((k - zero, c) for k, c in terms)
            inner.append((xb - ring._capzero, [k for k, _ in terms], terms))
        out: dict[int, int] = {}
        get = out.get
        for xa, outer in ring._by_caps(a.items()).items():
            for xb, keys, terms in inner:
                if (xa + xb) & capbits:
                    continue
                for ka, ca in outer:
                    for kb, cb in terms[:bisect_left(keys, limit - ka)]:
                        k = ka + kb
                        out[k] = get(k, 0) + ca * cb
        return ring._make(ring._in_range(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise NotInvertible("negative powers: use invert")
        out, base = self.ring.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- views ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def coeff(self, exps: Mapping[str, int]) -> int:
        e = tuple(exps.get(v, 0) for v in self.ring.names)
        return self.terms.get(e, 0)

    def cofactor(self, var: str, k: int) -> "TruncatedSeries":
        """Terms with var-exponent exactly k, with that exponent zeroed out."""
        ring = self.ring
        s, b = ring._slot(var)
        return ring._make({key - (k << s): c for key, c in self.packed.items()
                           if (key >> s) & _MASK == k + b})

    def assert_no_negative_exponents(self, what: str):
        for e in self.terms:
            if any(x < 0 for x in e):
                raise CancellationFailure(
                    f"{what} kept a negative exponent: {dict(zip(self.vars, e))}")


# -- operations ---------------------------------------------------------------

def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse, the quotient 1 / a."""
    return divide(a.ring.one(), a)


def divide(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """The quotient num / den.  den's grade-constant part must be one
    monomial m, coefficient 1 or -1, on Laurent variables only: over the
    integers no other series is invertible.  den / m is 1 + t with t of
    positive grade; q = num / (1 + t) is built one grade at a time by the
    reciprocal's recurrence q_n = num_n - (t_1 q_{n-1} + ... + t_n q_0)
    (Knuth, TAOCP vol. 2, 4.7), and the quotient is q / m."""
    num._compat(den)
    ring = den.ring
    top, zero, order = ring._top, ring._zero, ring.order
    capmask, capzero, capbits = ring._capmask, ring._capzero, ring._capbits
    const = [(k, c) for k, c in den.packed.items() if k >> top == _BIAS]
    if len(const) != 1:
        raise NotInvertible(f"grade-constant part has {len(const)} terms; "
                            "need exactly one monomial")
    (k0, c0), = const
    if c0 not in (1, -1):
        raise NotInvertible(f"grade-constant coefficient {c0} is not 1 or -1")
    # 1 / c0 is c0, and the ring refuses -k0 unless k0 is on Laurent
    # variables; when den is 1 + t already, both products by it are skipped
    inv_mono = None if k0 == zero and c0 == 1 else ring._build(
        {tuple(-x for x in ring._unpack(k0)): c0})
    t = (den if inv_mono is None else den * inv_mono) - ring.one()
    if t.packed and min(t.packed) < (_BIAS + 1) << top:
        raise NotInvertible("normalized series still has terms of grade 0 or below")
    # t and q by grade, grouped by the capped slots of their keys (t's less
    # capzero, q's absolute), so that no product over a cap is formed
    t_by_grade = [{} for _ in range(order + 1)]
    for k, c in t.packed.items():
        t_by_grade[(k >> top) - _BIAS].setdefault(
            (k & capmask) - capzero, []).append((k - zero, c))
    low = min((k >> top for k in num.packed), default=_BIAS + order + 1) - _BIAS
    q = [{} for _ in range(low, order + 1)]  # q[i] is q_{low + i}
    for k, c in num.packed.items():
        q[(k >> top) - _BIAS - low].setdefault(k & capmask, {})[k] = c
    # every product has grade low + i, so only the caps can drop it; q_n's
    # keys are exact while q_{n-1}, ..., q_low are in range
    for i, qn in enumerate(q):
        for k in range(1, min(i, order) + 1):
            for xt, terms in t_by_grade[k].items():
                for xb, bx in q[i - k].items():
                    x = xt + xb
                    if x & capbits:
                        continue
                    out = qn.setdefault(x, {})
                    get = out.get
                    for kt, ct in terms:
                        for kb, cb in bx.items():
                            key = kt + kb
                            out[key] = get(key, 0) - ct * cb
        q[i] = {x: nz for x, out in qn.items()
                if (nz := ring._in_range({k: c for k, c in out.items() if c}))}
    out = ring._make({k: c for qn in q for out in qn.values()
                      for k, c in out.items()})
    return out if inv_mono is None else out * inv_mono


def evaluate_at_one(a: TruncatedSeries, var: str) -> TruncatedSeries:
    """Evaluate var at 1: zero its exponent in every key.

    Unsound on a positive power of the grade or a capped variable: it would
    pull unknown truncated terms into range.
    """
    ring = a.ring
    s, b = ring._slot(var)
    bounded = ring._bounded(var)
    out: dict[int, int] = {}
    for key, c in a.packed.items():
        k = ((key >> s) & _MASK) - b
        if k > 0 and bounded:
            raise UnsoundSubstitution(
                f"evaluation lowers the degree in {var} by {k} on "
                f"{dict(zip(ring.names, ring._unpack(key)))}")
        key -= k << s
        out[key] = out.get(key, 0) + c
    return ring._make(out)


def derivative(a: TruncatedSeries, var: str) -> TruncatedSeries:
    """Partial derivative; unsound in the grade or a capped variable."""
    ring = a.ring
    s, b = ring._slot(var)
    out: dict[int, int] = {}
    for key, c in a.packed.items():
        k = ((key >> s) & _MASK) - b
        if k and ring._bounded(var):
            raise UnsoundSubstitution(f"derivative lowers the degree in {var}")
        out[key - (1 << s)] = c * k  # zero, so dropped, when k is 0
    return ring._make(ring._in_range(out))


def div_monomial(a: TruncatedSeries, exps: Mapping[str, int]) -> TruncatedSeries:
    """Division by the monomial with these exponents and coefficient 1: a
    shift of every exponent vector.  The ring checks that exponents stay in
    range; a positive shift on the grade or a capped variable is unsound."""
    ring = a.ring
    unknown = set(exps) - set(ring.names)
    if unknown:
        raise VariableMismatch(f"unknown variables {sorted(unknown)}")
    for var, k in exps.items():
        if k > 0 and ring._bounded(var):
            raise UnsoundSubstitution(
                f"division lowers the degree in {var} by {k}")
    shift = tuple(exps.get(v, 0) for v in ring.names)
    return ring._build({tuple(map(sub, e, shift)): c for e, c in a.terms.items()})


def collapse(a: TruncatedSeries, weights: Mapping[str, int],
             new_var: str) -> TruncatedSeries:
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
    out: dict[tuple[int], int] = {}
    for e, c in a.terms.items():
        n = sum(x * y for x, y in zip(e, w))
        if n < 0:
            raise UnsoundSubstitution("collapse produced a negative exponent")
        out[(n,)] = out.get((n,), 0) + c
    return SeriesRing((new_var,), new_var, a.ring.order)._build(out)


def solve_fixed_point(phi: Callable[[TruncatedSeries], TruncatedSeries],
                      seed: TruncatedSeries) -> TruncatedSeries:
    """Iterate phi, at most order + 2 times, until two successive series
    agree exactly."""
    rounds = seed.ring.order + 2
    cur = seed
    for _ in range(rounds):
        nxt = phi(cur)
        if nxt == cur:
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


def continued_fraction(level: Callable[[int], TruncatedSeries],
                       numerator: TruncatedSeries) -> TruncatedSeries:
    """Evaluate -1 + numerator / (L_1 - numerator / (L_2 - ...)).

    The depth is the truncation order plus 2, enough for the peak/valley
    fraction, whose level k carries q^k.  The tail below the deepest level
    is replaced by the branch the infinite fraction actually selects: the
    deepest denominator is L_depth minus 1, which keeps every partial
    denominator a unit multiple of the numerator.  Evaluating at depth and
    depth+1 must give identical series through the truncation order, else
    Unstable is raised.
    """
    depth = numerator.ring.order + 2
    first = _cf_eval(level, numerator, depth)
    if first != _cf_eval(level, numerator, depth + 1):
        raise Unstable(f"depth {depth} and {depth + 1} disagree: the levels "
                       f"grow too slowly in the grade")
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
    return {
        "vars": list(a.ring.names),
        "grade": a.ring.grade,
        "order": a.ring.order,
        "terms": [{"e": list(e), "c": c} for e, c in sorted(a.terms.items())],
    }
