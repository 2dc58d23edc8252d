"""Polynomials, truncated power series and rational functions over QScalar.

The formal variable is written T throughout; in the zeta-integral modules it
stands for q^(-3s), while the Bessel generating function uses an auxiliary
variable y that gets substituted by a scalar multiple of T later on.
Rational functions are compared by expanding both sides into truncated
series, never by cross-multiplication, so no polynomial gcd over a ring
with zero divisors is ever needed.

Both layers compute on unreduced int triples (u, v, d), standing for
(u + v*sqrt(q)) / d with d > 0, and take no gcd inside their loops.  A Poly
keeps canonical QScalar coefficients: Euler products, products,
substitution and evaluation read their ints, compute on triples (over one
common denominator where coefficients are summed), and reduce each finished
coefficient once, so that the lcm denominators of series division stay
small.  A Series keeps the triples themselves.  Series division runs on
plain ints: with E the lcm of the denominator's coefficient denominators
and A that of the numerator's, coefficient k is (u_k + v_k*sqrt(q)) /
(A*E^k) for integers u_k, v_k obeying an integer recurrence.  Two series
are compared by cross-multiplying the triples, which is exact because
sqrt(q) stays formal, also for a perfect-square q.  A series coefficient is
put in canonical QScalar form only when it is read: through coeffs,
to_json, or as the first mismatch of a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import DivisionByNonUnit, InvalidArgument, require_int
from .scalars import QScalar, _mul, _reduced

DEFAULT_ORDER = 12


def _promote(values: Iterable, q: int) -> list[QScalar]:
    out = []
    for v in values:
        if isinstance(v, QScalar):
            if v.q != q:
                raise InvalidArgument("coefficient with mismatched q")
            out.append(v)
        else:
            out.append(QScalar(v, 0, q))
    return out


@dataclass(frozen=True, slots=True)
class Poly:
    """Polynomial with canonical QScalar coefficients, trailing zeros trimmed.

    Equality and hashing go by value.  euler, *, substitute_scaled and eval
    compute on int triples and reduce each finished coefficient once.
    """

    coeffs: tuple[QScalar, ...]
    q: int

    def __post_init__(self):
        cs = _promote(self.coeffs, self.q)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def one(q: int) -> "Poly":
        return Poly([1], q)

    @staticmethod
    def zero(q: int) -> "Poly":
        return Poly([], q)

    @staticmethod
    def euler(cs: Iterable[QScalar], q: int, step: int = 1) -> "Poly":
        """prod_c (1 - c T^step), the inverse of an Euler-product L-factor.

        The product is kept as int pairs over one common denominator D.
        Each factor c = (a + b sqrt(q))/e multiplies it by e - (a + b
        sqrt(q)) T^step and D by e, in place from the top down, so the
        pair at i - step is still the old one when the pair at i reads it.
        No gcd is taken until _poly reduces the finished coefficients.
        """
        us, vs, D = [1], [0], 1
        for c in _promote(cs, q):
            a, b, e = c.a, c.b, c.d
            if not (a or b):
                continue
            bq = b * q
            us += [0] * step
            vs += [0] * step
            for i in range(len(us) - 1, -1, -1):
                u, v = us[i] * e, vs[i] * e
                if i >= step:
                    x, y = us[i - step], vs[i - step]
                    u -= a * x + bq * y
                    v -= a * y + b * x
                us[i], vs[i] = u, v
            D *= e
        return _poly([(u, v, D) for u, v in zip(us, vs)], q)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def constant(self) -> QScalar:
        return self.coeffs[0] if self.coeffs else QScalar.zero(self.q)

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def __mul__(self, other: "Poly") -> "Poly":
        """The product, by int convolution over the two common
        denominators."""
        if not isinstance(other, Poly):
            return NotImplemented
        q = self.q
        if other.q != q:
            raise InvalidArgument(
                f"mixed ambient cardinalities: {q} vs {other.q}")
        if other.is_one():
            return self
        if self.is_one():
            return other
        au, av, A = _over_lcm(self.coeffs)
        bu, bv, B = _over_lcm(other.coeffs)
        n = len(au) + len(bu) - 1
        us, vs = [0] * n, [0] * n
        for i, (x, y) in enumerate(zip(au, av)):
            if not (x or y):
                continue
            yq = y * q
            for j, (s, t) in enumerate(zip(bu, bv), i):
                us[j] += x * s + yq * t
                vs[j] += x * t + y * s
        D = A * B
        return _poly([(u, v, D) for u, v in zip(us, vs)], q)

    def substitute_scaled(self, c: QScalar) -> "Poly":
        """p(y) -> p(c*T): multiply the k-th coefficient by c^k, with c^k
        carried forward as one unreduced triple."""
        q = self.q
        c = _promote([c], q)[0]
        unit, power = (c.a, c.b, c.d), (1, 0, 1)
        terms = []
        for x in self.coeffs:
            terms.append(_mul((x.a, x.b, x.d), power, q))
            power = _mul(power, unit, q)
        return _poly(terms, q)

    def eval(self, t: QScalar) -> QScalar:
        """p(t) by Horner's rule on one unreduced triple, reduced once."""
        q = self.q
        t = _promote([t], q)[0]
        t, acc = (t.a, t.b, t.d), (0, 0, 1)
        for x in reversed(self.coeffs):
            u, v, d = _mul(acc, t, q)
            acc = (u * x.d + x.a * d, v * x.d + x.b * d, d * x.d)
        return _reduced(*acc, q)


def _over_lcm(coeffs: Sequence[QScalar]) -> tuple[list[int], list[int], int]:
    """(us, vs, D) with coeffs[k] = (us[k] + vs[k] sqrt(q)) / D, over D the
    lcm of the coefficients' denominators."""
    D = lcm(*(c.d for c in coeffs))
    return ([c.a * (D // c.d) for c in coeffs],
            [c.b * (D // c.d) for c in coeffs], D)


def _poly(terms: list[tuple[int, int, int]], q: int) -> Poly:
    """The Poly whose coefficient k is the triple terms[k], each reduced
    once; the public constructor's checks are skipped, since the triples
    come from checked coefficients."""
    while terms and not (terms[-1][0] or terms[-1][1]):
        terms.pop()
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs",
                       tuple(_reduced(u, v, d, q) for u, v, d in terms))
    object.__setattr__(p, "q", q)
    return p


@dataclass(frozen=True, slots=True, eq=False)
class Series:
    """Power series truncated at a fixed order (inclusive).

    Coefficient k is (u + v*sqrt(q)) / d for (u, v, d) = terms[k], with
    d > 0 and the triple not necessarily reduced; series_div and
    series_twist build the triples with int arithmetic alone.  Equality
    and hashing go by value.
    """

    terms: tuple[tuple[int, int, int], ...]
    q: int

    @property
    def coeffs(self) -> tuple[QScalar, ...]:
        """The coefficients as canonical QScalars, reduced on each read."""
        q = self.q
        return tuple(_reduced(u, v, d, q) for u, v, d in self.terms)

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.q == other.q and len(self.terms) == len(other.terms)
                and _first_mismatch(self.terms, other.terms) is None)

    def __hash__(self):
        return hash((self.coeffs, self.q))


def _first_mismatch(xs, ys) -> Optional[int]:
    """Index of the first pair of terms with different values, over the
    shorter of the two, or None: (u + v√q)/d = (x + y√q)/e exactly when
    u*e = x*d and v*e = y*d, since √q is formal and d, e > 0."""
    for i, ((u, v, d), (x, y, e)) in enumerate(zip(xs, ys)):
        if u * e != x * d or v * e != y * d:
            return i
    return None


@dataclass(frozen=True)
class SeriesComparison:
    """Outcome of comparing two series coefficient by coefficient."""

    match: bool
    index: Optional[int] = None
    left: Optional[QScalar] = None
    right: Optional[QScalar] = None

    def to_json(self):
        if self.match:
            return {"match": True}
        return {
            "match": False,
            "index": self.index,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }


def series_div(num: Poly, den: Poly, order: int) -> Series:
    """Taylor coefficients 0..order of num/den at T = 0.

    den must have constant term 1, as every RatFn denominator has, so no
    coefficient is ever divided; any other den raises DivisionByNonUnit.

    The recurrence out[k] = a_k - sum_j c_j out[k-j] runs on int pairs.
    With E the lcm of the denominators of the c_j and A that of the a_k,
    out[k] = (u_k + v_k sqrt(q)) / (A E^k), where

        u_k + v_k sqrt(q) = A E^k a_k
                            - sum_j (E^j c_j) (u_{k-j} + v_{k-j} sqrt(q))

    and every E^j c_j is an int pair, computed once.  The sum runs over the
    nonzero c_j, 1 <= j <= min(k, deg(den)), only, and a_k is read only
    while k <= deg(num).  The loop takes no gcd and builds no QScalar: the
    result keeps the triples (u_k, v_k, A E^k) unreduced.
    """
    require_int("order", order)
    if order < 0:
        raise InvalidArgument("order must be >= 0")
    q = num.q
    if den.q != q:
        raise InvalidArgument(
            f"mixed ambient cardinalities: {q} vs {den.q}")
    if not den.constant().is_one():
        raise DivisionByNonUnit(
            "series division needs a denominator with constant term 1")
    E = lcm(*(c.d for c in den.coeffs))
    # (j, u, v, v*q) of E^j c_j for the nonzero c_j, j >= 1
    den_terms = []
    Ej = 1
    for j, c in enumerate(den.coeffs[1:], 1):
        Ej *= E
        if not c.is_zero():
            s = Ej // c.d
            den_terms.append((j, c.a * s, c.b * s, c.b * s * q))
    au, av, A = _over_lcm(num.coeffs[:order + 1])
    out: list[tuple[int, int, int]] = []
    Ek = 1  # E^k
    for k in range(order + 1):
        if k < len(au):
            u, v = au[k] * Ek, av[k] * Ek
        else:
            u = v = 0
        for j, cu, cv, cvq in den_terms:
            if j > k:
                break
            x, y, _ = out[k - j]
            u -= cu * x + cvq * y
            v -= cu * y + cv * x
        out.append((u, v, A * Ek))
        Ek *= E
    return Series(tuple(out), q)


def series_equal(a: Series, b: Series) -> SeriesComparison:
    """Compare up to min(order); report the first mismatching coefficient.

    The terms are cross-multiplied, not reduced; only a mismatch is put in
    canonical form, for the report.  Series over different q differ at 0.
    """
    i = 0 if a.q != b.q else _first_mismatch(a.terms, b.terms)
    if i is None:
        return SeriesComparison(True)
    return SeriesComparison(False, i, _reduced(*a.terms[i], a.q),
                            _reduced(*b.terms[i], b.q))


def series_twist(s: Series, unit: QScalar,
                 weights: Sequence[tuple[int, int, int]]) -> Series:
    """The series with coefficient l equal to s_l * unit^l * weights[l], for
    weights given as int triples: int arithmetic on the triples, with unit^l
    carried as one, no gcd."""
    q = s.q
    unit, power = (unit.a, unit.b, unit.d), (1, 0, 1)
    terms = []
    for t, w in zip(s.terms, weights):
        if w[0] or w[1]:
            terms.append(_mul(_mul(t, power, q), w, q))
        else:
            terms.append((0, 0, 1))
        power = _mul(power, unit, q)
    return Series(tuple(terms), q)


@dataclass(frozen=True, slots=True)
class RatFn:
    """Quotient of polynomials; the denominator constant term must be 1.

    The representation is not required to be reduced: the L-factor
    assemblies routinely produce common factors, which cancel only after
    expansion into series.
    """

    numer: Poly
    denom: Poly

    def __post_init__(self):
        if self.numer.q != self.denom.q:
            raise InvalidArgument("numerator and denominator q mismatch")
        if not self.denom.constant().is_one():
            raise InvalidArgument("denominator constant term must be 1")

    def to_series(self, order: int = DEFAULT_ORDER) -> Series:
        """Taylor expansion at T = 0."""
        return series_div(self.numer, self.denom, order)

    def eval_at(self, t: QScalar) -> QScalar:
        """Evaluate at a scalar point; the denominator must be invertible there."""
        return self.numer.eval(t) * self.denom.eval(t).inverse()
