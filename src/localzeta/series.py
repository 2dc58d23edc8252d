"""Polynomials, truncated power series and rational functions over QScalar.

The formal variable is written T throughout; in the zeta-integral modules it
stands for q^(-3s), while the Bessel generating function uses an auxiliary
variable y that gets substituted by a scalar multiple of T later on.
Rational functions are compared by expanding both sides into truncated
series, never by cross-multiplication, so no polynomial gcd over a ring
with zero divisors is ever needed.

A Series keeps each coefficient as an unreduced int triple (u, v, d),
standing for (u + v*sqrt(q)) / d with d > 0.  Series division runs on
plain ints: with E the lcm of the denominator's coefficient denominators
and A that of the numerator's, coefficient k is (u_k + v_k*sqrt(q)) /
(A*E^k) for integers u_k, v_k obeying an integer recurrence.  Two series
are compared by cross-multiplying the triples, which is exact because
sqrt(q) stays formal, also for a perfect-square q.  A coefficient is put
in canonical QScalar form only when it is read: through coeffs, to_json,
or as the first mismatch of a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import DivisionByNonUnit, InvalidArgument, require_int
from .scalars import QScalar, _reduced

DEFAULT_ORDER = 12


def _promote(values: Iterable, q: int) -> list[QScalar]:
    out = []
    for v in values:
        if isinstance(v, QScalar):
            if v.q != q:
                raise InvalidArgument("coefficient with mismatched q")
            out.append(v)
        else:
            out.append(QScalar(Fraction(v), 0, q))
    return out


@dataclass(frozen=True, slots=True)
class Poly:
    """Polynomial with QScalar coefficients, trailing zeros trimmed."""

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

        Each factor multiplies one coefficient list in place, from the top
        down, so out[i - step] is still the old value when out[i] reads
        it; zero entries of the list are skipped.
        """
        zero = QScalar.zero(q)
        out = [QScalar.one(q)]
        for c in _promote(cs, q):
            if c.is_zero():
                continue
            out += [zero] * step
            for i in range(len(out) - 1, step - 1, -1):
                x = out[i - step]
                if not x.is_zero():
                    out[i] = out[i] - c * x
        return Poly(out, q)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def constant(self) -> QScalar:
        return self.coeffs[0] if self.coeffs else QScalar.zero(self.q)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.q)
        out = [QScalar.zero(self.q)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.q)

    def substitute_scaled(self, c: QScalar) -> "Poly":
        """p(y) -> p(c*T): multiply the k-th coefficient by c^k."""
        return Poly([a * c**k for k, a in enumerate(self.coeffs)], self.q)

    def eval(self, t: QScalar) -> QScalar:
        acc = QScalar.zero(self.q)
        for a in reversed(self.coeffs):
            acc = acc * t + a
        return acc


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Series:
    """Power series truncated at a fixed order (inclusive).

    Coefficient k is (u + v*sqrt(q)) / d for (u, v, d) = terms[k], with
    d > 0 and the triple not necessarily reduced.  Series(coeffs, q) takes
    QScalars, ints or Fractions; Series.unreduced takes triples built with
    int arithmetic alone.  Equality and hashing go by value.
    """

    terms: tuple[tuple[int, int, int], ...]
    q: int
    _coeffs: Optional[tuple[QScalar, ...]]  # canonical form, once read

    def __init__(self, coeffs: Iterable, q: int):
        cs = tuple(_promote(coeffs, q))
        if not cs:
            raise InvalidArgument("a series needs at least the constant term")
        object.__setattr__(self, "terms", tuple((c.a, c.b, c.d) for c in cs))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_coeffs", cs)

    @staticmethod
    def unreduced(terms: Sequence[tuple[int, int, int]], q: int) -> "Series":
        """The series with coefficients (u + v*sqrt(q)) / d, (u, v, d) in
        terms, each d > 0; nothing is reduced until a coefficient is read."""
        s = object.__new__(Series)
        object.__setattr__(s, "terms", tuple(terms))
        object.__setattr__(s, "q", q)
        object.__setattr__(s, "_coeffs", None)
        return s

    @property
    def coeffs(self) -> tuple[QScalar, ...]:
        """The coefficients as canonical QScalars, reduced on the first read."""
        if self._coeffs is None:
            q = self.q
            object.__setattr__(self, "_coeffs", tuple(
                _reduced(u, v, d, q) for u, v, d in self.terms))
        return self._coeffs

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

    def __repr__(self):
        return f"Series(coeffs={self.coeffs!r}, q={self.q})"


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
    A = lcm(*(c.d for c in num.coeffs))
    # (j, u, v, v*q) of E^j c_j for the nonzero c_j, j >= 1
    den_terms = []
    Ej = 1
    for j, c in enumerate(den.coeffs[1:], 1):
        Ej *= E
        if not c.is_zero():
            s = Ej // c.d
            den_terms.append((j, c.a * s, c.b * s, c.b * s * q))
    au = [c.a * (A // c.d) for c in num.coeffs[:order + 1]]
    av = [c.b * (A // c.d) for c in num.coeffs[:order + 1]]
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
    return Series.unreduced(out, q)


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
