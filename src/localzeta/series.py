"""Polynomials, truncated power series and rational functions over QScalar.

The formal variable is written T throughout; in the zeta-integral modules it
stands for q^(-3s), while the Bessel generating function uses an auxiliary
variable y that gets substituted by a scalar multiple of T later on.
Rational functions are compared by expanding both sides into truncated
series, never by cross-multiplication, so no polynomial gcd over a ring
with zero divisors is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DivisionByNonUnit, InvalidArgument
from .scalars import QScalar

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


class Poly:
    """Polynomial with QScalar coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs, q: int):
        cs = _promote(coeffs, q)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def one(q: int) -> "Poly":
        return Poly([1], q)

    @staticmethod
    def zero(q: int) -> "Poly":
        return Poly([], q)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def constant(self) -> QScalar:
        return self.coeffs[0] if self.coeffs else QScalar.zero(self.q)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = QScalar.zero(self.q)
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)], self.q)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.q)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QScalar)):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.q)
        out = [QScalar.zero(self.q)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.q)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if not isinstance(c, QScalar):
            c = QScalar(Fraction(c), 0, self.q)
        return Poly([a * c for a in self.coeffs], self.q)

    def substitute_scaled(self, c: QScalar) -> "Poly":
        """p(y) -> p(c*T): multiply the k-th coefficient by c^k."""
        return Poly([a * c**k for k, a in enumerate(self.coeffs)], self.q)

    def eval(self, t: QScalar) -> QScalar:
        acc = QScalar.zero(self.q)
        for a in reversed(self.coeffs):
            acc = acc * t + a
        return acc

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.q == other.q
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.q))

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]}, q={self.q})"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


class Series:
    """Power series truncated at a fixed order (inclusive)."""

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs, q: int):
        cs = _promote(coeffs, q)
        if not cs:
            raise InvalidArgument("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (isinstance(other, Series) and self.q == other.q
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.q))

    def __repr__(self):
        return f"Series({[str(c) for c in self.coeffs]}, q={self.q})"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


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

    Both operands stay unpadded: coefficient k is read from num only while
    k <= deg(num), and den contributes only its stored coefficients, so the
    inner loop runs to min(k, deg(den)).  Only the constant term of den is
    ever inverted; in this package it is always 1.
    """
    if order < 0:
        raise InvalidArgument("order must be >= 0")
    d0 = den.constant()
    if d0.norm() == 0:
        raise DivisionByNonUnit("series division by non-invertible constant term")
    d0inv = d0.inverse()
    zero = QScalar.zero(num.q)
    a, d = num.coeffs, den.coeffs
    out: list[QScalar] = []
    for k in range(order + 1):
        acc = a[k] if k < len(a) else zero
        for j in range(1, min(k, den.degree) + 1):
            acc = acc - d[j] * out[k - j]
        out.append(acc * d0inv)
    return Series(out, num.q)


def series_equal(a: Series, b: Series) -> SeriesComparison:
    """Compare up to min(order); report the first mismatching coefficient."""
    n = min(a.order, b.order)
    for i in range(n + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return SeriesComparison(False, i, a.coeffs[i], b.coeffs[i])
    return SeriesComparison(True)


class RatFn:
    """Quotient of polynomials; the denominator constant term must be 1.

    The representation is not required to be reduced: the L-factor
    assemblies routinely produce common factors, which cancel only after
    expansion into series.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: Poly, denom: Poly):
        if numer.q != denom.q:
            raise InvalidArgument("numerator and denominator q mismatch")
        if not denom.constant().is_one():
            raise InvalidArgument("denominator constant term must be 1")
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)

    def __setattr__(self, name, value):
        raise AttributeError("RatFn is immutable")

    @property
    def q(self) -> int:
        return self.numer.q

    @staticmethod
    def one(q: int) -> "RatFn":
        return RatFn(Poly.one(q), Poly.one(q))

    @staticmethod
    def inverse_poly(p: Poly) -> "RatFn":
        """1 / p, the shape of every L-factor."""
        return RatFn(Poly.one(p.q), p)

    def __mul__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.numer * other.numer, self.denom * other.denom)

    def __truediv__(self, other: "RatFn") -> "RatFn":
        if not other.numer.constant().is_one():
            raise InvalidArgument(
                "can only divide by a rational function with unit "
                "numerator constant term")
        return RatFn(self.numer * other.denom, self.denom * other.numer)

    def to_series(self, order: int = DEFAULT_ORDER) -> Series:
        """Taylor expansion at T = 0."""
        return series_div(self.numer, self.denom, order)

    def eval_at(self, t: QScalar) -> QScalar:
        """Evaluate at a scalar point; the denominator must be invertible there."""
        return self.numer.eval(t) * self.denom.eval(t).inverse()

    def __repr__(self):
        return f"RatFn({self.numer!r} / {self.denom!r})"

    def to_json(self):
        return {"numer": self.numer.to_json(), "denom": self.denom.to_json()}
