"""Exact arithmetic in the quadratic coefficient ring Q[x]/(x^2 - q).

Every scalar appearing in the non-archimedean formulas is of the form
a + b*sqrt(q) with rational a, b, where q is the residue field cardinality.
The square root is treated as a formal symbol even when q is a perfect
square, so identities verified here hold for every specialization.

A scalar is stored as four ints a, b, d, q standing for (a + b*sqrt(q)) / d,
in the canonical form d > 0 and gcd(a, b, d) = 1 (zero is (0, 0, 1)).  Equal
values therefore have equal fields, so equality and hashing compare ints,
and each ring operation is integer arithmetic plus one gcd.

_reduced builds the canonical QScalar of ints (a, b, d), d > 0, with one
gcd and none of the constructor's checks.  series puts each finished int
triple of the exact core in canonical form with it, and zeta's sweep draws
build their values with it.  _monomial writes (prod values)^(+-1) q^(n/2),
each Euler-product root and scale of the exact core, as one unreduced triple:
the one inverse and q^(n/2) of the package.  QScalar.monomial reduces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidArgument, InvalidInversion, require_known_keys


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise InvalidArgument(f"zero denominator in {x!r}") from None
    raise InvalidArgument(f"not a rational value: {x!r}")


def require_q(q) -> None:
    """Raise InvalidArgument unless q, the residue field cardinality, is an
    int >= 2."""
    if q is None:
        raise InvalidArgument("QScalar requires the ambient cardinality q")
    if not isinstance(q, int) or q < 2:
        raise InvalidArgument(f"q must be an integer >= 2, got {q!r}")


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class QScalar:
    """Element rat + sqrt * √q of the ring Q[x]/(x^2 - q), as (a + b√q)/d.

    Values are immutable.  The ring operations are +, -, unary -, *,
    inverse() of a unit and integer powers; a plain int or Fraction on
    either side of +, - or * is promoted to a rational element of the same
    ring.
    """

    a: int
    b: int
    d: int
    q: int

    def __init__(self, rat, sqrt=0, q=None):
        require_q(q)
        if rat.__class__ is int and sqrt.__class__ is int:
            a, b, d = rat, sqrt, 1
        else:
            rat, sqrt = _as_fraction(rat), _as_fraction(sqrt)
            # over the lcm of the reduced denominators, gcd(a, b, d) is 1
            r, s = rat.denominator, sqrt.denominator
            d = r // gcd(r, s) * s
            a, b = rat.numerator * (d // r), sqrt.numerator * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)
        _set_q(self, q)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(q: int) -> "QScalar":
        return QScalar(0, 0, q)

    @staticmethod
    def one(q: int) -> "QScalar":
        return QScalar(1, 0, q)

    @staticmethod
    def monomial(values, q: int, half_power: int = 0,
                 invert: bool = False) -> "QScalar":
        """(prod values)^(+-1) q^(half_power/2), by _monomial, reduced once."""
        require_q(q)
        return _reduced(*_monomial(values, q, half_power, invert), q)

    @staticmethod
    def q_half_power(n: int, q: int) -> "QScalar":
        """q^(n/2) for any integer n (n may be negative)."""
        return QScalar.monomial((), q, n)

    # -- views -------------------------------------------------------

    @property
    def rat(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def sqrt(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- helpers -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QScalar):
            if other.q != self.q:
                raise InvalidArgument(
                    f"mixed ambient cardinalities: {self.q} vs {other.q}")
            return other
        if isinstance(other, (int, Fraction)):
            return QScalar(other, 0, self.q)
        return None

    # -- ring operations ---------------------------------------------

    def __add__(self, o):
        if o.__class__ is not QScalar or o.q != self.q:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        d, e = self.d, o.d
        return _reduced(self.a * e + o.a * d, self.b * e + o.b * d, d * e,
                        self.q)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d, self.q)

    def __sub__(self, o):
        o = self._coerce(o)
        return NotImplemented if o is None else self.__add__(-o)

    def __rsub__(self, o):
        return (-self).__add__(o)

    def __mul__(self, o):
        if o.__class__ is not QScalar or o.q != self.q:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        # (a + b sqrt(q))(c + e sqrt(q)) = (ac + beq) + (ae + bc) sqrt(q)
        a, b, c, e, q = self.a, self.b, o.a, o.b, self.q
        return _reduced(a * c + b * e * q, a * e + b * c, self.d * o.d, q)

    __rmul__ = __mul__

    def inverse(self) -> "QScalar":
        return QScalar.monomial((self,), self.q, invert=True)

    def __pow__(self, k: int) -> "QScalar":
        if not isinstance(k, int):
            raise InvalidArgument("exponent must be an integer")
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        result = QScalar.one(self.q)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- predicates and conversions ----------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == self.d == 1 and self.b == 0

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, QScalar) else other
        if not isinstance(o, QScalar):
            return NotImplemented
        return (self.a == o.a and self.b == o.b and self.d == o.d
                and self.q == o.q)

    def __hash__(self):
        return hash((self.a, self.b, self.d, self.q))

    def __float__(self) -> float:
        return float(self.rat) + float(self.sqrt) * float(self.q) ** 0.5

    def __repr__(self):
        return f"QScalar({self.rat}, {self.sqrt}, q={self.q})"

    # -- JSON encoding -----------------------------------------------

    def to_json(self) -> dict:
        return {"rat": str(self.rat), "sqrt": str(self.sqrt)}

    @staticmethod
    def from_json(obj, q: int) -> "QScalar":
        if isinstance(obj, (int, str)):
            return QScalar(obj, 0, q)
        if not isinstance(obj, dict):
            raise InvalidArgument(f"cannot decode QScalar from {obj!r}")
        require_known_keys("a scalar", obj, ("rat", "sqrt"))
        return QScalar(obj.get("rat", 0), obj.get("sqrt", 0), q)


def require_unit(name: str, value, q, error=InvalidArgument) -> QScalar:
    """value, if it is an invertible QScalar of the ring at q, as every
    character value is; else raise error."""
    if not isinstance(value, QScalar) or value.q != q:
        raise error(f"{name} must be a QScalar with q={q}")
    a, b = value.a, value.b
    if a * a - q * b * b == 0:
        raise error(f"{name} must be invertible")
    return value


# Internal results skip __init__: _reduced writes them, in canonical form,
# straight into the frozen slots.
_set_a, _set_b, _set_d, _set_q = (
    QScalar.a.__set__, QScalar.b.__set__, QScalar.d.__set__, QScalar.q.__set__)
_alloc = object.__new__


def _reduced(a: int, b: int, d: int, q: int) -> QScalar:
    """(a + b sqrt(q)) / d in canonical form; d must be > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    x = _alloc(QScalar)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    _set_q(x, q)
    return x


def _scalar(v, q: int) -> QScalar:
    """v in the ring at q: a QScalar with that q, or a rational value."""
    if not isinstance(v, QScalar):
        return QScalar(v, 0, q)
    if v.q != q:
        raise InvalidArgument(f"mixed ambient cardinalities: {q} vs {v.q}")
    return v


def _monomial(values, q: int, half_power: int = 0,
              invert: bool = False) -> tuple[int, int, int]:
    """(prod values)^(+-1) q^(half_power/2), -1 when invert, as one unreduced
    triple (a, b, e), e > 0, for (a + b sqrt(q))/e: no gcd.  The values are
    QScalars at q or rationals.  The inverse is e (a - b sqrt(q)) / N, N =
    a^2 - q b^2, negated above and below when N < 0; N = 0 raises
    InvalidInversion."""
    a, b, e = 1, 0, 1
    for c in values:
        c = _scalar(c, q)
        x, y = c.a, c.b
        a, b, e = a * x + b * y * q, a * y + b * x, e * c.d
    if invert:
        n = a * a - q * b * b
        if n == 0:
            raise InvalidInversion(
                f"{_reduced(a, b, e, q)!r} has vanishing norm")
        a, b, e = (a * e, -b * e, n) if n > 0 else (-a * e, b * e, -n)
    k, odd = divmod(half_power, 2)
    if odd:  # times sqrt(q)
        a, b = b * q, a
    p = q ** abs(k)
    return (a * p, b * p, e) if k >= 0 else (a, b, e * p)
