"""Exact arithmetic in the quadratic coefficient ring Q[x]/(x^2 - q).

Every scalar appearing in the non-archimedean formulas is of the form
a + b*sqrt(q) with rational a, b, where q is the residue field cardinality.
The square root is treated as a formal symbol even when q is a perfect
square, so identities verified here hold for every specialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidArgument, InvalidInversion

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise InvalidArgument(f"not a rational value: {x!r}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class QScalar:
    """Element rat + sqrt * √q of the ring Q[x]/(x^2 - q).

    Values are immutable; arithmetic with plain ints/Fractions promotes
    them to rational elements of the same ring.
    """

    rat: Fraction
    sqrt: Fraction = 0
    q: Optional[int] = None

    def __post_init__(self):
        q = self.q
        if q is None:
            raise InvalidArgument("QScalar requires the ambient cardinality q")
        if not isinstance(q, int) or q < 2:
            raise InvalidArgument(f"q must be an integer >= 2, got {q!r}")
        if not isinstance(self.rat, Fraction):
            object.__setattr__(self, "rat", _as_fraction(self.rat))
        if not isinstance(self.sqrt, Fraction):
            object.__setattr__(self, "sqrt", _as_fraction(self.sqrt))

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(q: int) -> "QScalar":
        return QScalar(0, 0, q)

    @staticmethod
    def one(q: int) -> "QScalar":
        return QScalar(1, 0, q)

    @staticmethod
    def root_q(q: int) -> "QScalar":
        return QScalar(0, 1, q)

    @staticmethod
    def q_half_power(n: int, q: int) -> "QScalar":
        """q^(n/2) for any integer n (n may be negative)."""
        if n % 2 == 0:
            return QScalar(Fraction(q) ** (n // 2), 0, q)
        return QScalar(0, Fraction(q) ** ((n - 1) // 2), q)

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QScalar(self.rat + o.rat, self.sqrt + o.sqrt, self.q)

    __radd__ = __add__

    def __neg__(self):
        return QScalar(-self.rat, -self.sqrt, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QScalar(self.rat - o.rat, self.sqrt - o.sqrt, self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b sqrt(q))(c + d sqrt(q)) = (ac + bdq) + (ad + bc) sqrt(q)
        return QScalar(
            self.rat * o.rat + self.sqrt * o.sqrt * self.q,
            self.rat * o.sqrt + self.sqrt * o.rat,
            self.q,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """rat^2 - q * sqrt^2; nonzero exactly for the invertible elements."""
        return self.rat * self.rat - self.q * self.sqrt * self.sqrt

    def inverse(self) -> "QScalar":
        n = self.norm()
        if n == 0:
            raise InvalidInversion(f"{self!r} has vanishing norm")
        return QScalar(self.rat / n, -self.sqrt / n, self.q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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
        return self.rat == 0 and self.sqrt == 0

    def is_one(self) -> bool:
        return self.rat == 1 and self.sqrt == 0

    def is_rational(self) -> bool:
        return self.sqrt == 0

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, QScalar) else other
        if not isinstance(o, QScalar):
            return NotImplemented
        return self.q == o.q and self.rat == o.rat and self.sqrt == o.sqrt

    def __hash__(self):
        return hash((self.rat, self.sqrt, self.q))

    def __float__(self) -> float:
        return float(self.rat) + float(self.sqrt) * float(self.q) ** 0.5

    def __repr__(self):
        return f"QScalar({self.rat}, {self.sqrt}, q={self.q})"

    def __str__(self):
        if self.sqrt == 0:
            return str(self.rat)
        if self.rat == 0:
            return f"{self.sqrt}*sqrt({self.q})"
        return f"{self.rat} + {self.sqrt}*sqrt({self.q})"

    # -- JSON encoding -----------------------------------------------

    def to_json(self) -> dict:
        return {"rat": str(self.rat), "sqrt": str(self.sqrt)}

    @staticmethod
    def from_json(obj, q: int) -> "QScalar":
        if isinstance(obj, (int, str)):
            return QScalar(_as_fraction(obj), 0, q)
        if not isinstance(obj, dict):
            raise InvalidArgument(f"cannot decode QScalar from {obj!r}")
        return QScalar(
            _as_fraction(obj.get("rat", 0)),
            _as_fraction(obj.get("sqrt", 0)),
            q,
        )
