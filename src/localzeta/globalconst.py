"""Global integral-representation constants.

Assembles the archimedean factor Y_infty(s), the Bessel-period constant
a(Lambda) = sum_j Lambda(t_j) a(S_j, Phi), and the special-value constant

    C = conj(a(Lambda)) D^(-l+3/2) 2^(-4l+6) (2l-5)! prod_{p|N} Y_p(l/6-1/2),

keeping the factorial and the power of two exact and the D-power exact up
to a single sqrt(D).  The local Y_p values are exact QScalar evaluations of
the Y(s) rational function at T = q^(-3s), s = l/6 - 1/2.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cgamma import exp_in_range, log_gamma
from .errors import InvalidArgument, PoleError, require_complex, require_int
from .scalars import QScalar
from .zeta import LocalInstance, y_factor

# The largest weight l special_value_constant takes: it bounds the exact
# (2l-5)! and D^(l-1) it computes before any range check can run.
MAX_L = 1000
_DOUBLE_MIN, _DOUBLE_MAX = (Fraction(sys.float_info.min),
                            Fraction(sys.float_info.max))  # normal doubles


@dataclass(frozen=True)
class GlobalSpec:
    l: int
    D: int
    a_lambda: complex
    bad_primes: tuple = ()
    class_data: Optional[tuple] = None

    def __post_init__(self):
        for name in ("l", "D"):
            require_int(name, getattr(self, name))
        if self.D <= 0 or self.D % 4 not in (0, 3):
            raise InvalidArgument("D must be positive and = 0, 3 mod 4")
        for p, _ in self.bad_primes:
            require_int("a bad prime", p)
            if not _is_prime(p):
                raise InvalidArgument(f"bad prime {p} is not a prime")
        primes = [p for p, _ in self.bad_primes]
        if len(set(primes)) != len(primes):
            raise InvalidArgument(
                f"bad primes must be distinct, got {primes}")
        object.__setattr__(self, "bad_primes", tuple(
            (p, complex(y)) for p, y in self.bad_primes))
        if self.class_data is not None:
            object.__setattr__(self, "class_data", tuple(
                (complex(a), complex(b)) for a, b in self.class_data))

    @staticmethod
    def from_json(obj) -> "GlobalSpec":
        """a_lambda is given directly or derived from class_data, not both;
        with neither it is 1."""
        if not isinstance(obj, dict):
            raise InvalidArgument("a global spec must be a JSON object")
        if "class_data" not in obj:
            class_data = None
            value = require_complex("a_lambda", obj.get("a_lambda", 1.0))
        elif "a_lambda" in obj:
            raise InvalidArgument("give a_lambda or class_data, not both")
        else:
            class_data = tuple(
                (require_complex("class_data", a), require_complex("class_data", b))
                for a, b in obj["class_data"])
            value = a_lambda(class_data)
        return GlobalSpec(
            l=obj["l"], D=obj["D"], a_lambda=value,
            bad_primes=tuple((p, require_complex("bad_primes", y))
                             for p, y in obj.get("bad_primes", [])),
            class_data=class_data,
        )


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen prime bases: exact below 3.3e24,
    a strong probable-prime test beyond."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def a_lambda(class_data: Sequence[tuple]) -> complex:
    """a(Lambda) = sum_j Lambda(t_j) a(S_j, Phi) over the ideal classes."""
    if not class_data:
        raise InvalidArgument("class data must be a nonempty list of pairs")
    return sum(complex(lam) * complex(a) for lam, a in class_data)


def y_infty(s: complex, spec: GlobalSpec) -> complex:
    """conj(a(Lambda)) pi D^(-3s-l/2) (4 pi)^(-3s+3/2-3l/2)
    Gamma(3s+3l/2-3/2) / (6s+l-1)."""
    s = complex(s)
    l = spec.l
    denom = 6 * s + l - 1
    if abs(denom) < 1e-12:
        raise PoleError("6s + l - 1 vanishes")
    return complex(spec.a_lambda).conjugate() * exp_in_range(
        math.log(math.pi) + (-3 * s - l / 2) * math.log(spec.D)
        + (-3 * s + 1.5 - 1.5 * l) * math.log(4 * math.pi)
        + log_gamma(3 * s + 1.5 * l - 1.5) - cmath.log(denom),
        "Y_infty", "s", s)


def y_p_at_special_point(inst: LocalInstance, l: int) -> tuple[QScalar, complex]:
    """Y_p(l/6 - 1/2): evaluate Y at T = q^(-(l-3)/2), exact then floated."""
    t0 = QScalar.q_half_power(-(l - 3), inst.q)
    exact = y_factor(inst).eval_at(t0)
    return exact, complex(float(exact))


@dataclass(frozen=True)
class SpecialValueResult:
    """C with its exact rational mantissa split off.

    value = conj(a_lambda) * mantissa * sqrt(D) * prod(Y_p); the mantissa
    (2l-5)! 2^(-4l+6) D^(-l+1) is an exact Fraction.
    """

    l: int
    D: int
    mantissa: Fraction
    a_lambda: complex
    y_values: tuple
    value: complex

    def to_json(self):
        return {
            "l": self.l,
            "D": self.D,
            "exact_mantissa": str(self.mantissa),
            "sqrt_factor": self.D,
            "a_lambda": [self.a_lambda.real, self.a_lambda.imag],
            "bad_prime_y_values": [[p, [y.real, y.imag]] for p, y in self.y_values],
            "value": [self.value.real, self.value.imag],
        }


def special_value_constant(spec: GlobalSpec) -> SpecialValueResult:
    """C = conj(a(Lambda)) D^(-l+3/2) 2^(-4l+6) (2l-5)! prod Y_p(l/6-1/2)."""
    l = spec.l
    if l < 3:
        raise InvalidArgument("l >= 3 required for the factorial (2l-5)!")
    if l > MAX_L:
        raise InvalidArgument(f"l <= {MAX_L} required, got {l}")
    mantissa = (Fraction(math.factorial(2 * l - 5))
                * Fraction(2) ** (-4 * l + 6)
                * Fraction(1, spec.D ** (l - 1)))
    if not _DOUBLE_MIN <= mantissa <= _DOUBLE_MAX:
        raise InvalidArgument(
            f"the mantissa (2l-5)! 2^(-4l+6) D^(-l+1) at l = {l}, D = "
            f"{spec.D} is outside the normal double range")
    prod_y = complex(1.0)
    for _, y in spec.bad_primes:
        prod_y *= y
    value = (complex(spec.a_lambda).conjugate()
             * float(mantissa) * math.sqrt(spec.D) * prod_y)
    if not cmath.isfinite(value):
        raise InvalidArgument(f"C leaves the double range: {value}")
    return SpecialValueResult(l=l, D=spec.D, mantissa=mantissa,
                              a_lambda=complex(spec.a_lambda),
                              y_values=spec.bad_primes, value=value)
