"""Spherical Bessel values B(h(l,0)) via Sugano's generating function.

For an unramified GSp(4) representation with Satake parameters
gamma^(1..4) and an unramified character Lambda of the quadratic extension,
the values B(h(l,0)) of the normalized spherical Bessel vector satisfy

    sum_{l>=0} B(h(l,0)) y^l = H(y) / Q(y),

with Q(y) = prod_i (1 - gamma^(i) q^(-3/2) y) and H depending on whether
the extension is inert, ramified or split.  Only this m = 0 slice is
needed by the zeta-integral verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import mul
from typing import Optional, Sequence

from .errors import (InvalidArgument, InvalidBesselDatum, brief,
                     require_int, require_known_keys)
from .scalars import QScalar, require_unit
from .series import Poly, RatFn, Series, euler_product

INERT, RAMIFIED, SPLIT = -1, 0, 1


@dataclass(frozen=True, slots=True)
class SatakeParams:
    """The four Satake parameters of an unramified GSp(4) representation.

    The pairing gamma^(1) gamma^(3) = gamma^(2) gamma^(4) is the central
    character value omega_pi(varpi) and is enforced at construction.
    Derived at construction, and not compared: omega_pi, and Q, Sugano's
    denominator sugano_Q(self), built once for every route that reads it.
    """

    gamma: tuple[QScalar, ...]
    q: int
    # central character value omega_pi(varpi) = gamma1*gamma3, derived
    omega_pi: QScalar = field(init=False, repr=False, compare=False)
    Q: Poly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gamma, q = tuple(self.gamma), self.q
        if len(gamma) != 4:
            raise InvalidArgument("exactly four Satake parameters required")
        for g in gamma:
            require_unit("a Satake parameter", g, q)
        omega_pi = gamma[0] * gamma[2]
        if omega_pi != gamma[1] * gamma[3]:
            raise InvalidArgument(
                "pairing constraint gamma1*gamma3 = gamma2*gamma4 violated")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "omega_pi", omega_pi)
        object.__setattr__(self, "Q", sugano_Q(self))

    def to_json(self):
        return {"gamma": [g.to_json() for g in self.gamma]}

    @staticmethod
    def from_json(obj, q: int) -> "SatakeParams":
        require_known_keys("satake", obj, ("gamma",))
        gamma = obj["gamma"]
        if not isinstance(gamma, list):
            raise InvalidArgument(f"gamma must be a list, got {brief(gamma)}")
        return SatakeParams([QScalar.from_json(g, q) for g in gamma], q)


# extension type -> (f, names): the residue degree f of the primes P of L
# above varpi, and the field of Lambda(P) for each P, generated by varpi
# (inert), varpi_L (ramified), or varpi_L and varpi varpi_L^-1 (split)
PRIMES = {INERT: (2, ("lambda_varpi",)), RAMIFIED: (1, ("lambda_varpiL",)),
          SPLIT: (1, ("lambda_varpiL", "lambda_varpi_conj"))}
# extension type -> the values of Lambda besides Lambda(varpi) it is given
GIVEN = {legendre: tuple(n for n in names if n != "lambda_varpi")
         for legendre, (_, names) in PRIMES.items()}
# the relation lambda_norm checks, as each message states it (inert meets it)
_NORM = {RAMIFIED: "Lambda(varpi_L)^2",
         SPLIT: "Lambda(varpi_L) * Lambda(varpi varpi_L^-1)"}


def lambda_norm(legendre: int, lams: Sequence[QScalar]) -> QScalar:
    """Lambda(varpi), the product of the values lams of Lambda at the g
    primes P of L above varpi (PRIMES), each taken e times: varpi generates
    prod_P P^e, for P of residue degree f and e = 2/(f g)."""
    f, names = PRIMES[legendre]
    return reduce(mul, lams * (2 // (f * len(names))))


def require_legendre(legendre) -> None:
    """Raise unless legendre is the int -1, 0 or 1: InvalidArgument for a
    value that is no int (a bool is none), else InvalidBesselDatum."""
    require_int("legendre", legendre)
    if legendre not in GIVEN:
        raise InvalidBesselDatum(f"legendre symbol must be -1, 0 or 1, got {legendre}")


@dataclass(frozen=True, slots=True)
class BesselDatum:
    """Quadratic-extension case plus unramified Hecke-character values.

    legendre is -1 (inert), 0 (ramified) or +1 (split).  lambda_varpi is
    Lambda(varpi); the split case also takes Lambda(varpi_L) and
    Lambda(varpi varpi_L^{-1}), the ramified case Lambda(varpi_L), as
    PRIMES lists them, with norm lambda_varpi (lambda_norm).  A case takes
    exactly its values in GIVEN, each an invertible QScalar of the ring at
    q, as a character's values are; any other value is an
    InvalidBesselDatum.  q defaults to that of lambda_varpi.  Derived at
    construction, and not compared: primes, (f, [Lambda(P)]) over the
    primes P of L above varpi, and H, Sugano's numerator sugano_H(self),
    each built once for every route that reads it.
    """

    legendre: int
    lambda_varpi: QScalar
    lambda_varpiL: Optional[QScalar] = None
    lambda_varpi_conj: Optional[QScalar] = None
    q: Optional[int] = None
    primes: tuple = field(init=False, repr=False, compare=False)
    H: Poly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        legendre, lambda_varpi = self.legendre, self.lambda_varpi
        require_legendre(legendre)
        if self.q is None:
            object.__setattr__(self, "q", getattr(lambda_varpi, "q", None))
        require_unit("lambda_varpi", lambda_varpi, self.q, InvalidBesselDatum)
        case = ("inert", "ramified", "split")[legendre + 1]
        for name in GIVEN[SPLIT]:  # every optional value
            value = getattr(self, name)
            if name not in GIVEN[legendre]:
                if value is not None:
                    raise InvalidBesselDatum(f"{case} case takes no {name}")
            elif value is None:
                raise InvalidBesselDatum(f"{case} case needs {name}")
            else:
                require_unit(name, value, self.q, InvalidBesselDatum)
        f, names = PRIMES[legendre]
        lams = tuple([getattr(self, name) for name in names])
        if lambda_norm(legendre, lams) != lambda_varpi:
            raise InvalidBesselDatum(
                f"{case} case requires Lambda(varpi) = {_NORM[legendre]}")
        object.__setattr__(self, "primes", (f, lams))
        object.__setattr__(self, "H", sugano_H(self))

    def to_json(self):
        out = {"legendre": self.legendre, "lambda_varpi": self.lambda_varpi.to_json()}
        for name in GIVEN[self.legendre]:
            out[name] = getattr(self, name).to_json()
        return out

    @staticmethod
    def from_json(obj, q: int) -> "BesselDatum":
        require_known_keys("bessel", obj,
                           ("legendre", "lambda_varpi", *GIVEN[SPLIT]),
                           InvalidBesselDatum)
        values = {name: QScalar.from_json(obj[name], q)
                  for name in GIVEN[SPLIT] if name in obj}
        return BesselDatum(obj["legendre"],
                           QScalar.from_json(obj["lambda_varpi"], q),
                           **values, q=q)


def sugano_H(d: BesselDatum) -> Poly:
    """Numerator H(y) of the generating function, an Euler product over the
    primes P of L above varpi: prod_P (1 - Lambda(P) q^(-2f) y^f), for P
    of residue degree f (d.primes)."""
    f, lams = d.primes
    return euler_product([(lam,) for lam in lams], d.q, -4 * f, step=f)


def sugano_Q(p: SatakeParams) -> Poly:
    """Q(y) = prod_{i=1}^{4} (1 - gamma^(i) q^(-3/2) y), degree exactly 4."""
    return euler_product([(g,) for g in p.gamma], p.q, -3)


def bessel_coeffs(p: SatakeParams, d: BesselDatum, order: int) -> Series:
    """Coefficients B(h(l,0)) for l = 0..order; B(h(0,0)) = 1: the series
    of d.H / p.Q."""
    if p.q != d.q:
        raise InvalidArgument("Satake parameters and Bessel datum q mismatch")
    return RatFn(d.H, p.Q).to_series(order)
