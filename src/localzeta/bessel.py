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

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidArgument, InvalidBesselDatum, require_int
from .scalars import QScalar, require_unit
from .series import Poly, RatFn, Series

INERT, RAMIFIED, SPLIT = -1, 0, 1


@dataclass(frozen=True, slots=True)
class SatakeParams:
    """The four Satake parameters of an unramified GSp(4) representation.

    The pairing gamma^(1) gamma^(3) = gamma^(2) gamma^(4) is the central
    character value omega_pi(varpi) and is enforced at construction.
    """

    gamma: tuple[QScalar, ...]
    q: int

    def __post_init__(self):
        gamma, q = tuple(self.gamma), self.q
        if len(gamma) != 4:
            raise InvalidArgument("exactly four Satake parameters required")
        for g in gamma:
            require_unit("a Satake parameter", g, q)
        if gamma[0] * gamma[2] != gamma[1] * gamma[3]:
            raise InvalidArgument(
                "pairing constraint gamma1*gamma3 = gamma2*gamma4 violated")
        object.__setattr__(self, "gamma", gamma)

    @property
    def omega_pi(self) -> QScalar:
        """Central character value omega_pi(varpi) = gamma1*gamma3."""
        return self.gamma[0] * self.gamma[2]

    def to_json(self):
        return {"gamma": [g.to_json() for g in self.gamma]}

    @staticmethod
    def from_json(obj, q: int) -> "SatakeParams":
        return SatakeParams([QScalar.from_json(g, q) for g in obj["gamma"]], q)


@dataclass(frozen=True, slots=True)
class BesselDatum:
    """Quadratic-extension case plus unramified Hecke-character values.

    legendre is -1 (inert), 0 (ramified) or +1 (split).  lambda_varpi is
    Lambda(varpi); the split case also needs Lambda(varpi_L) and
    Lambda(varpi varpi_L^{-1}) with product lambda_varpi, the ramified case
    needs Lambda(varpi_L) with square lambda_varpi.  Each value the case
    uses must be an invertible QScalar of the ring at q, as a character's
    values are.  q defaults to that of lambda_varpi.
    """

    legendre: int
    lambda_varpi: QScalar
    lambda_varpiL: Optional[QScalar] = None
    lambda_varpi_conj: Optional[QScalar] = None
    q: Optional[int] = None

    def __post_init__(self):
        legendre, lambda_varpi = self.legendre, self.lambda_varpi
        lambda_varpiL, lambda_varpi_conj = self.lambda_varpiL, self.lambda_varpi_conj
        require_int("legendre", legendre)
        if legendre not in (INERT, RAMIFIED, SPLIT):
            raise InvalidBesselDatum(f"legendre symbol must be -1, 0 or 1, got {legendre}")
        if self.q is None:
            object.__setattr__(self, "q", getattr(lambda_varpi, "q", None))
        q = self.q

        def unit(name, value):
            require_unit(name, value, q, InvalidBesselDatum)

        unit("lambda_varpi", lambda_varpi)
        if legendre == RAMIFIED:
            if lambda_varpiL is None:
                raise InvalidBesselDatum("ramified case needs Lambda(varpi_L)")
            unit("lambda_varpiL", lambda_varpiL)
            if lambda_varpiL * lambda_varpiL != lambda_varpi:
                raise InvalidBesselDatum(
                    "ramified case requires Lambda(varpi) = Lambda(varpi_L)^2")
        elif legendre == SPLIT:
            if lambda_varpiL is None or lambda_varpi_conj is None:
                raise InvalidBesselDatum(
                    "split case needs Lambda(varpi_L) and Lambda(varpi varpi_L^-1)")
            unit("lambda_varpiL", lambda_varpiL)
            unit("lambda_varpi_conj", lambda_varpi_conj)
            if lambda_varpiL * lambda_varpi_conj != lambda_varpi:
                raise InvalidBesselDatum(
                    "split case requires Lambda(varpi) = "
                    "Lambda(varpi_L) * Lambda(varpi varpi_L^-1)")
        # inert: lambda_varpiL / lambda_varpi_conj are unused

    def to_json(self):
        out = {"legendre": self.legendre, "lambda_varpi": self.lambda_varpi.to_json()}
        if self.lambda_varpiL is not None:
            out["lambda_varpiL"] = self.lambda_varpiL.to_json()
        if self.lambda_varpi_conj is not None:
            out["lambda_varpi_conj"] = self.lambda_varpi_conj.to_json()
        return out

    @staticmethod
    def from_json(obj, q: int) -> "BesselDatum":
        def dec(key):
            return QScalar.from_json(obj[key], q) if key in obj else None
        return BesselDatum(
            obj["legendre"],
            QScalar.from_json(obj["lambda_varpi"], q),
            lambda_varpiL=dec("lambda_varpiL"),
            lambda_varpi_conj=dec("lambda_varpi_conj"),
            q=q,
        )


def sugano_H(d: BesselDatum) -> Poly:
    """Numerator H(y) of the generating function, by extension type."""
    q = d.q
    if d.legendre == INERT:
        # 1 - q^-4 Lambda(varpi) y^2
        return Poly([QScalar.one(q), QScalar.zero(q),
                     -(QScalar.q_half_power(-8, q) * d.lambda_varpi)], q)
    if d.legendre == RAMIFIED:
        # 1 - q^-2 Lambda(varpi_L) y
        return Poly([QScalar.one(q),
                     -(QScalar.q_half_power(-4, q) * d.lambda_varpiL)], q)
    # split: 1 - q^-2 (Lambda(varpi_L) + Lambda(varpi varpi_L^-1)) y
    #          + q^-4 Lambda(varpi) y^2
    return Poly([
        QScalar.one(q),
        -(QScalar.q_half_power(-4, q) * (d.lambda_varpiL + d.lambda_varpi_conj)),
        QScalar.q_half_power(-8, q) * d.lambda_varpi,
    ], q)


def sugano_Q(p: SatakeParams) -> Poly:
    """Q(y) = prod_{i=1}^{4} (1 - gamma^(i) q^(-3/2) y), degree exactly 4."""
    qm32 = QScalar.q_half_power(-3, p.q)
    return Poly.euler([g * qm32 for g in p.gamma], p.q)


def bessel_coeffs(p: SatakeParams, d: BesselDatum, order: int) -> Series:
    """Coefficients B(h(l,0)) for l = 0..order; B(h(0,0)) = 1."""
    if p.q != d.q:
        raise InvalidArgument("Satake parameters and Bessel datum q mismatch")
    return RatFn(sugano_H(d), sugano_Q(p)).to_series(order)
