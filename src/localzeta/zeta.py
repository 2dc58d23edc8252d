"""Non-archimedean zeta integral: raw sum vs closed L-factor form.

Everything is computed in the formal variable T = q^(-3s).  The left-hand
side is the (truncated) sum

    sum_l B(h(l,0)) * omega_pi(varpi)^-l * omega_tau(varpi)^-l
          * q^(-3l/2) * W^(0)(diag(varpi^l,1)) * q^(3l) * T^l,

assembled from the Bessel coefficients and the newform values with no
case-specific simplification: the collapse to H(y)/Q(y) with the printed
substitution has to emerge from the arithmetic.  The right-hand side is the
quotient of L-factors times the correction factor Y(s), built from entirely
separate formulas.  A verification report compares the routes exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bessel import (INERT, RAMIFIED, BesselDatum, SatakeParams,
                     bessel_coeffs, sugano_H, sugano_Q)
from .errors import InvalidArgument, UnsupportedCase, require_int
from .gl2 import (RAMIFIED_OTHER, RAMIFIED_PS_UNRAM_ALPHA,
                  STEINBERG_UNRAMIFIED, UNRAMIFIED_PS, Gl2Local,
                  newform_terms)
from .scalars import QScalar, _mul, _reduced
from .series import (DEFAULT_ORDER, Poly, RatFn, Series, SeriesComparison,
                     series_equal, series_twist)


@dataclass(frozen=True, slots=True)
class LocalInstance:
    """All local data entering one verification run.

    Enforces the shared residue cardinality and the Bessel-model
    compatibility Lambda(varpi) = omega_pi(varpi).
    """

    satake: SatakeParams
    bessel: BesselDatum
    rep: Gl2Local
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        satake, bessel = self.satake, self.bessel
        if not (satake.q == bessel.q == self.rep.q):
            raise InvalidArgument("components disagree on the residue cardinality")
        require_int("order", self.order)
        if self.order < 0:
            raise InvalidArgument("order must be >= 0")
        if bessel.lambda_varpi != satake.omega_pi:
            raise InvalidArgument(
                "Bessel-model compatibility requires Lambda(varpi) = omega_pi(varpi)")

    @property
    def q(self) -> int:
        return self.satake.q

    def to_json(self):
        return {
            "q": self.q,
            "order": self.order,
            "satake": self.satake.to_json(),
            "bessel": self.bessel.to_json(),
            "rep": self.rep.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "LocalInstance":
        q = obj["q"]
        return LocalInstance(
            SatakeParams.from_json(obj["satake"], q),
            BesselDatum.from_json(obj["bessel"], q),
            Gl2Local.from_json(obj["rep"], q),
            order=obj.get("order", DEFAULT_ORDER),
        )


def zeta_series_lhs(inst: LocalInstance) -> Series:
    """The zeta integral as a series in T, from the m = 0 coset sum:
    coefficient l is b_l * w_unit^l * w_l, built by series_twist."""
    rep = inst.rep
    if rep.kind == UNRAMIFIED_PS:
        raise UnsupportedCase(
            "the m = 0 reduction requires conductor n > 0; "
            "use unramified_closed for the unramified principal series")
    w_unit = (inst.satake.omega_pi * rep.omega_tau_varpi).inverse() \
        * QScalar.q_half_power(3, inst.q)
    return series_twist(bessel_coeffs(inst.satake, inst.bessel, inst.order),
                        w_unit, newform_terms(rep, inst.order))


def _y_scale(inst: LocalInstance) -> QScalar:
    """Scalar c with y = c*T in the H/Q substitution, per representation case."""
    q = inst.q
    rep = inst.rep
    if rep.kind == RAMIFIED_PS_UNRAM_ALPHA:
        # y = q^(-3s+1) (omega_pi alpha)^{-1}(varpi)
        return QScalar.q_half_power(2, q) \
            * (inst.satake.omega_pi * rep.alpha_varpi).inverse()
    if rep.kind == STEINBERG_UNRAMIFIED:
        # y = q^(-3s+1/2) (omega_pi Omega)^{-1}(varpi)
        return QScalar.q_half_power(1, q) \
            * (inst.satake.omega_pi * rep.omega_varpi).inverse()
    raise UnsupportedCase(f"no H/Q substitution for kind {rep.kind}")


def hq_substituted(inst: LocalInstance) -> Series:
    """H(y)/Q(y) expanded in T after the case-specific substitution y = c*T."""
    c = _y_scale(inst)
    H = sugano_H(inst.bessel).substitute_scaled(c)
    Q = sugano_Q(inst.satake).substitute_scaled(c)
    return RatFn(H, Q).to_series(inst.order)


def euler_pairing(satake: SatakeParams, taus: Sequence[QScalar]) -> Poly:
    """Inverse of L(3s+1/2, pi~ x tau~) in T, over the unramified values t
    of tau: prod_{gamma, t} (1 - (gamma t)^{-1}(varpi) q^(-1/2) T)."""
    qm1 = QScalar.q_half_power(-1, satake.q)
    return Poly.euler(
        [(g * t).inverse() * qm1 for g in satake.gamma for t in taus], satake.q)


def euler_chi(satake: SatakeParams, rep: Gl2Local) -> Poly:
    """Inverse of L(6s+1, chi|F^x): 1 - (omega_pi omega_tau)^{-1} q^-1 T^2."""
    x = (satake.omega_pi * rep.omega_tau_varpi).inverse() \
        * QScalar.q_half_power(-2, satake.q)
    return Poly.euler([x], satake.q, step=2)


def euler_triple(bessel: BesselDatum, units: Sequence[QScalar]) -> Poly:
    """Inverse of L(3s+1, tau x AI(Lambda) x chi|F^x) in T, over the
    unramified values u of tau x chi at varpi, per Legendre case."""
    q = bessel.q
    qm2 = QScalar.q_half_power(-2, q)
    if bessel.legendre == INERT:
        return Poly.euler(
            [bessel.lambda_varpi * u * u * qm2 * qm2 for u in units], q, step=2)
    if bessel.legendre == RAMIFIED:
        return Poly.euler([bessel.lambda_varpiL * u * qm2 for u in units], q)
    return Poly.euler(
        [lam * u * qm2 for u in units
         for lam in (bessel.lambda_varpiL, bessel.lambda_varpi_conj)], q)


def _beta_units(inst: LocalInstance) -> list[QScalar]:
    """[(omega_pi beta)^{-1}] where Case 2 over a ramified extension has
    beta chi unramified, else [].  This triple factor enters the closed
    form and Y(s) both, and cancels."""
    rep = inst.rep
    if (rep.kind == RAMIFIED_PS_UNRAM_ALPHA and rep.beta_chi_unramified
            and inst.bessel.legendre == RAMIFIED):
        return [(inst.satake.omega_pi * rep.beta_varpi).inverse()]
    return []


def y_factor(inst: LocalInstance) -> RatFn:
    """The correction factor Y(s) of the local theorem, as a function of T.

    The fully ramified Case 1 formally carries the triple L-factor as well;
    it is represented as 1 here so that the asserted cancellation in
    zeta_closed_rhs is implemented exactly as stated.
    """
    one = Poly.one(inst.q)
    if inst.rep.kind == UNRAMIFIED_PS:
        return RatFn(one, one)
    return RatFn(one, euler_chi(inst.satake, inst.rep)
                 * euler_triple(inst.bessel, _beta_units(inst)))


def zeta_closed_rhs(inst: LocalInstance,
                    y_factor_fn: Optional[Callable] = None) -> RatFn:
    """Closed form L(3s+1/2)/(L(6s+1) L(3s+1, triple)) * Y(s), Cases 1-2.

    Case 1 takes the pairing and triple factors as 1.  Case 2 takes them
    at tau's unramified value alpha, the triple factor also at the
    _beta_units value, which Y(s) cancels.
    """
    rep, satake = inst.rep, inst.satake
    if rep.kind == STEINBERG_UNRAMIFIED:
        raise UnsupportedCase(
            "no explicit triple factor for the Steinberg case; "
            "verify against hq_substituted instead")
    if rep.kind == UNRAMIFIED_PS:
        raise UnsupportedCase("use unramified_closed for the unramified case")
    yf = (y_factor_fn or y_factor)(inst)
    taus, units = [], []
    if rep.kind == RAMIFIED_PS_UNRAM_ALPHA:
        taus = [rep.alpha_varpi]
        units = [(satake.omega_pi * rep.alpha_varpi).inverse(), *_beta_units(inst)]
    chi = euler_chi(satake, rep)
    triple = euler_triple(inst.bessel, units)
    return RatFn(chi * triple * yf.numer, euler_pairing(satake, taus) * yf.denom)


@dataclass(frozen=True)
class VerificationReport:
    """Exact comparison of the independent routes for one instance."""

    instance: LocalInstance
    case: str
    lhs: Series
    hq: Optional[Series]
    rhs: Optional[Series]
    lhs_vs_hq: Optional[SeriesComparison]
    lhs_vs_rhs: Optional[SeriesComparison]
    passed: bool

    def to_json(self):
        out = {
            "instance": self.instance.to_json(),
            "case": self.case,
            "passed": self.passed,
            "lhs": self.lhs.to_json(),
        }
        if self.hq is not None:
            out["hq"] = self.hq.to_json()
            out["lhs_vs_hq"] = self.lhs_vs_hq.to_json()
        if self.rhs is not None:
            out["rhs"] = self.rhs.to_json()
            out["lhs_vs_rhs"] = self.lhs_vs_rhs.to_json()
        return out


_CASE_LABELS = {
    RAMIFIED_OTHER: "case1",
    RAMIFIED_PS_UNRAM_ALPHA: "case2",
    STEINBERG_UNRAMIFIED: "case3",
}


def verify_local(inst: LocalInstance,
                 y_factor_fn: Optional[Callable] = None) -> VerificationReport:
    """Compare LHS sum, substituted H/Q and the closed form, as applicable.

    Cases 1-2 check LHS = series(RHS); Cases 2-3 additionally (resp. only)
    check LHS = H/Q.  The optional y_factor_fn override exists as a
    negative-control hook for the sweep driver.
    """
    kind = inst.rep.kind
    if kind == UNRAMIFIED_PS:
        raise UnsupportedCase("verification needs a ramified GL2 representation")
    lhs = zeta_series_lhs(inst)
    hq = cmp_hq = rhs = cmp_rhs = None
    if kind in (RAMIFIED_PS_UNRAM_ALPHA, STEINBERG_UNRAMIFIED):
        hq = hq_substituted(inst)
        cmp_hq = series_equal(lhs, hq)
    if kind in (RAMIFIED_OTHER, RAMIFIED_PS_UNRAM_ALPHA):
        rhs = zeta_closed_rhs(inst, y_factor_fn=y_factor_fn).to_series(inst.order)
        cmp_rhs = series_equal(lhs, rhs)
    passed = all(c.match for c in (cmp_hq, cmp_rhs) if c is not None)
    return VerificationReport(
        instance=inst,
        case=_CASE_LABELS[kind],
        lhs=lhs, hq=hq, rhs=rhs,
        lhs_vs_hq=cmp_hq, lhs_vs_rhs=cmp_rhs,
        passed=passed,
    )


def unramified_closed(satake: SatakeParams, rep: Gl2Local,
                      bessel: BesselDatum) -> RatFn:
    """Furusawa's closed form for fully unramified data, for global assembly.

    Returns L(3s+1/2, pi~ x tau~) / (L(6s+1, chi|F^x) L(3s+1, triple)) as a
    single rational function of T.  There is no series oracle at m > 0, so
    this is not verified against a sum; only its building blocks are.
    """
    if rep.kind != UNRAMIFIED_PS:
        raise UnsupportedCase("unramified_closed needs the unramified principal series")
    taus = (rep.alpha_varpi, rep.beta_varpi)
    chi = (satake.omega_pi * rep.omega_tau_varpi).inverse()
    triple = euler_triple(bessel, [chi * t for t in taus])
    return RatFn(euler_chi(satake, rep) * triple, euler_pairing(satake, taus))


# ---------------------------------------------------------------------------
# Randomized instances for sweeps and property tests.
# ---------------------------------------------------------------------------

_SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
_NUMERATORS = tuple(n for n in range(-9, 10) if n != 0)


def _inverse(t: tuple[int, int, int]) -> tuple[int, int, int]:
    """1/t for a nonzero rational triple t = (n, 0, d), kept with d > 0."""
    n, _, d = t
    return (d, 0, n) if n > 0 else (-d, 0, -n)


def random_local_instance(rng: random.Random, kind: str, legendre: int,
                          beta_chi_unramified: bool = False,
                          q: Optional[int] = None,
                          order: int = DEFAULT_ORDER) -> LocalInstance:
    """Draw a valid instance with small nonzero rational parameters.

    Each drawn value is num/den with num in +-1..9 and den in 1..9, drawn in
    that order.  gamma4 is solved from the pairing constraint; for
    non-inert extensions omega_pi is forced to the product/square of the
    drawn Lambda values so that Bessel-model compatibility admits rational
    data.  The parameters are computed as rational int triples (n, 0, d)
    and reduced once each, into QScalars.
    """
    if q is None:
        q = rng.choice(_SWEEP_QS)

    def draw():
        return rng.choice(_NUMERATORS), 0, rng.randint(1, 9)

    def unit():
        return _reduced(*draw(), q)

    lamL = lam_conj = None
    if legendre == INERT:
        g1, g2, g3 = draw(), draw(), draw()
        omega_pi = _mul(g1, g3, q)
    else:
        if legendre == RAMIFIED:
            lamL = draw()
            omega_pi = _mul(lamL, lamL, q)
        else:
            lamL, lam_conj = draw(), draw()
            omega_pi = _mul(lamL, lam_conj, q)
        g1, g2 = draw(), draw()
        g3 = _mul(omega_pi, _inverse(g1), q)
    g4 = _mul(_mul(g1, g3, q), _inverse(g2), q)
    satake = SatakeParams([_reduced(*g, q) for g in (g1, g2, g3, g4)], q)
    lams = [None if t is None else _reduced(*t, q) for t in (lamL, lam_conj)]
    datum = BesselDatum(legendre, _reduced(*omega_pi, q), *lams, q=q)

    if kind == RAMIFIED_PS_UNRAM_ALPHA:
        rep = Gl2Local(kind, q, alpha_varpi=unit(), beta_varpi=unit(),
                       conductor_exp=rng.randint(1, 4),
                       beta_chi_unramified=beta_chi_unramified)
    elif kind == STEINBERG_UNRAMIFIED:
        rep = Gl2Local(kind, q, omega_varpi=unit())
    elif kind == RAMIFIED_OTHER:
        rep = Gl2Local(kind, q, omega_tau_varpi=unit(),
                       conductor_exp=rng.randint(1, 4))
    elif kind == UNRAMIFIED_PS:
        rep = Gl2Local(kind, q, alpha_varpi=unit(), beta_varpi=unit())
    else:
        raise InvalidArgument(f"unknown kind {kind!r}")
    return LocalInstance(satake, datum, rep, order=order)
