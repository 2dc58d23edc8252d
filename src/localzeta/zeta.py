"""Non-archimedean zeta integral: raw sum vs closed L-factor form.

Everything is computed in the formal variable T = q^(-3s).  The left-hand
side is the (truncated) sum

    sum_l B(h(l,0)) * omega_pi(varpi)^-l * omega_tau(varpi)^-l
          * q^(-3l/2) * W^(0)(diag(varpi^l,1)) * q^(3l) * T^l,

assembled from the Bessel coefficients and the newform values, r^l for
the one ratio r of each ramified kind, with no other case-specific
simplification: the collapse to H(y)/Q(y) with the printed substitution
has to emerge from the arithmetic.  The right-hand side is the quotient of
L-factors times the correction factor Y(s), built from entirely separate
formulas.  A verification report compares the routes exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .bessel import (GIVEN as LAMBDA_GIVEN, RAMIFIED, BesselDatum,
                     SatakeParams, bessel_coeffs, lambda_norm,
                     require_legendre)
from .errors import InvalidArgument, UnsupportedCase, require_object
from .gl2 import (CONDUCTOR, GIVEN, KINDS, RAMIFIED_OTHER,
                  RAMIFIED_PS_UNRAM_ALPHA, STEINBERG_UNRAMIFIED, UNRAMIFIED_PS,
                  Gl2Local, newform_ratio, require_beta_flag)
from .scalars import QScalar, _reduced, require_q
from .series import (DEFAULT_ORDER, Poly, RatFn, Series, SeriesComparison,
                     euler_product, require_order, series_equal,
                     series_twist)


@dataclass(frozen=True, slots=True)
class LocalInstance:
    """All local data entering one verification run.

    Enforces the shared residue cardinality and the Bessel-model
    compatibility Lambda(varpi) = omega_pi(varpi).  chi, the inverse
    L(6s+1, chi|F^x) factor euler_chi(satake, rep), is derived at
    construction, built once for Y(s) and the closed form both, and not
    compared; H and Q live on bessel and satake.
    """

    satake: SatakeParams
    bessel: BesselDatum
    rep: Gl2Local
    order: int = DEFAULT_ORDER
    chi: Poly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        satake, bessel = self.satake, self.bessel
        if not (satake.q == bessel.q == self.rep.q):
            raise InvalidArgument("components disagree on the residue cardinality")
        require_order(self.order)
        if bessel.lambda_varpi != satake.omega_pi:
            raise InvalidArgument(
                "Bessel-model compatibility requires Lambda(varpi) = omega_pi(varpi)")
        object.__setattr__(self, "chi", euler_chi(satake, self.rep))

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
    def from_json(obj, order: Optional[int] = None) -> "LocalInstance":
        """The instance obj encodes; order, if given, replaces its order."""
        require_object("an instance", obj)
        q = obj["q"]
        return LocalInstance(
            SatakeParams.from_json(obj["satake"], q),
            BesselDatum.from_json(obj["bessel"], q),
            Gl2Local.from_json(obj["rep"], q),
            order=obj.get("order", DEFAULT_ORDER) if order is None else order,
        )


def zeta_series_lhs(inst: LocalInstance) -> Series:
    """The zeta integral as a series in T, from the m = 0 coset sum:
    coefficient l is b_l * w_unit^l * r^l, for the newform values r^l,
    built by series_twist."""
    rep = inst.rep
    ratio = newform_ratio(rep)  # before any series: UnramifiedPS has none
    w_unit = QScalar.monomial((inst.satake.omega_pi, rep.omega_tau_varpi),
                              inst.q, 3, invert=True)
    return series_twist(bessel_coeffs(inst.satake, inst.bessel, inst.order),
                        w_unit * ratio)


# kind -> (k, name) with y = q^(k/2) (omega_pi x)^{-1}(varpi) T, x = rep.<name>:
# y = q^(-3s+1) (omega_pi alpha)^{-1}(varpi) in Case 2,
# y = q^(-3s+1/2) (omega_pi Omega)^{-1}(varpi) in Case 3
_Y_SCALE = {
    RAMIFIED_PS_UNRAM_ALPHA: (2, "alpha_varpi"),
    STEINBERG_UNRAMIFIED: (1, "omega_varpi"),
}

# kind -> tau's unramified values at varpi, over which the closed form's
# pairing and triple factors run; the Steinberg kind has no closed form
_UNRAMIFIED_VALUES = {
    RAMIFIED_OTHER: (),
    RAMIFIED_PS_UNRAM_ALPHA: ("alpha_varpi",),
    UNRAMIFIED_PS: ("alpha_varpi", "beta_varpi"),
}


def _y_scale(inst: LocalInstance) -> QScalar:
    """Scalar c with y = c*T in the H/Q substitution, per representation case."""
    rep = inst.rep
    if rep.kind not in _Y_SCALE:
        raise UnsupportedCase(f"no H/Q substitution for kind {rep.kind}")
    k, name = _Y_SCALE[rep.kind]
    return QScalar.monomial((inst.satake.omega_pi, getattr(rep, name)),
                            inst.q, k, invert=True)


def hq_substituted(inst: LocalInstance) -> Series:
    """H(y)/Q(y) expanded in T after the case-specific substitution y = c*T:
    the instance's own H and Q, which bessel_coeffs reads too."""
    c = _y_scale(inst)
    H = inst.bessel.H.substitute_scaled(c)
    Q = inst.satake.Q.substitute_scaled(c)
    return RatFn(H, Q).to_series(inst.order)


def euler_pairing(satake: SatakeParams, taus: Sequence[QScalar]) -> Poly:
    """Inverse of L(3s+1/2, pi~ x tau~) in T, over the unramified values t
    of tau: prod_{gamma, t} (1 - (gamma t)^{-1}(varpi) q^(-1/2) T)."""
    return euler_product([(g, t) for g in satake.gamma for t in taus],
                         satake.q, -1, invert=True)


def euler_chi(satake: SatakeParams, rep: Gl2Local) -> Poly:
    """Inverse of L(6s+1, chi|F^x): 1 - (omega_pi omega_tau)^{-1} q^-1 T^2."""
    return euler_product([(satake.omega_pi, rep.omega_tau_varpi)], satake.q,
                         -2, invert=True, step=2)


def euler_triple(bessel: BesselDatum, units: Sequence[QScalar]) -> Poly:
    """Inverse of L(3s+1, tau x AI(Lambda) x chi|F^x) in T: prod_{u, P}
    (1 - Lambda(P) u^f q^(-f) T^f) over the unramified values u of tau x chi
    at varpi and the primes P of L above varpi, of degree f (bessel.primes)."""
    f, lams = bessel.primes
    return euler_product([(lam,) + (u,) * f for u in units for lam in lams],
                         bessel.q, -2 * f, step=f)


def _beta_units(inst: LocalInstance) -> list[QScalar]:
    """[(omega_pi beta)^{-1}] where Case 2 over a ramified extension has
    beta chi unramified, else [].  This triple factor enters the closed
    form and Y(s) both, and cancels."""
    rep = inst.rep
    if (rep.kind == RAMIFIED_PS_UNRAM_ALPHA and rep.beta_chi_unramified
            and inst.bessel.legendre == RAMIFIED):
        return [QScalar.monomial((inst.satake.omega_pi, rep.beta_varpi),
                                 inst.q, invert=True)]
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
    return RatFn(one, inst.chi * euler_triple(inst.bessel, _beta_units(inst)))


def zeta_closed_rhs(inst: LocalInstance,
                    y_factor_fn: Optional[Callable] = None) -> RatFn:
    """Closed form L(3s+1/2)/(L(6s+1) L(3s+1, triple)) * Y(s), for every
    kind but the Steinberg one.

    The pairing factor runs over tau's unramified values t at varpi: none
    in Case 1, alpha in Case 2, alpha and beta for the unramified principal
    series, Furusawa's form with Y = 1, which no sum checks (the coset sum
    is taken at m = 0 only).  The triple factor runs over the units
    (omega_pi t)^{-1} and the _beta_units value, which Y(s) cancels.
    """
    rep, satake = inst.rep, inst.satake
    if rep.kind not in _UNRAMIFIED_VALUES:
        raise UnsupportedCase(
            "no explicit triple factor for the Steinberg case; "
            "verify against hq_substituted instead")
    yf = (y_factor_fn or y_factor)(inst)
    taus = [getattr(rep, name) for name in _UNRAMIFIED_VALUES[rep.kind]]
    units = [QScalar.monomial((satake.omega_pi, t), satake.q, invert=True)
             for t in taus] + _beta_units(inst)
    triple = euler_triple(inst.bessel, units)
    return RatFn(inst.chi * triple * yf.numer,
                 euler_pairing(satake, taus) * yf.denom)


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

    A kind checks LHS = H/Q where _Y_SCALE has its substitution (Cases 2
    and 3), and LHS = series(RHS) where _UNRAMIFIED_VALUES has its closed
    form (Cases 1 and 2).  The optional y_factor_fn override exists as a
    negative-control hook for the sweep driver.
    """
    kind = inst.rep.kind
    if kind not in _CASE_LABELS:
        raise UnsupportedCase("verification needs a ramified GL2 representation")
    lhs = zeta_series_lhs(inst)
    hq = cmp_hq = rhs = cmp_rhs = None
    if kind in _Y_SCALE:
        hq = hq_substituted(inst)
        cmp_hq = series_equal(lhs, hq)
    if kind in _UNRAMIFIED_VALUES:
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


# ---------------------------------------------------------------------------
# Randomized instances for sweeps and property tests.
# ---------------------------------------------------------------------------

_SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
_NUMERATORS = tuple(n for n in range(-9, 10) if n != 0)


def random_local_instance(rng: random.Random, kind: str, legendre: int,
                          beta_chi_unramified: bool = False,
                          q: Optional[int] = None,
                          order: int = DEFAULT_ORDER) -> LocalInstance:
    """Draw a valid instance with small nonzero rational parameters.

    Each drawn value is num/den with num in +-1..9 and den in 1..9, drawn in
    that order.  gamma4 is solved from the pairing constraint; for
    non-inert extensions omega_pi is forced to the norm of the drawn Lambda
    values (bessel.lambda_norm) so that Bessel-model compatibility admits
    rational data.  The Lambda values follow bessel.GIVEN, and the
    representation's values gl2.GIVEN and gl2.CONDUCTOR.  Every argument is
    checked before the first draw, so a refused call leaves rng as it was.
    """
    if kind not in KINDS:
        raise InvalidArgument(f"unknown kind {kind!r}")
    require_legendre(legendre)
    require_beta_flag(kind, beta_chi_unramified)
    require_order(order)
    if q is None:
        q = rng.choice(_SWEEP_QS)
    require_q(q)

    def draw():
        return _reduced(rng.choice(_NUMERATORS), 0, rng.randint(1, 9), q)

    lams = [draw() for _ in LAMBDA_GIVEN[legendre]]
    g1, g2 = draw(), draw()
    # where varpi stays prime in L, no Lambda value is drawn, but g3 is
    omega_pi = lambda_norm(legendre, lams) if lams else g1 * draw()
    g3 = omega_pi * g1.inverse()
    satake = SatakeParams([g1, g2, g3, g1 * g3 * g2.inverse()], q)
    datum = BesselDatum(legendre, omega_pi, *lams, q=q)

    values = {name: draw() for name in GIVEN[kind]}
    if kind not in CONDUCTOR:
        values["conductor_exp"] = rng.randint(1, 4)
    rep = Gl2Local(kind, q, **values, beta_chi_unramified=beta_chi_unramified)
    return LocalInstance(satake, datum, rep, order=order)
