"""Archimedean zeta integral: Whittaker functions, Mellin identity, and the
double-integral vs closed-form Gamma comparison.

The double integral (with u = (zeta^2 + zeta^-2)/2 already substituted) is

    i^(l+l2) a+ pi D^(-3s/2-3/4+q/4) (4 pi)^(q/2)
      * int_1^inf int_0^inf  lambda^(3s-3/2+l-q/2) u^(-3s-3/2+q/2-l-l2)
            W_{l1/2, ir/2}(4 pi lambda sqrt(D) u) e^(-2 pi lambda sqrt(D) u)
        dlambda/lambda du,

convergent for Re(6s + 2l + l2 - q - 1) > 0, and the closed form is the
Gamma expression it evaluates to.  All complex powers have positive real
bases, so principal branches carry no ambiguity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cgamma import EXP_CEIL, EXP_FLOOR, digamma, exp_in_range, log_gamma
from .errors import (DivergentParameters, InvalidArgument, LocalZetaError,
                     UnsupportedParameters, require_complex, require_int)
from .quadrature import _nodes, quad_zero_to_inf

_TOL = 1e-12


@dataclass(frozen=True)
class ArchSpec:
    """Parameters of one archimedean verification run.

    l2 is determined by the weights: l1 - 2l for l <= l1, else -l1.  The
    Casimir datum r enters only through ir = i*r; for the holomorphic
    discrete series of lowest weight l1 one has ir = l1 - 1.
    """

    l: int
    l1: int
    D: int
    q_exp: complex
    a_plus: complex
    s: complex
    ir: complex

    def __post_init__(self):
        for name in ("l", "l1", "D"):
            require_int(name, getattr(self, name))
        if self.l < 2:
            raise InvalidArgument("weight l must be an integer >= 2")
        if self.D <= 0 or self.D % 4 not in (0, 3):
            raise InvalidArgument("D must be a positive integer = 0, 3 mod 4")
        if self.a_plus == 0:  # the integral vanishes: nothing to compare
            raise InvalidArgument("a_plus must be nonzero")
        if self.gate.real <= 0:
            raise DivergentParameters(
                f"Re(6s + 2l + l2 - q - 1) = {self.gate.real} <= 0")

    @property
    def l2(self) -> int:
        return self.l1 - 2 * self.l if self.l <= self.l1 else -self.l1

    @property
    def gate(self) -> complex:
        return 6 * complex(self.s) + 2 * self.l + self.l2 - complex(self.q_exp) - 1

    def to_json(self):
        def enc(z):
            z = complex(z)
            return z.real if z.imag == 0 else [z.real, z.imag]
        return {"l": self.l, "l1": self.l1, "D": self.D,
                "q_exp": enc(self.q_exp), "a_plus": enc(self.a_plus),
                "s": enc(self.s), "ir": enc(self.ir)}

    @staticmethod
    def from_json(obj) -> "ArchSpec":
        if "ir" in obj and "r" in obj:
            raise InvalidArgument("give 'ir' or 'r', not both")
        if "ir" in obj:
            ir = require_complex("ir", obj["ir"])
        elif "r" in obj:
            ir = 1j * require_complex("r", obj["r"])
        else:
            raise InvalidArgument("spec needs 'ir' or 'r'")
        return ArchSpec(l=obj["l"], l1=obj["l1"], D=obj["D"],
                        q_exp=require_complex("q_exp", obj.get("q_exp", 0.0)),
                        a_plus=require_complex("a_plus", obj["a_plus"]),
                        s=require_complex("s", obj["s"]), ir=ir)


# ---------------------------------------------------------------------------
# Whittaker function
# ---------------------------------------------------------------------------

def _whittaker_params(kappa: complex,
                      mu: complex) -> tuple[complex, complex, str]:
    """(kappa, mu, regime) with Re mu >= 0, by W_{kappa,mu} = W_{kappa,-mu}
    (DLMF 13.14.31); raises UnsupportedParameters outside both regimes."""
    kappa, mu = complex(kappa), complex(mu)
    if mu.real < 0:
        mu = -mu
    if (abs(kappa.imag) <= _TOL and abs(mu.imag) <= _TOL
            and abs(2 * kappa.real - round(2 * kappa.real)) <= _TOL
            and abs(mu.real - (kappa.real - 0.5)) <= _TOL):
        return kappa, mu, "closed"
    if (mu - kappa + 0.5).real > 0:
        return kappa, mu, "integral"
    raise UnsupportedParameters(
        f"(kappa, mu) = ({kappa}, {mu}) lies in neither supported regime")


def _guarded_exp(expo: np.ndarray) -> np.ndarray:
    if np.any(expo.real > EXP_CEIL):
        raise InvalidArgument("Whittaker value exceeds the double range")
    return np.exp(expo, where=expo.real >= EXP_FLOOR, out=np.zeros_like(expo))


def whittaker_w_array(kappa: complex, mu: complex, xs: np.ndarray,
                      log_factor=0.0) -> np.ndarray:
    """W_{kappa,mu}(x) * exp(log_factor) on an array of positive x, of any
    shape; log_factor broadcasts against it.

    The caller's factor joins W's exponent before the one exp, so W and the
    factor may each leave the double range where their product does not; a
    product that does raises InvalidArgument.  In the integral regime the
    values are accurate relative to the batch's largest x * |W * factor|,
    which is each x's contribution to a DE sum over x.
    """
    kappa, mu, regime = _whittaker_params(kappa, mu)
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise InvalidArgument("Whittaker argument must be positive and finite")
    logx = np.log(xs)
    if regime == "closed":
        # W_{l/2,(l-1)/2}(x) = e^(-x/2) x^(l/2)
        return _guarded_exp(-xs / 2.0 + kappa * logx + log_factor)
    if xs.size == 0:
        return np.zeros(xs.shape, dtype=complex)
    # x * W * factor = x^(3/2-mu) e^(-x/2) factor / Gamma(mu-kappa+1/2)
    #   * int_0^inf e^-t t^(mu-kappa-1/2) (x+t)^(mu+kappa-1/2) dt,
    # one row per x.  Shifting the exponent by its largest value on the
    # level-2 nodes puts the largest contribution near 1, so the batch
    # converges relative to it and no row is computed in the subnormals.
    row = (-xs / 2.0 + (1.5 - mu) * logx + log_factor
           - log_gamma(mu - kappa + 0.5)).reshape(-1, 1)
    col = xs.reshape(-1, 1)

    def expo(t):
        return (row - t + (mu - kappa - 0.5) * np.log(t)
                + (mu + kappa - 0.5) * np.log(col + t))

    shift = expo(_nodes(2)[0]).real.max()
    total = quad_zero_to_inf(lambda t: _guarded_exp(expo(t) - shift),
                             target=1e-12, max_level=11)
    with np.errstate(divide="ignore"):  # log(0) = -inf for rows that underflow
        return _guarded_exp(shift - logx + np.log(total).reshape(xs.shape))


def whittaker_W(kappa: complex, mu: complex, x: float) -> complex:
    """Classical Whittaker function W_{kappa,mu}(x), x > 0."""
    return complex(whittaker_w_array(kappa, mu, np.array([float(x)]))[0])


@dataclass(frozen=True)
class MellinReport:
    kappa: complex
    mu: complex
    sigma: complex
    integral: complex
    gamma_value: complex
    rel_error: float


def mellin_whittaker_check(kappa: complex, mu: complex,
                           sigma: complex) -> MellinReport:
    """Quadrature of int_0^inf W_{kappa,mu}(x) e^(-x/2) x^(sigma-1) dx
    against Gamma(sigma+1/2+mu) Gamma(sigma+1/2-mu) / Gamma(sigma-kappa+1).
    """
    kappa, m, regime = _whittaker_params(kappa, mu)
    mu, sigma = complex(mu), complex(sigma)
    if regime == "integral":
        if (sigma + 0.5 + m).real <= 0 or (sigma + 0.5 - m).real <= 0:
            raise InvalidArgument("Re(sigma + 1/2 +- mu) > 0 required")
    else:
        if (sigma + kappa).real <= 0:
            raise InvalidArgument("Re(sigma + kappa) > 0 required")

    integral = quad_zero_to_inf(
        lambda xs: whittaker_w_array(
            kappa, m, xs, log_factor=-xs / 2.0 + (sigma - 1) * np.log(xs)),
        target=1e-11)
    log_value = log_gamma(sigma + 0.5 + m)
    if abs(m - (kappa - 0.5)) >= 1e-10:  # else the ratio cancels exactly
        log_value += (log_gamma(sigma + 0.5 - m)
                      - log_gamma(sigma - kappa + 1.0))
    gamma_value = exp_in_range(log_value, "the Mellin Gamma quotient",
                               "sigma", sigma)
    rel = abs(integral - gamma_value) / abs(gamma_value)
    return MellinReport(kappa, mu, sigma, integral, gamma_value, rel)


# ---------------------------------------------------------------------------
# The archimedean zeta integral
# ---------------------------------------------------------------------------

def _prefactor_integral(spec: ArchSpec) -> complex:
    s, q = complex(spec.s), complex(spec.q_exp)
    return ((1j) ** (spec.l + spec.l2) * complex(spec.a_plus) * math.pi
            * cmath.exp((-1.5 * s - 0.75 + q / 4) * math.log(spec.D))
            * cmath.exp((q / 2) * math.log(4 * math.pi)))


def arch_zeta_quadrature(spec: ArchSpec) -> complex:
    """Nested adaptive quadrature of the double integral.

    The outer integral runs over u = 1 + t.  Each outer level hands all its
    new u nodes to one batched inner integral over lambda, one row per u,
    with u^(u_pow) inside the Whittaker exponent.  So the batch converges
    relative to the largest contribution to the outer sum, and a row whose
    contribution is negligible needs no relative accuracy of its own.
    """
    s, q = complex(spec.s), complex(spec.q_exp)
    kappa = spec.l1 / 2.0
    mu = complex(spec.ir) / 2.0
    _whittaker_params(kappa, mu)  # fails before any quadrature if unsupported
    u_pow = -3 * s - 1.5 + q / 2 - spec.l - spec.l2
    lam_pow = 3 * s - 1.5 + spec.l - q / 2
    c0 = 4 * math.pi * math.sqrt(spec.D)

    def outer(ts):
        u = 1.0 + ts[:, None]
        c = c0 * u
        log_u_factor = u_pow * np.log(u)

        def inner(lams):
            # x stays below the double range; W(x) e^(-x/2) is 0 long before
            x = c * np.minimum(lams, 1e300 / c)
            return whittaker_w_array(kappa, mu, x, log_factor=(
                -x / 2.0 + (lam_pow - 1) * np.log(lams) + log_u_factor))

        return quad_zero_to_inf(inner, target=1e-12)

    # u = 1 + t maps (1, inf) to (0, inf)
    integral = quad_zero_to_inf(outer, target=5e-11, max_level=9)
    return _prefactor_integral(spec) * integral


def _gamma_args(spec: ArchSpec) -> tuple[complex, complex, complex]:
    s, q = complex(spec.s), complex(spec.q_exp)
    half_ir = complex(spec.ir) / 2.0
    z1 = 3 * s + spec.l - 1 + half_ir - q / 2
    z2 = 3 * s + spec.l - 1 - half_ir - q / 2
    z3 = 3 * s + spec.l - spec.l1 / 2.0 - 0.5 - q / 2
    return z1, z2, z3


def _closed_form(spec: ArchSpec, i_power: int, own_log: complex) -> complex:
    """i^i_power exp(own_log) times the factors both closed forms share,
    a+ pi D^(-3s-l/2+q/2) (4 pi)^(-3s+3/2-l+q) Gamma(z1) Gamma(z2), summed
    in log space and exponentiated once."""
    s, q = complex(spec.s), complex(spec.q_exp)
    z1, z2, _ = _gamma_args(spec)
    return exp_in_range(
        own_log + 0.5j * math.pi * i_power + cmath.log(spec.a_plus)
        + math.log(math.pi) + (-3 * s - spec.l / 2 + q / 2) * math.log(spec.D)
        + (-3 * s + 1.5 - spec.l + q) * math.log(4 * math.pi)
        + log_gamma(z1) + log_gamma(z2), "the closed form", "s", spec.s)


def arch_zeta_closed(spec: ArchSpec) -> complex:
    """Closed Gamma form; for l >= l1 the simplified printed variant is
    evaluated as well and both must agree to 1e-12."""
    value = _closed_form(spec, spec.l + spec.l2, -cmath.log(spec.gate)
                         - log_gamma(_gamma_args(spec)[2]))
    if spec.l >= spec.l1:
        simplified = arch_zeta_closed_simplified(spec)
        if abs(value - simplified) > 1e-12 * abs(value):
            raise LocalZetaError(
                "the two closed forms disagree: "
                f"{value} vs {simplified}")
    return value


def arch_zeta_closed_simplified(spec: ArchSpec) -> complex:
    """The simplified variant valid for l >= l1 (where l2 = -l1)."""
    if spec.l < spec.l1:
        raise InvalidArgument("simplified form requires l >= l1")
    return _closed_form(spec, spec.l - spec.l1, -math.log(2.0)
                        - log_gamma(_gamma_args(spec)[2] + 1.0))


def arch_zeta_closed_logderiv(spec: ArchSpec) -> complex:
    """d/ds log of the closed form, for the holomorphy sanity check."""
    z1, z2, z3 = _gamma_args(spec)
    return (-3 * math.log(spec.D) - 3 * math.log(4 * math.pi)
            - 6 / spec.gate
            + 3 * digamma(z1) + 3 * digamma(z2) - 3 * digamma(z3))
