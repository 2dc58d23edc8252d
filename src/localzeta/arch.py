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
from typing import Optional

import numpy as np

from .cgamma import complex_gamma, digamma
from .errors import (DivergentParameters, InvalidArgument, LocalZetaError,
                     QuadratureError, UnsupportedParameters)
from .quadrature import _nodes, quad_from_one_to_inf, quad_zero_to_inf

_TOL = 1e-12
_EXP_FLOOR = -745.0


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
        if self.l < 2:
            raise InvalidArgument("weight l must be an integer >= 2")
        if self.D <= 0 or self.D % 4 not in (0, 3):
            raise InvalidArgument("D must be a positive integer = 0, 3 mod 4")
        if (self.l1 - self.l2) % 2 != 0:
            raise InvalidArgument("l1 and l2 must have equal parity")
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
        def dec(v):
            if isinstance(v, (list, tuple)):
                return complex(v[0], v[1])
            return complex(v)
        if "ir" in obj:
            ir = dec(obj["ir"])
        elif "r" in obj:
            ir = 1j * dec(obj["r"])
        else:
            raise InvalidArgument("spec needs 'ir' or 'r'")
        return ArchSpec(l=obj["l"], l1=obj["l1"], D=obj["D"],
                        q_exp=dec(obj.get("q_exp", 0.0)),
                        a_plus=dec(obj["a_plus"]), s=dec(obj["s"]), ir=ir)


# ---------------------------------------------------------------------------
# Whittaker function
# ---------------------------------------------------------------------------

def _whittaker_regime(kappa: complex, mu: complex) -> Optional[str]:
    kappa, mu = complex(kappa), complex(mu)
    if (abs(kappa.imag) <= _TOL and abs(mu.imag) <= _TOL
            and abs(2 * kappa.real - round(2 * kappa.real)) <= _TOL
            and abs(mu.real - (kappa.real - 0.5)) <= _TOL):
        return "closed"
    if (mu - kappa + 0.5).real > 0:
        return "integral"
    return None


def _guarded_exp(expo: np.ndarray) -> np.ndarray:
    safe = np.where(expo.real < _EXP_FLOOR, _EXP_FLOOR, expo)
    return np.where(expo.real < _EXP_FLOOR, 0.0, np.exp(safe))


def _whittaker_integral_batch(kappa: complex, mu: complex, xs: np.ndarray,
                              target: float = 1e-12, max_level: int = 11,
                              weights: Optional[np.ndarray] = None) -> np.ndarray:
    """W_{kappa,mu} on an array of positive x, by the t-integral.

    Uses W = e^(-x/2) x^(1/2-mu) / Gamma(mu-kappa+1/2)
              * int_0^inf e^-t t^(mu-kappa-1/2) (x+t)^(mu+kappa-1/2) dt,
    evaluated as a log-sum-exp so that huge intermediate powers never
    overflow.  Convergence is judged in a weighted sup norm: a caller
    integrating W against a known factor passes |factor| as weights so that
    x values with negligible contribution cannot stall the refinement.
    """
    c1 = mu - kappa - 0.5
    c2 = mu + kappa - 0.5
    log_gamma = cmath.log(complex_gamma(mu - kappa + 0.5))
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0, dtype=complex)
    if weights is None:
        weights = np.ones_like(xs)
    logx = np.log(xs)
    base = -xs / 2.0 + (0.5 - mu) * logx - log_gamma

    prev = None
    for level in range(2, max_level + 1):
        h = 1.0 / 2**level
        t, w = _nodes(h)
        expo = (-t[None, :] + c1 * np.log(t)[None, :]
                + c2 * np.log(xs[:, None] + t[None, :]))
        m = expo.real.max(axis=1)
        scaled = np.sum(w[None, :] * _guarded_exp(expo - m[:, None]), axis=1)
        logw = base + m + np.log(scaled)
        vals = _guarded_exp(logw)
        if prev is not None:
            scale = (weights * np.abs(vals)).max()
            if scale < 1e-300:
                return vals
            err = (weights * np.abs(vals - prev)).max() / scale
            if err <= target:
                return vals
        prev = vals
    raise QuadratureError("Whittaker integral did not converge")


def whittaker_w_array(kappa: complex, mu: complex, xs: np.ndarray,
                      weights: Optional[np.ndarray] = None) -> np.ndarray:
    regime = _whittaker_regime(kappa, mu)
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise InvalidArgument("Whittaker argument must be positive")
    if regime == "closed":
        # W_{l/2,(l-1)/2}(x) = e^(-x/2) x^(l/2)
        return _guarded_exp(-xs / 2.0 + complex(kappa) * np.log(xs))
    if regime == "integral":
        return _whittaker_integral_batch(kappa, mu, xs, weights=weights)
    raise UnsupportedParameters(
        f"(kappa, mu) = ({kappa}, {mu}) lies in neither supported regime")


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

    def to_json(self):
        return {"kappa": str(self.kappa), "mu": str(self.mu),
                "sigma": str(self.sigma),
                "integral": [self.integral.real, self.integral.imag],
                "gamma_value": [self.gamma_value.real, self.gamma_value.imag],
                "rel_error": self.rel_error}


def mellin_whittaker_check(kappa: complex, mu: complex, sigma: complex,
                           target: float = 1e-11) -> MellinReport:
    """Quadrature of int_0^inf W_{kappa,mu}(x) e^(-x/2) x^(sigma-1) dx
    against Gamma(sigma+1/2+mu) Gamma(sigma+1/2-mu) / Gamma(sigma-kappa+1).
    """
    kappa, mu, sigma = complex(kappa), complex(mu), complex(sigma)
    regime = _whittaker_regime(kappa, mu)
    if regime is None:
        raise UnsupportedParameters("Whittaker parameters unsupported")
    if regime == "integral":
        if (sigma + 0.5 + mu).real <= 0 or (sigma + 0.5 - mu).real <= 0:
            raise InvalidArgument("Re(sigma + 1/2 +- mu) > 0 required")
    else:
        if (sigma + kappa).real <= 0:
            raise InvalidArgument("Re(sigma + kappa) > 0 required")

    def f(xs):
        # the node weight is proportional to x, so |x^sigma e^(-x/2)| tracks
        # each node's actual contribution to the outer sum
        proxy = np.exp(np.maximum(
            -xs / 2.0 + sigma.real * np.log(xs), _EXP_FLOOR))
        w = whittaker_w_array(kappa, mu, xs, weights=proxy)
        extra = _guarded_exp(-xs / 2.0 + (sigma - 1) * np.log(xs))
        return w * extra

    integral = quad_zero_to_inf(f, target=target, vectorized=True)
    if abs(mu - (kappa - 0.5)) < 1e-10:
        # the Gamma(sigma+1/2-mu)/Gamma(sigma-kappa+1) ratio cancels exactly
        gamma_value = complex_gamma(sigma + 0.5 + mu)
    else:
        gamma_value = (complex_gamma(sigma + 0.5 + mu)
                       * complex_gamma(sigma + 0.5 - mu)
                       / complex_gamma(sigma - kappa + 1.0))
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


def arch_zeta_quadrature(spec: ArchSpec, inner_target: float = 1e-12,
                         outer_target: float = 5e-11) -> complex:
    """Nested adaptive quadrature of the double integral."""
    if spec.gate.real <= 0:
        raise DivergentParameters("convergence gate violated")
    s, q = complex(spec.s), complex(spec.q_exp)
    kappa = spec.l1 / 2.0
    mu = complex(spec.ir) / 2.0
    regime = _whittaker_regime(kappa, mu)
    if regime is None:
        raise UnsupportedParameters("Whittaker parameters unsupported")
    u_pow = -3 * s - 1.5 + q / 2 - spec.l - spec.l2
    lam_pow = 3 * s - 1.5 + spec.l - q / 2
    sqrt_d = math.sqrt(spec.D)

    def inner(u: float) -> complex:
        c = 4 * math.pi * sqrt_d * u
        logc = math.log(c)

        if regime == "closed":
            def g(lams):
                # W(x) e^(-x/2) = e^(-x) x^(l1/2) with x = c*lambda
                loglam = np.log(lams)
                x = np.minimum(c * lams, 1e308)
                expo = (-x + (lam_pow - 1) * loglam
                        + kappa * (logc + loglam))
                return _guarded_exp(expo)
        else:
            def g(lams):
                x = c * lams
                out = np.zeros(len(lams), dtype=complex)
                keep = x < 2000.0  # beyond this W(x) e^(-x/2) underflows
                if keep.any():
                    proxy = np.exp(np.maximum(
                        -x[keep] / 2.0 + lam_pow.real * np.log(lams[keep]),
                        _EXP_FLOOR))
                    w = whittaker_w_array(kappa, mu, x[keep], weights=proxy)
                    expo = (-x[keep] / 2.0
                            + (lam_pow - 1) * np.log(lams[keep]))
                    out[keep] = w * _guarded_exp(expo)
                return out

        return quad_zero_to_inf(g, target=inner_target, vectorized=True)

    def outer(u: float) -> complex:
        factor = cmath.exp(u_pow * math.log(u))
        if abs(factor) < 1e-290:
            return 0.0
        return factor * inner(u)

    integral = quad_from_one_to_inf(outer, target=outer_target, max_level=9)
    return _prefactor_integral(spec) * integral


def _gamma_args(spec: ArchSpec) -> tuple[complex, complex, complex]:
    s, q = complex(spec.s), complex(spec.q_exp)
    half_ir = complex(spec.ir) / 2.0
    z1 = 3 * s + spec.l - 1 + half_ir - q / 2
    z2 = 3 * s + spec.l - 1 - half_ir - q / 2
    z3 = 3 * s + spec.l - spec.l1 / 2.0 - 0.5 - q / 2
    return z1, z2, z3


def arch_zeta_closed(spec: ArchSpec) -> complex:
    """Closed Gamma form; for l >= l1 the simplified printed variant is
    evaluated as well and both must agree to 1e-12."""
    if spec.gate.real <= 0:
        raise DivergentParameters("convergence gate violated")
    s, q = complex(spec.s), complex(spec.q_exp)
    z1, z2, z3 = _gamma_args(spec)
    shared = (complex(spec.a_plus) * math.pi
              * cmath.exp((-3 * s - spec.l / 2 + q / 2) * math.log(spec.D))
              * cmath.exp((-3 * s + 1.5 - spec.l + q) * math.log(4 * math.pi))
              * complex_gamma(z1) * complex_gamma(z2))
    value = ((1j) ** (spec.l + spec.l2) * shared
             / (spec.gate * complex_gamma(z3)))
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
    s, q = complex(spec.s), complex(spec.q_exp)
    z1, z2, z3 = _gamma_args(spec)
    return ((1j) ** (spec.l - spec.l1) * complex(spec.a_plus) / 2.0 * math.pi
            * cmath.exp((-3 * s - spec.l / 2 + q / 2) * math.log(spec.D))
            * cmath.exp((-3 * s + 1.5 - spec.l + q) * math.log(4 * math.pi))
            * complex_gamma(z1) * complex_gamma(z2) / complex_gamma(z3 + 1.0))


def arch_zeta_closed_logderiv(spec: ArchSpec) -> complex:
    """d/ds log of the closed form, for the holomorphy sanity check."""
    z1, z2, z3 = _gamma_args(spec)
    return (-3 * math.log(spec.D) - 3 * math.log(4 * math.pi)
            - 6 / spec.gate
            + 3 * digamma(z1) + 3 * digamma(z2) - 3 * digamma(z3))
