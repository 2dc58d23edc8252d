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

The integrand depends on lambda only through x = c0 u lambda, c0 = 4 pi
sqrt(D), so lambda = x / (c0 u) separates it exactly into c0^(-sigma) M U:
sigma = 3s - 3/2 + l - q/2, M = int_0^inf W(x) e^(-x/2) x^(sigma-1) dx is
the Mellin integral, and U = int_1^inf u^(-6s+q-2l-l2) du.  The quadrature
computes M, and U over v = log u, one-dimensionally, so against the closed
form it checks the Mellin identity, the change of variables and U, which
the closed form reads as 1 / (6s + 2l + l2 - q - 1).

The quadrature's dtype follows its parameters: float64 from end to end
where kappa, mu, s and q (and sigma, for the Mellin check) have imaginary
part 0, complex128 otherwise.  Each such parameter enters the arrays as a
float, and numpy's type promotion does the rest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cgamma import EXP_CEIL, EXP_FLOOR, exp_in_range, log_gamma
from .errors import (DivergentParameters, InvalidArgument, LocalZetaError,
                     UnsupportedParameters, brief, require_complex,
                     require_int, require_known_keys)
from .quadrature import _nodes, quad_zero_to_inf

_TOL = 1e-12


@dataclass(frozen=True)
class ArchSpec:
    """Parameters of one archimedean verification run.

    l2 is determined by the weights: l1 - 2l for l <= l1, else -l1.  The
    Casimir datum r enters only through ir = i*r; for the holomorphic
    discrete series of lowest weight l1 one has ir = l1 - 1.  l and l1
    are at most 1e300 in size, so that the Gamma arguments are doubles.
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
        for name in ("l", "l1"):  # the gate and Gamma arguments are doubles
            if abs(getattr(self, name)) > 1e300:
                raise InvalidArgument(f"{name} must be at most 1e300 in size, "
                                      f"got {brief(getattr(self, name))}")
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
        require_known_keys("an arch spec", obj, ("l", "l1", "D", "q_exp",
                                                 "a_plus", "s", "ir", "r"))
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

def _narrow(z: complex) -> complex:
    """z as a float where its imaginary part is 0, else as a complex."""
    z = complex(z)
    return z.real if z.imag == 0 else z


def _whittaker_params(kappa: complex,
                      mu: complex) -> tuple[complex, complex, str]:
    """(kappa, mu, regime) with Re mu >= 0, by W_{kappa,mu} = W_{kappa,-mu}
    (DLMF 13.14.31), each a float where it is real; raises
    UnsupportedParameters outside both regimes."""
    kappa, mu = _narrow(kappa), _narrow(mu)
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
    which is each x's contribution to a DE sum over x.  There the batch is
    one DE quadrature over t of exp(E - shift), one row per x, run only on
    the rows and the window of t that _integral_support keeps.  Off them a
    bound on Re E - shift, separable in x and t, stays below EXP_FLOOR, so
    each term skipped is the exact 0.0 that exp would underflow to, and
    the sums are those over every row and node up to their grouping.

    The dtype follows the inputs: float64 where kappa, mu and log_factor are
    all real, complex128 where any of them is complex.
    """
    kappa, mu, regime = _whittaker_params(kappa, mu)
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise InvalidArgument("Whittaker argument must be positive and finite")
    logx = np.log(xs)
    if regime == "closed":
        # W_{l/2,(l-1)/2}(x) = e^(-x/2) x^(l/2)
        return _guarded_exp(-xs / 2.0 + kappa * logx + log_factor)
    # x * W * factor = x^(3/2-mu) e^(-x/2) factor / Gamma(mu-kappa+1/2)
    #   * int_0^inf e^-t t^(mu-kappa-1/2) (x+t)^(mu+kappa-1/2) dt,
    # one row per x.  Shifting the exponent by its largest value on the
    # level-2 nodes puts the largest contribution near 1, so the batch
    # converges relative to it and no row is computed in the subnormals.
    log_norm = log_gamma(mu - kappa + 0.5)
    if isinstance(mu - kappa, float):  # Gamma > 0 at a real argument > 0
        log_norm = log_norm.real
    row = (-xs / 2.0 + (1.5 - mu) * logx + log_factor
           - log_norm).reshape(-1, 1)
    if xs.size == 0:
        return np.zeros(xs.shape, dtype=row.dtype)
    col = xs.reshape(-1, 1)
    a, b = mu - kappa - 0.5, mu + kappa - 0.5

    def expo(t, row=row, col=col):
        return row - t + a * np.log(t) + b * np.log(col + t)

    expo2 = expo(_nodes(2)[0])
    shift = expo2.real.max()
    keep, window = _integral_support(row.real[:, 0] - shift, logx.ravel(),
                                     a, b)
    total = np.zeros(xs.size, dtype=expo2.dtype)
    if keep.any():
        rows, cols = row[keep], col[keep]
        total[keep] = quad_zero_to_inf(
            lambda t: _guarded_exp(expo(t, rows, cols) - shift),
            target=1e-12, max_level=11, support=window)
    with np.errstate(divide="ignore"):  # log(0) = -inf for rows that underflow
        return _guarded_exp(shift - logx + np.log(total).reshape(xs.shape))


@lru_cache(maxsize=None)
def _bound_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t, log t and min(log t, 0) on the nodes of levels 2-4, ascending:
    the whole grid at step 1/16, from the smallest node of any level to
    the largest, with t = 1 among them."""
    t = np.sort(np.concatenate([_nodes(level)[0] for level in (2, 3, 4)]))
    logt = np.log(t)
    return t, logt, np.minimum(logt, 0.0)


def _integral_support(room: np.ndarray, logx: np.ndarray, a: complex,
                      b: complex) -> tuple[np.ndarray, tuple[float, float]]:
    """(keep, (lo, hi)): the rows and the window of t off which the
    exponent E = row - t + a log t + b log(x + t) has Re E - shift <
    EXP_FLOOR, one row per x, where room = Re row - shift.

    The bound is separable, Re E - shift <= X(x) + T(t), with beta = Re b:
    if beta >= 0, since x + t <= 2 max(1, x) max(1, t),
        X = room + beta (log 2 + max(log x, 0)),
        T = -t + Re a log t + beta max(log t, 0);
    if beta < 0, since log(x + t) >= (log x + log t) / 2,
        X = room + beta/2 log x,  T = -t + (Re a + beta/2) log t.
    Either way T = -t + c log t, with c = c_lo below t = 1 and c_hi from
    it on, and each side rises to a peak at t = c or only falls.  So T can
    turn only at t = 1, a node of _bound_nodes, and at the two peaks, and
    between two neighbours of those points where T is below a level it is
    below it too.  The rows kept have X + sup T >= EXP_FLOOR - 1, and
    [lo, hi] spans the points where (largest kept X) + T >= EXP_FLOOR - 1,
    widened by one node on each side.  The margin of 1 absorbs rounding.
    """
    beta = b.real
    if beta >= 0:
        xb = room + beta * (math.log(2.0) + np.maximum(logx, 0.0))
        c_lo, c_hi = a.real, a.real + beta
    else:
        xb = room + beta / 2 * logx
        c_lo = c_hi = a.real + beta / 2
    t, logt, log_below = _bound_nodes()
    tb = c_hi * logt - t + (c_lo - c_hi) * log_below
    peaks = []
    for c in (c_lo, c_hi):
        p = min(max(c, t[0]), t[-1])
        peaks.append((p, c_hi * math.log(p) - p
                      + (c_lo - c_hi) * min(math.log(p), 0.0)))
    floor = EXP_FLOOR - 1.0
    keep = xb + max(tb.max(), peaks[0][1], peaks[1][1]) >= floor
    if not keep.any():
        return keep, (np.inf, 0.0)
    level = floor - xb[keep].max()
    inside = np.flatnonzero(tb >= level)
    first, last = (inside[0], inside[-1]) if inside.size else (t.size, -1)
    for p, value in peaks:
        if value >= level:  # its neighbours bound the points around it
            j = np.searchsorted(t, p)
            first, last = min(first, j), max(last, j - 1)
    lo = t[first - 1] if first > 0 else 0.0
    hi = t[last + 1] if last + 1 < t.size else np.inf
    return keep, (lo, hi)


def whittaker_W(kappa: complex, mu: complex, x: float) -> complex:
    """Classical Whittaker function W_{kappa,mu}(x), x > 0."""
    return complex(whittaker_w_array(kappa, mu, np.array([float(x)]))[0])


def _mellin_integral(kappa: complex, mu: complex, sigma: complex,
                     log_scale=0.0, *, target: float) -> complex:
    """exp(log_scale) int_0^inf W_{kappa,mu}(x) e^(-x/2) x^(sigma-1) dx, the
    scale in W's exponent, so the integral alone may leave the doubles."""
    power = _narrow(sigma - 1)
    return quad_zero_to_inf(
        lambda xs: whittaker_w_array(
            kappa, mu, xs,
            log_factor=-xs / 2.0 + power * np.log(xs) + log_scale),
        target=target)


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
    elif (sigma + kappa).real <= 0:
        raise InvalidArgument("Re(sigma + kappa) > 0 required")

    integral = _mellin_integral(kappa, m, sigma, target=1e-11)
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

def _times_prefactor(spec: ArchSpec, integral: complex) -> complex:
    """i^(l+l2) a+ pi D^(-3s/2-3/4+q/4) (4 pi)^(q/2) times the integral.

    The size is one log sum, exponentiated once, so a prefactor past the
    doubles gives no inf or NaN where the product is a double, and a product
    that is not raises InvalidArgument.  The units i^(l+l2) and a+/|a+| stay
    outside the sum, so a real a+, s and q give a real value.
    """
    if integral == 0:  # every row underflowed, and log 0 is undefined
        return 0j
    s, q = complex(spec.s), complex(spec.q_exp)
    a = complex(spec.a_plus)
    a /= max(abs(a.real), abs(a.imag))  # so that abs(a) cannot overflow
    log_size = (cmath.log(spec.a_plus).real + math.log(math.pi)
                + (-1.5 * s - 0.75 + q / 4) * math.log(spec.D)
                + (q / 2) * math.log(4 * math.pi) + cmath.log(integral))
    return ((1j) ** (spec.l + spec.l2) * (a / abs(a))
            * exp_in_range(log_size, "the quadrature value", "s", spec.s))


def arch_zeta_quadrature(spec: ArchSpec) -> complex:
    """The double integral as c0^(-sigma) M U (see the module docstring).

    -sigma log c0 joins M's exponent, where log c0 = log 4 pi + (log D) / 2
    is a double for any D.  U is its own quadrature, not the closed form's
    1 / gate, over v = log u: there e^(-gate v) decays within the nodes for
    a small gate too, where the tail of u^(-1-gate) lay past them.
    """
    s, q = complex(spec.s), complex(spec.q_exp)
    # fails before any quadrature if unsupported
    kappa, mu, _ = _whittaker_params(spec.l1 / 2.0, complex(spec.ir) / 2.0)
    u_pow = _narrow(-3 * s - 1.5 + q / 2 - spec.l - spec.l2)
    sigma = _narrow(3 * s - 1.5 + spec.l - q / 2)
    log_c0 = math.log(4 * math.pi) + 0.5 * math.log(spec.D)
    m = _mellin_integral(kappa, mu, sigma, -sigma * log_c0, target=1e-12)
    u_integral = quad_zero_to_inf(
        lambda vs: np.exp((u_pow - sigma + 1) * vs), target=1e-12)
    return _times_prefactor(spec, m * u_integral)


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

