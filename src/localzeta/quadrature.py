"""Adaptive double-exponential quadrature on (0, infinity).

The substitution t = exp((pi/2) sinh(u)) turns integrands with power
behaviour at 0 and (at least) exponential decay at infinity into
double-exponentially decaying trapezoid sums; halving the step until two
successive levels agree gives near-geometric convergence for analytic
integrands.  Integrands are expected to return 0.0 where they underflow.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, QuadratureError

_C = np.pi / 2.0
_CUTOFF = 6.5  # |sinh argument| cap; nodes beyond carry ~1e-200 weights


def _nodes(h: float) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(-int(np.ceil(_CUTOFF / h)), int(np.ceil(_CUTOFF / h)) + 1)
    u = k * h
    t = np.exp(_C * np.sinh(u))
    w = h * _C * np.cosh(u) * t
    good = np.isfinite(t) & np.isfinite(w) & (t > 0)
    return t[good], w[good]


def quad_zero_to_inf(f, *, target: float = 1e-10, max_level: int = 10,
                     vectorized: bool = False) -> complex:
    """Integral of f over (0, inf) for decaying f.

    f takes a positive float (or an ndarray when vectorized=True) and must
    return finite values, with 0.0 past its decay range.  Sums start at
    step 1/4 and are compared from step 1/8 on.
    """
    if max_level < 3:
        raise InvalidArgument("max_level must be >= 3, the first compared level")
    prev = None
    for level in range(2, max_level + 1):
        h = 1.0 / 2**level
        t, w = _nodes(h)
        if vectorized:
            vals = np.asarray(f(t))
        else:
            vals = np.array([f(x) for x in t])
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand returned a non-finite value")
        total = complex(np.sum(w * vals))
        if prev is not None:
            err = abs(total - prev)
            if err <= target * max(abs(total), 1e-300):
                return total
        prev = total
    raise QuadratureError(
        f"no convergence to {target} within {max_level} levels "
        f"(last delta {abs(total - prev):.3e})")


def quad_from_one_to_inf(f, **kw) -> complex:
    """Integral over (1, inf) by shifting to the origin."""
    return quad_zero_to_inf(lambda t: f(1.0 + t), **kw)
