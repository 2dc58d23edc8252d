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


def quad_zero_to_inf(f, *, target: float = 1e-10,
                     max_level: int = 10) -> complex | np.ndarray:
    """Integral of f over (0, inf) for decaying f.

    f takes an ndarray of positive nodes and must return finite values,
    with 0.0 past its decay range.  It may return a batch, one integrand per
    row with the nodes on the last axis; the result is then the array of row
    integrals, and the batch has converged when the largest change of a row
    is within target of the largest row total.  Sums start at step 1/4 and
    are compared from step 1/8 on.
    """
    if max_level < 3:
        raise InvalidArgument("max_level must be >= 3, the first compared level")
    prev = None
    for level in range(2, max_level + 1):
        h = 1.0 / 2**level
        t, w = _nodes(h)
        vals = np.asarray(f(t))
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand returned a non-finite value")
        total = np.sum(w * vals, axis=-1)
        if prev is not None:
            delta = np.max(np.abs(total - prev))
            if delta <= target * max(np.max(np.abs(total)), 1e-300):
                return complex(total) if total.ndim == 0 else total
        prev = total
    raise QuadratureError(
        f"no convergence to {target} within {max_level} levels "
        f"(last delta {delta:.3e}, between levels {level - 1} and {level})")

