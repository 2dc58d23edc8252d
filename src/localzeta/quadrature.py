"""Adaptive double-exponential quadrature on (0, infinity).

The substitution t = exp((pi/2) sinh(u)) turns integrands with power
behaviour at 0 and (at least) exponential decay at infinity into
double-exponentially decaying trapezoid sums; halving the step until two
successive levels agree gives near-geometric convergence for analytic
integrands.  Integrands are expected to return 0.0 where they underflow; a
caller that can bound where they do passes the nodes' support, and the
sums skip the nodes outside it, which would only add those zeros.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidArgument, QuadratureError

_C = np.pi / 2.0
_CUTOFF = 6.5  # |sinh argument| cap; nodes beyond carry ~1e-200 weights


@lru_cache(maxsize=None)
def _nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes t and weights w of the trapezoid sum with step
    h = 2^-level: the whole grid at level 2, and past it only the odd
    multiples of h, the nodes the level before did not have."""
    h = 1.0 / 2**level
    n = int(np.ceil(_CUTOFF / h))  # doubles per level, so the grids nest
    u = (np.arange(-n, n + 1) if level <= 2 else np.arange(1 - n, n, 2)) * h
    t = np.exp(_C * np.sinh(u))
    w = h * _C * np.cosh(u) * t
    good = np.isfinite(t) & np.isfinite(w) & (t > 0)
    t, w = t[good], w[good]
    t.flags.writeable = w.flags.writeable = False
    return t, w


def quad_zero_to_inf(f, *, target: float = 1e-10, max_level: int = 10,
                     support: tuple[float, float] = (0.0, np.inf)
                     ) -> complex | np.ndarray:
    """Integral of f over (0, inf) for decaying f.

    f takes an ndarray of positive nodes and must return finite values,
    with 0.0 past its decay range.  It may return a batch, one integrand per
    row with the nodes on the last axis; the result is then the array of row
    integrals, and the batch has converged when the largest change of a row
    is within target of the largest row total.  Sums start at step 1/4 and
    are compared from step 1/8 on.  The refinement is nested: each level
    halves the step, evaluates f only on the new odd nodes and adds their
    sum to half the previous total, so no node is evaluated twice.  The
    nodes of each level are computed once per process and cached.

    support = (lo, hi) is for callers whose f is exactly 0.0 off lo <= t
    <= hi: each level passes f, and sums, only its nodes in that window,
    and an empty window gives 0.  The default passes every node.
    """
    if max_level < 3:
        raise InvalidArgument("max_level must be >= 3, the first compared level")
    total = None
    for level in range(2, max_level + 1):
        t, w = _nodes(level)  # ascending, so the window is one slice
        i = np.searchsorted(t, support[0])
        j = np.searchsorted(t, support[1], side="right")
        t, w = t[i:j], w[i:j]
        vals = np.asarray(f(t))
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand returned a non-finite value")
        new = np.sum(w * vals, axis=-1)
        if total is None:
            total = new
            continue
        prev, total = total, total / 2 + new
        delta = np.max(np.abs(total - prev))
        if delta <= target * max(np.max(np.abs(total)), 1e-300):
            return complex(total) if total.ndim == 0 else total
    raise QuadratureError(
        f"no convergence to {target} within {max_level} levels "
        f"(last delta {delta:.3e}, between levels {level - 1} and {level})")
