"""Reference values that only the tests read, kept out of the package.

digamma and the closed form's log-derivative check the archimedean Gamma
quotient, and the nested quadrature checks that the package's product of
two one-dimensional quadratures is the double integral; the group orders,
the P4 membership test, the second Weyl element T2 and the subgroup
closure check the coset generators, and the determinant checks the
package's spans, which decide invertibility over F_p.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from localzeta.arch import (ArchSpec, _gamma_args, _narrow, _times_prefactor,
                            _whittaker_params, whittaker_w_array)
from localzeta.cgamma import _checked
from localzeta.cosets import _P4_MASK
from localzeta.errors import Infeasible
from localzeta.quadrature import quad_zero_to_inf

# Bernoulli numbers B_2 .. B_14 for the digamma asymptotic series.
_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0,
)


def digamma(z: complex) -> complex:
    """psi(z): psi(1 - z) - pi cot(pi z) for Re z < 1/2 (DLMF 5.5.4; exact
    reduction by round(Re z)), then <= 12 upward steps to the asymptotics."""
    z = _checked(z, "digamma")
    if z.real < 0.5:
        return (digamma(1.0 - z)
                - math.pi / cmath.tan(math.pi * (z - round(z.real))))
    acc = 0.0 + 0.0j
    while z.real < 12.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    series = 0.0 + 0.0j
    power = inv2
    for n, b in enumerate(_BERNOULLI, start=1):
        series += b / (2 * n) * power
        power *= inv2
    return acc + cmath.log(z) - 0.5 / z - series


def arch_zeta_closed_logderiv(spec: ArchSpec) -> complex:
    """d/ds log of the closed form, for the holomorphy sanity check."""
    z1, z2, z3 = _gamma_args(spec)
    return (-3 * math.log(spec.D) - 3 * math.log(4 * math.pi)
            - 6 / spec.gate
            + 3 * digamma(z1) + 3 * digamma(z2) - 3 * digamma(z3))


def arch_zeta_nested(spec: ArchSpec) -> complex:
    """The archimedean double integral by nested adaptive quadrature, with
    no change of variables: 0.1-2 s and up to 230 MB per integral-regime
    spec, where the package's product route takes 8-20 ms.

    The outer integral runs over u = 1 + t.  Each outer level hands all its
    new u nodes to one batched inner integral over lambda, one row per u,
    with u^(u_pow) inside the Whittaker exponent, so the batch converges
    relative to the largest contribution to the outer sum.  The outer nodes
    u reach 7.5e226, so 4 pi sqrt(D) u is a double only for D <= 10^160.
    """
    s, q = complex(spec.s), complex(spec.q_exp)
    kappa, mu, _ = _whittaker_params(spec.l1 / 2.0, complex(spec.ir) / 2.0)
    u_pow = _narrow(-3 * s - 1.5 + q / 2 - spec.l - spec.l2)
    lam_pow = _narrow(3 * s - 1.5 + spec.l - q / 2)
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

    integral = quad_zero_to_inf(outer, target=5e-11, max_level=9)
    return _times_prefactor(spec, integral)


T2 = ((1, 0, 0, 0),
      (0, 0, 0, 1),
      (0, 0, 1, 0),
      (0, -1, 0, 0))


def sp4_order(p: int) -> int:
    return p**4 * (p**2 - 1) * (p**4 - 1)


def gsp4_order(p: int) -> int:
    return sp4_order(p) * (p - 1)


def det_mod_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Batch determinant mod p via the two-row Laplace expansion."""
    m = mats.astype(np.int64)
    a, b, c, d = m[:, 0], m[:, 1], m[:, 2], m[:, 3]

    def minor2(u, v, i, j):
        return u[:, i] * v[:, j] - u[:, j] * v[:, i]

    det = (minor2(a, b, 0, 1) * minor2(c, d, 2, 3)
           - minor2(a, b, 0, 2) * minor2(c, d, 1, 3)
           + minor2(a, b, 0, 3) * minor2(c, d, 1, 2)
           + minor2(a, b, 1, 2) * minor2(c, d, 0, 3)
           - minor2(a, b, 1, 3) * minor2(c, d, 0, 2)
           + minor2(a, b, 2, 3) * minor2(c, d, 0, 1))
    return det % p


def _in_p4(mats: np.ndarray, p: int) -> np.ndarray:
    """Which (N,4,4) matrices are invertible mod p and match the P4 pattern."""
    m = np.asarray(mats, dtype=np.int64) % p
    return ((m[:, ~_P4_MASK] == 0).all(axis=1)
            & (det_mod_batch(m, p) != 0))


_CLOSURE_LIMIT = 2_000_000  # elements a subgroup closure may reach


def generated_subgroup_order(gens: list[np.ndarray], p: int) -> int:
    """Order of the subgroup generated by gens, by batched BFS closure.

    A matrix is held as its four row keys, row . (1, p, p^2, p^3); its
    key, as _kernels keys a matrix, is then rows . (1, p^4, p^8, p^12).  Row r of m @ g is (row r of m) @ g, so one table per
    generator over the p^4 row keys gives every product.  The keys seen
    so far are one sorted int64 array.
    """
    digits = p ** np.arange(4, dtype=np.int64)
    vecs = np.arange(p**4, dtype=np.int64)[:, None] // digits % p
    step = np.stack([vecs @ (np.asarray(g, dtype=np.int64) % p) % p @ digits
                     for g in gens])
    weights = p ** (4 * np.arange(4, dtype=np.int64))
    frontier = digits[None]  # the identity
    seen = frontier @ weights
    while len(frontier):
        rows = step[:, frontier].reshape(-1, 4)
        keys, idx = np.unique(rows @ weights, return_index=True)
        fresh = ~np.isin(keys, seen, assume_unique=True)
        seen = np.union1d(seen, keys[fresh])
        if len(seen) > _CLOSURE_LIMIT:
            raise Infeasible(
                f"subgroup closure exceeded {_CLOSURE_LIMIT} elements")
        frontier = rows[idx[fresh]]
    return len(seen)
