"""Brute-force double-coset decomposition GL4(k) = P4 GSp4 | P4 t1 GSp4.

P4 is the parabolic stabilizing the flag <e1> inside <e1,e2,e4>, GSp4 is
taken with respect to J = [[0, 1],[−1, 0]] in 2x2 blocks, and t1 swaps e1
and e2.  Two verification routes are provided: a full label-propagation
partition of GL4(F_2) under the two-sided generator action, and a quotient
route that enumerates the P4-coset space as flags (line, hyperplane) and
counts GSp4 orbits, which also works over F_3 where GL4 has 24 million
elements.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import Infeasible, InvalidArgument, Unsupported

J_MAT = ((0, 0, 1, 0),
         (0, 0, 0, 1),
         (-1, 0, 0, 0),
         (0, -1, 0, 0))

T1 = ((0, 1, 0, 0),
      (1, 0, 0, 0),
      (0, 0, 1, 0),
      (0, 0, 0, 1))

T2 = ((1, 0, 0, 0),
      (0, 0, 0, 1),
      (0, 0, 1, 0),
      (0, -1, 0, 0))

# Positions allowed to be nonzero in P4.
_P4_MASK = np.array([[1, 1, 1, 1],
                     [0, 1, 1, 1],
                     [0, 0, 1, 0],
                     [0, 1, 1, 1]], dtype=bool)


def gl4_order(p: int) -> int:
    return (p**4 - 1) * (p**4 - p) * (p**4 - p**2) * (p**4 - p**3)


def sp4_order(p: int) -> int:
    return p**4 * (p**2 - 1) * (p**4 - 1)


def gsp4_order(p: int) -> int:
    return sp4_order(p) * (p - 1)


def p4_order(p: int) -> int:
    # Levi GL1 x GL2 x GL1 over a 5-dimensional unipotent radical.
    return (p - 1) ** 2 * (p**2 - 1) * (p**2 - p) * p**5


def _check_p(p: int) -> None:
    if p not in (2, 3):
        raise Unsupported(f"only p in {{2, 3}} is supported, got {p}")


def _np_mat(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64)


def _in_p4(mats: np.ndarray, p: int) -> np.ndarray:
    """Which (N,4,4) matrices are invertible mod p and match the P4 pattern."""
    m = np.asarray(mats, dtype=np.int64) % p
    return ((m[:, ~_P4_MASK] == 0).all(axis=1)
            & (_kernels.det_mod_batch(m, p) != 0))


def _similitude_factors(mats: np.ndarray, p: int) -> np.ndarray:
    """mu with t(g) J g = mu J mod p for each (N,4,4) matrix g, 0 if g is
    not in GSp4.  J has a 1 at (0, 2), so mu can only be that entry."""
    m = np.asarray(mats, dtype=np.int64) % p
    j = _np_mat(J_MAT) % p
    w = np.einsum("nji,jk,nkl->nil", m, j, m) % p
    mu = w[:, 0, 2]
    return np.where((w == mu[:, None, None] * j % p).all(axis=(1, 2)), mu, 0)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def p4_generators(p: int) -> list[np.ndarray]:
    """Transvections respecting the P4 pattern, plus diagonal units."""
    gens = []
    eye = np.eye(4, dtype=np.int64)
    for i, j in zip(*np.nonzero(_P4_MASK)):
        if i == j:
            continue
        for lam in range(1, p):
            g = eye.copy()
            g[i, j] = lam
            gens.append(g)
    for pos in range(4):
        for u in range(2, p):
            g = eye.copy()
            g[pos, pos] = u
            gens.append(g)
    return gens


def gsp4_generators(p: int) -> list[np.ndarray]:
    """Siegel-unipotent, Levi and similitude generators of GSp4."""
    gens = []
    eye = np.eye(4, dtype=np.int64)
    sym_basis = [np.array([[1, 0], [0, 0]]), np.array([[0, 0], [0, 1]]),
                 np.array([[0, 1], [1, 0]])]
    for b in sym_basis:
        for lam in range(1, p):
            g = eye.copy()
            g[0:2, 2:4] = (lam * b) % p
            gens.append(g)
            h = eye.copy()
            h[2:4, 0:2] = (lam * b) % p
            gens.append(h)
    # Levi block diag(A, cof(A)) for A generating GL2: cof(A) = det(A) t(A)^-1
    # makes it a similitude with mu = det(A), and the mu generators below
    # supply the rest of diag(A, t(A)^-1).
    levi = []
    for lam in range(1, p):
        levi += [(1, lam, 0, 1), (1, 0, lam, 1)]
    for u in range(2, p):
        levi += [(u, 0, 0, 1), (1, 0, 0, u)]
    for a, b, c, d in levi:
        g = eye.copy()
        g[0:2, 0:2] = [[a, b], [c, d]]
        g[2:4, 2:4] = np.array([[d, -c], [-b, a]]) % p
        gens.append(g)
    for mu in range(2, p):
        gens.append(np.diag([1, 1, mu, mu]).astype(np.int64))
    if not _similitude_factors(np.stack(gens), p).all():
        raise RuntimeError("a GSp4 generator is not a similitude")
    return gens


_CLOSURE_LIMIT = 2_000_000  # elements a subgroup closure may reach


def generated_subgroup_order(gens: list[np.ndarray], p: int) -> int:
    """Order of the subgroup generated by gens, by batched BFS closure.

    A matrix is held as its four row keys, row . (1, p, p^2, p^3); its
    packed key, as _kernels.pack_keys makes it, is then rows . (1, p^4,
    p^8, p^12).  Row r of m @ g is (row r of m) @ g, so one table per
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


@dataclass(frozen=True)
class CosetReport:
    p: int
    method: str
    class_count: int
    sizes: list[int]
    flag_orbit_sizes: Optional[list[int]]
    reps: list[list[list[int]]]
    identity_class: int
    t1_class: int
    t1_distinct: bool
    elapsed_s: float
    extras: dict

    def to_json(self):
        out = {
            "p": self.p,
            "method": self.method,
            "classes": self.class_count,
            "sizes": self.sizes,
            "reps": self.reps,
            "identity_class": self.identity_class,
            "t1_class": self.t1_class,
            "t1_distinct": self.t1_distinct,
            "elapsed_s": round(self.elapsed_s, 3),
        }
        if self.flag_orbit_sizes is not None:
            out["flag_orbit_sizes"] = self.flag_orbit_sizes
        out.update(self.extras)
        return out


def _report(p: int, method: str, labels: np.ndarray, lab_e: int, lab_t: int,
            rep_of, t0: float, extras: dict,
            coset_size: Optional[int] = None) -> CosetReport:
    """The report on the orbits that labels mark, timed from t0.

    lab_e and lab_t label the points of 1 and t1; rep_of(root) is the
    representative shown for the orbit with that root.  When each point is
    a P4-coset of coset_size elements, sizes count elements, and the orbit
    sizes in points are the flag orbit sizes.
    """
    roots, counts = np.unique(labels, return_counts=True)
    class_index = {int(r): i for i, r in enumerate(roots)}
    points = counts.tolist()
    return CosetReport(
        p=p, method=method, class_count=len(roots),
        sizes=[s * (coset_size or 1) for s in points],
        flag_orbit_sizes=points if coset_size else None,
        reps=[rep_of(r) for r in roots.tolist()],
        identity_class=class_index[lab_e], t1_class=class_index[lab_t],
        t1_distinct=lab_e != lab_t, elapsed_s=time.perf_counter() - t0,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Full enumeration route (p = 2)
# ---------------------------------------------------------------------------

def _partition_full(p: int) -> CosetReport:
    if p != 2:
        raise Infeasible(
            f"full enumeration partition is limited to p = 2 "
            f"(GL4(F_{p}) has {gl4_order(p)} elements); use method='quotient'")
    t0 = time.perf_counter()
    keys = _kernels.enumerate_invertible_keys(p)
    mats = _kernels.unpack_keys(keys, p)
    perms = [_kernels.generator_permutation(mats, keys, g, p, left=True)
             for g in p4_generators(p)]
    perms += [_kernels.generator_permutation(mats, keys, g, p, left=False)
              for g in gsp4_generators(p)]
    labels = _kernels.orbit_labels(perms, len(keys))
    ids = _kernels.lookup(keys, _kernels.pack_keys(
        np.stack([np.eye(4, dtype=np.int64), _np_mat(T1)]), p))
    lab_e, lab_t = labels[ids].tolist()
    return _report(p, "full", labels, lab_e, lab_t,
                   lambda r: mats[r].tolist(), t0, {"group_order": len(keys)})


# ---------------------------------------------------------------------------
# Quotient route: P4-cosets as flags (line, hyperplane)
# ---------------------------------------------------------------------------

def _canon_rows(vecs: np.ndarray, p: int) -> np.ndarray:
    """Each row scaled so that its first nonzero entry is 1."""
    vecs = np.asarray(vecs, dtype=np.int64) % p
    nonzero = vecs != 0
    if not nonzero.any(axis=-1).all():
        raise InvalidArgument("zero vector has no canonical form")
    lead = np.take_along_axis(vecs, nonzero.argmax(axis=-1)[..., None], -1)
    return vecs * lead ** (p - 2) % p  # lead^(p-2) = lead^-1 mod p


def _point_keys(rows: np.ndarray, p: int) -> np.ndarray:
    """Base-p keys with weights p^3, p^2, p, 1: they sort like the rows."""
    return rows @ p ** np.arange(3, -1, -1, dtype=np.int64)


def _point_ids(vecs: np.ndarray, keys: np.ndarray, p: int) -> np.ndarray:
    """Ids of the points spanned by the rows of vecs, given the point keys."""
    return _kernels.lookup(keys, _point_keys(_canon_rows(vecs, p), p))


def flag_of_coset(g: np.ndarray, p: int) -> tuple:
    """Invariant of P4 g: the flag (g^-1 <e1>, ker(e3* g)).

    Two matrices lie in the same left P4-coset exactly when these flags
    agree, because P4 is the full stabilizer of (<e1>, <e1,e2,e4>).  The
    line is spanned by the cofactors C_0j of g, which rows 1-3 of g
    annihilate, and g sends it to det(g) e1.
    """
    minors = np.repeat(np.asarray(g, dtype=np.int64)[None] % p, 5, axis=0)
    minors[1:, 0] = np.eye(4, dtype=np.int64)  # det(minors[1 + j]) = C_0j
    det, *line = _kernels.det_mod_batch(minors, p).tolist()
    if det == 0:
        raise InvalidArgument("matrix not invertible mod p")
    line, covector = _canon_rows(np.stack([line, minors[0, 2]]), p).tolist()
    return tuple(line), tuple(covector)


def _partition_quotient(p: int) -> CosetReport:
    t0 = time.perf_counter()
    # the points of P^3(F_p) as canonical rows, ascending
    vecs = np.array(list(itertools.product(range(p), repeat=4))[1:])
    points = np.unique(_canon_rows(vecs, p), axis=0)
    keys = _point_keys(points, p)
    # flags (v, phi) with phi(v) = 0, ordered by phi then v; hyperplanes
    # are points of the dual space
    cov, line = np.nonzero(points @ points.T % p == 0)
    n_flags = len(cov)
    flag_id = np.full((len(points), len(points)), -1, dtype=np.int64)
    flag_id[cov, line] = np.arange(n_flags)
    # b in GSp4 moves (v, phi) to (b^-1 v, phi b); t(b^-1) = t(J) b J / mu,
    # and the scalar does not move a point
    gens = np.stack(gsp4_generators(p))
    j = _np_mat(J_MAT)
    cov_img = _point_ids(points @ gens, keys, p)
    line_img = _point_ids(points @ (j.T @ gens @ j), keys, p)
    actions = flag_id[cov_img[:, cov], line_img[:, line]]
    if (actions < 0).any():
        raise RuntimeError("a generator moved a flag off the incidence set")
    labels = _kernels.orbit_labels(actions, n_flags)
    eye = np.eye(4, dtype=np.int64)
    ids = _point_ids(np.array([flag_of_coset(eye, p),
                               flag_of_coset(_np_mat(T1), p)]), keys, p)
    lab_e, lab_t = labels[flag_id[ids[:, 1], ids[:, 0]]].tolist()
    # orbits show 1 or t1 (1 wins if both share one), any other its root flag
    known = {lab_t: _np_mat(T1).tolist(), lab_e: eye.tolist()}
    return _report(p, "quotient", labels, lab_e, lab_t,
                   lambda r: known.get(r, points[[line[r], cov[r]]].tolist()),
                   t0, {"flags": n_flags, "p4_order": p4_order(p)},
                   coset_size=p4_order(p))


def double_coset_partition(p: int, method: str = "full") -> CosetReport:
    """Partition GL4(F_p) under g ~ a g b with a in P4, b in GSp4."""
    _check_p(p)
    if method == "full":
        return _partition_full(p)
    if method == "quotient":
        return _partition_quotient(p)
    raise InvalidArgument(f"unknown method {method!r}")
