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
from dataclasses import dataclass, field
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


def is_in_p4(mat: np.ndarray, p: int) -> bool:
    return bool(_in_p4(np.asarray(mat)[None], p)[0])


def _similitude_factors(mats: np.ndarray, p: int) -> np.ndarray:
    """mu with t(g) J g = mu J mod p for each (N,4,4) matrix g, 0 if g is
    not in GSp4.  J has a 1 at (0, 2), so mu can only be that entry."""
    m = np.asarray(mats, dtype=np.int64) % p
    j = _np_mat(J_MAT) % p
    w = np.einsum("nji,jk,nkl->nil", m, j, m) % p
    mu = w[:, 0, 2]
    return np.where((w == mu[:, None, None] * j % p).all(axis=(1, 2)), mu, 0)


def similitude_factor(mat: np.ndarray, p: int) -> Optional[int]:
    """mu with t(g) J g = mu J mod p, or None if g is not in GSp4."""
    return int(_similitude_factors(np.asarray(mat)[None], p)[0]) or None


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
    # Levi block diag(A, t(A)^-1) for A generating GL2.
    levi_a = []
    for lam in range(1, p):
        a = np.eye(2, dtype=np.int64)
        a[0, 1] = lam
        levi_a.append(a)
        a = np.eye(2, dtype=np.int64)
        a[1, 0] = lam
        levi_a.append(a)
    for u in range(2, p):
        levi_a.append(np.diag([u, 1]).astype(np.int64))
        levi_a.append(np.diag([1, u]).astype(np.int64))
    for a in levi_a:
        g = eye.copy()
        g[0:2, 0:2] = a % p
        g[2:4, 2:4] = _mat_inv_mod(a.T % p, p)
        gens.append(g)
    for mu in range(2, p):
        gens.append(np.diag([1, 1, mu, mu]).astype(np.int64))
    if not _similitude_factors(np.stack(gens), p).all():
        raise RuntimeError("a GSp4 generator is not a similitude")
    return gens


def _mat_inv_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p by Gaussian elimination."""
    n = mat.shape[0]
    a = (np.asarray(mat, dtype=np.int64) % p).tolist()
    inv = np.eye(n, dtype=np.int64).tolist()
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % p != 0), None)
        if pivot is None:
            raise InvalidArgument("matrix not invertible mod p")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = pow(int(a[col][col]), -1, p)
        a[col] = [x * scale % p for x in a[col]]
        inv[col] = [x * scale % p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] % p:
                f = a[r][col] % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
                inv[r] = [(x - f * y) % p for x, y in zip(inv[r], inv[col])]
    return np.asarray(inv, dtype=np.int64)


def generated_subgroup_order(gens: list[np.ndarray], p: int,
                             limit: int = 2_000_000) -> int:
    """Order of the subgroup generated by gens, by batched BFS closure."""
    gens = [np.asarray(g, dtype=np.int64) % p for g in gens]
    seen = {int(_kernels.pack_keys(np.eye(4, dtype=np.int64)[None, :, :], p)[0])}
    frontier = np.eye(4, dtype=np.int64)[None, :, :]
    while frontier.size:
        prods = []
        for g in gens:
            prods.append(np.einsum("nij,jk->nik", frontier, g) % p)
        allp = np.concatenate(prods)
        keys = _kernels.pack_keys(allp, p)
        uniq, idx = np.unique(keys, return_index=True)
        fresh = [i for k, i in zip(uniq.tolist(), idx.tolist()) if k not in seen]
        seen.update(int(keys[i]) for i in fresh)
        if len(seen) > limit:
            raise Infeasible(f"subgroup closure exceeded {limit} elements")
        frontier = allp[fresh]
    return len(seen)


# ---------------------------------------------------------------------------
# Full enumeration route (p = 2)
# ---------------------------------------------------------------------------

class GroupEnumeration:
    """All of GL4(F_p) with an id <-> matrix correspondence.

    Ids index the ascending array of base-p packed keys; lookups go through
    binary search on that array.
    """

    __slots__ = ("p", "keys", "mats")

    def __init__(self, p: int, keys: np.ndarray):
        self.p = p
        self.keys = keys
        self.mats = _kernels.unpack_keys(keys, p)

    def __len__(self):
        return len(self.keys)

    def id_of(self, mat) -> int:
        key = int(_kernels.pack_keys(np.asarray(mat, dtype=np.int64)[None] % self.p,
                                     self.p)[0])
        idx = int(np.searchsorted(self.keys, key))
        if idx >= len(self.keys) or self.keys[idx] != key:
            raise InvalidArgument("matrix is not invertible mod p")
        return idx

    def mat_of(self, idx: int) -> np.ndarray:
        return self.mats[idx]


def enumerate_gl4(p: int) -> GroupEnumeration:
    """Enumerate GL4(F_p).  Heavy for p = 3 (24 million matrices)."""
    _check_p(p)
    keys = _kernels.enumerate_invertible_keys(p)
    return GroupEnumeration(p, keys)


def filter_gsp4(enum: GroupEnumeration) -> np.ndarray:
    """Ids of all g with t(g) J g = mu J for some nonzero mu."""
    return np.nonzero(_similitude_factors(enum.mats, enum.p))[0]


def filter_p4(enum: GroupEnumeration) -> np.ndarray:
    """Ids of all invertible matrices matching the P4 sparsity pattern."""
    return np.nonzero(_in_p4(enum.mats, enum.p))[0]


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
    extras: dict = field(default_factory=dict)

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


def _partition_full(p: int) -> CosetReport:
    if p != 2:
        raise Infeasible(
            f"full enumeration partition is limited to p = 2 "
            f"(GL4(F_{p}) has {gl4_order(p)} elements); use method='quotient'")
    t0 = time.perf_counter()
    enum = enumerate_gl4(p)
    n = len(enum)
    perms = []
    for g in p4_generators(p):
        perms.append(_kernels.generator_permutation(
            enum.mats, enum.keys, g, p, left=True))
    right_gens = gsp4_generators(p)
    for g in right_gens:
        perms.append(_kernels.generator_permutation(
            enum.mats, enum.keys, g, p, left=False))
    labels = _kernels.orbit_labels(perms, n)
    roots, counts = np.unique(labels, return_counts=True)
    class_index = {int(r): i for i, r in enumerate(roots)}
    id_identity = enum.id_of(np.eye(4, dtype=np.int64))
    id_t1 = enum.id_of(_np_mat(T1))
    reps = [enum.mat_of(int(r)).astype(int).tolist() for r in roots]
    elapsed = time.perf_counter() - t0
    return CosetReport(
        p=p, method="full",
        class_count=len(roots), sizes=counts.astype(int).tolist(),
        flag_orbit_sizes=None, reps=reps,
        identity_class=class_index[int(labels[id_identity])],
        t1_class=class_index[int(labels[id_t1])],
        t1_distinct=bool(labels[id_identity] != labels[id_t1]),
        elapsed_s=elapsed,
        extras={"group_order": n},
    )


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
    found = _point_keys(_canon_rows(vecs, p), p)
    idx = np.searchsorted(keys, found)
    if idx.max(initial=0) >= len(keys) or not np.array_equal(keys[idx], found):
        raise RuntimeError("a canonical row is not in the point table")
    return idx


def flag_of_coset(g: np.ndarray, p: int) -> tuple:
    """Invariant of P4 g: the flag (g^-1 <e1>, ker(e3* g)).

    Two matrices lie in the same left P4-coset exactly when these flags
    agree, because P4 is the full stabilizer of (<e1>, <e1,e2,e4>).
    """
    g = np.asarray(g, dtype=np.int64)
    line, covector = _canon_rows(
        np.stack([_mat_inv_mod(g, p)[:, 0], g[2, :]]), p).tolist()
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
    # b in GSp4 moves (v, phi) to (b^-1 v, phi b)
    gens = np.stack(gsp4_generators(p))
    inv_t = np.stack([_mat_inv_mod(b, p).T for b in gens])
    cov_img = _point_ids(points @ gens, keys, p)
    line_img = _point_ids(points @ inv_t, keys, p)
    actions = flag_id[cov_img[:, cov], line_img[:, line]]
    if (actions < 0).any():
        raise RuntimeError("a generator moved a flag off the incidence set")
    labels = _kernels.orbit_labels(actions, n_flags)
    roots, counts = np.unique(labels, return_counts=True)
    class_index = {int(r): i for i, r in enumerate(roots)}
    eye = np.eye(4, dtype=np.int64)
    ids = _point_ids(np.array([flag_of_coset(eye, p),
                               flag_of_coset(_np_mat(T1), p)]), keys, p)
    lab_e, lab_t = labels[flag_id[ids[:, 1], ids[:, 0]]].tolist()
    flag_sizes = counts.astype(int).tolist()
    sizes = [s * p4_order(p) for s in flag_sizes]
    # orbits show 1 or t1 (1 wins if both share one), any other its root flag
    known = {lab_t: _np_mat(T1).tolist(), lab_e: eye.tolist()}
    reps = [known.get(int(r), points[[line[r], cov[r]]].tolist())
            for r in roots]
    elapsed = time.perf_counter() - t0
    return CosetReport(
        p=p, method="quotient",
        class_count=len(roots), sizes=sizes, flag_orbit_sizes=flag_sizes,
        reps=reps,
        identity_class=class_index[lab_e], t1_class=class_index[lab_t],
        t1_distinct=lab_e != lab_t, elapsed_s=elapsed,
        extras={"flags": n_flags, "p4_order": p4_order(p)},
    )


def double_coset_partition(p: int, method: str = "full") -> CosetReport:
    """Partition GL4(F_p) under g ~ a g b with a in P4, b in GSp4."""
    _check_p(p)
    if method == "full":
        return _partition_full(p)
    if method == "quotient":
        return _partition_quotient(p)
    raise InvalidArgument(f"unknown method {method!r}")
