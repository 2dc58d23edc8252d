"""Brute-force double-coset decomposition GL4(k) = P4 GSp4 | P4 t1 GSp4.

P4 is the parabolic stabilizing the flag <e1> inside <e1,e2,e4>, GSp4 is
taken with respect to J = [[0, 1],[−1, 0]] in 2x2 blocks, and t1 swaps e1
and e2.  Two verification routes are provided: a full union-find partition
of GL4(F_2) under the two-sided generator action, and a quotient route that
enumerates the P4-coset space as flags (line, hyperplane) and counts GSp4
orbits, which also works over F_3 where GL4 has 24 million elements.
"""

from __future__ import annotations

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

# Positions allowed to be nonzero in P4 (row, col).
_P4_PATTERN = {(0, 0), (0, 1), (0, 2), (0, 3),
               (1, 1), (1, 2), (1, 3),
               (2, 2),
               (3, 1), (3, 2), (3, 3)}


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


def p4_pattern_mask() -> np.ndarray:
    mask = np.zeros((4, 4), dtype=bool)
    for i, j in _P4_PATTERN:
        mask[i, j] = True
    return mask


def is_in_p4(mat: np.ndarray, p: int) -> bool:
    mat = np.asarray(mat) % p
    if (mat[~p4_pattern_mask()] != 0).any():
        return False
    return int(_kernels.det_mod_batch(mat[None, :, :], p)[0]) != 0


def similitude_factor(mat: np.ndarray, p: int) -> Optional[int]:
    """mu with t(g) J g = mu J mod p, or None if g is not in GSp4."""
    g = np.asarray(mat, dtype=np.int64) % p
    j = _np_mat(J_MAT) % p
    w = (g.T @ j @ g) % p
    for mu in range(1, p):
        if np.array_equal(w, (mu * j) % p):
            return mu
    return None


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def p4_generators(p: int) -> list[np.ndarray]:
    """Transvections respecting the P4 pattern, plus diagonal units."""
    gens = []
    eye = np.eye(4, dtype=np.int64)
    for (i, j) in sorted(_P4_PATTERN):
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
    for g in gens:
        assert similitude_factor(g, p) is not None
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
    p = enum.p
    j = (_np_mat(J_MAT) % p).astype(np.int64)
    m = enum.mats.astype(np.int64)
    w = np.einsum("nji,jk,nkl->nil", m, j, m) % p
    keep = np.zeros(len(enum), dtype=bool)
    for mu in range(1, p):
        keep |= (w == (mu * j) % p).all(axis=(1, 2))
    return np.nonzero(keep)[0]


def filter_p4(enum: GroupEnumeration) -> np.ndarray:
    """Ids of all invertible matrices matching the P4 sparsity pattern."""
    mask = ~p4_pattern_mask()
    keep = (enum.mats[:, mask] == 0).all(axis=1)
    return np.nonzero(keep)[0]


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
    # closure check after fixpoint: every generator preserves the classes
    for perm in perms:
        if not np.array_equal(labels[perm], labels):
            raise RuntimeError("orbit labels not stable under a generator")
    roots, counts = np.unique(labels, return_counts=True)
    order = np.argsort(roots)
    roots, counts = roots[order], counts[order]
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

def _canon_vector(vec, p: int) -> tuple:
    v = [int(x) % p for x in vec]
    lead = next((x for x in v if x), None)
    if lead is None:
        raise InvalidArgument("zero vector has no canonical form")
    scale = pow(lead, -1, p)
    return tuple(x * scale % p for x in v)


def _all_lines(p: int) -> list[tuple]:
    out = set()
    for key in range(1, p**4):
        vec = [(key // p**i) % p for i in range(4)]
        out.add(_canon_vector(vec, p))
    return sorted(out)


def flag_of_coset(g: np.ndarray, p: int) -> tuple:
    """Invariant of P4 g: the flag (g^-1 <e1>, ker(e3* g)).

    Two matrices lie in the same left P4-coset exactly when these flags
    agree, because P4 is the full stabilizer of (<e1>, <e1,e2,e4>).
    """
    ginv = _mat_inv_mod(g, p)
    line = _canon_vector(ginv[:, 0], p)
    covector = _canon_vector(np.asarray(g, dtype=np.int64)[2, :], p)
    return line, covector


def _partition_quotient(p: int) -> CosetReport:
    t0 = time.perf_counter()
    lines = _all_lines(p)
    covectors = _all_lines(p)  # hyperplanes are lines in the dual space
    flags = []
    for phi in covectors:
        for v in lines:
            if sum(a * b for a, b in zip(phi, v)) % p == 0:
                flags.append((v, phi))
    index = {f: i for i, f in enumerate(flags)}
    gens = gsp4_generators(p)
    actions = []
    for b in gens:
        binv = _mat_inv_mod(b, p)
        perm = np.empty(len(flags), dtype=np.int64)
        for i, (v, phi) in enumerate(flags):
            nv = _canon_vector(binv @ np.asarray(v, dtype=np.int64) % p, p)
            nphi = _canon_vector(np.asarray(phi, dtype=np.int64) @ b % p, p)
            perm[i] = index[(nv, nphi)]
        actions.append(perm)
    labels = _kernels.orbit_labels(actions, len(flags))
    for perm in actions:
        if not np.array_equal(labels[perm], labels):
            raise RuntimeError("flag orbit labels not stable under a generator")
    roots, counts = np.unique(labels, return_counts=True)
    class_index = {int(r): i for i, r in enumerate(roots)}
    eye_flag = flag_of_coset(np.eye(4, dtype=np.int64), p)
    t1_flag = flag_of_coset(_np_mat(T1), p)
    lab_e = int(labels[index[eye_flag]])
    lab_t = int(labels[index[t1_flag]])
    flag_sizes = counts.astype(int).tolist()
    sizes = [s * p4_order(p) for s in flag_sizes]
    reps = []
    for r in roots:
        if int(r) == lab_e:
            reps.append(np.eye(4, dtype=int).tolist())
        elif int(r) == lab_t:
            reps.append([list(row) for row in T1])
        else:
            reps.append([list(f) for f in flags[int(r)]])
    elapsed = time.perf_counter() - t0
    return CosetReport(
        p=p, method="quotient",
        class_count=len(roots), sizes=sizes, flag_orbit_sizes=flag_sizes,
        reps=reps,
        identity_class=class_index[lab_e], t1_class=class_index[lab_t],
        t1_distinct=lab_e != lab_t, elapsed_s=elapsed,
        extras={"flags": len(flags), "p4_order": p4_order(p)},
    )


def double_coset_partition(p: int, method: str = "full") -> CosetReport:
    """Partition GL4(F_p) under g ~ a g b with a in P4, b in GSp4."""
    _check_p(p)
    if method == "full":
        return _partition_full(p)
    if method == "quotient":
        return _partition_quotient(p)
    raise InvalidArgument(f"unknown method {method!r}")
