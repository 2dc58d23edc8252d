"""Brute-force double-coset decomposition GL4(k) = P4 GSp4 | P4 t1 GSp4.

P4 is the parabolic stabilizing the flag <e1> inside <e1,e2,e4>, GSp4 is
taken with respect to J = [[0, 1],[−1, 0]] in 2x2 blocks, and t1 swaps e1
and e2.  Two verification routes are provided: a full label-propagation
partition of GL4(F_2) under the two-sided generator action, and a quotient
route that enumerates the P4-coset space as flags (line, hyperplane) and
counts GSp4 orbits, which also works over F_3 where GL4 has 24 million
elements.

Both routes key vectors of F_p^4 in base p and turn keys into ids by one
gather through a dense table (see _kernels): the full route holds each
matrix by its four row keys, the quotient maps each vector to its point.
Spans decide invertibility: GL4(F_2) is built row by row, and the line of
a coset P4 g is read off the point table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import Infeasible, InvalidArgument, Unsupported, require_int

J_MAT = ((0, 0, 1, 0),
         (0, 0, 0, 1),
         (-1, 0, 0, 0),
         (0, -1, 0, 0))

T1 = ((0, 1, 0, 0),
      (1, 0, 0, 0),
      (0, 0, 1, 0),
      (0, 0, 0, 1))

# Positions allowed to be nonzero in P4.
_P4_MASK = np.array([[1, 1, 1, 1],
                     [0, 1, 1, 1],
                     [0, 0, 1, 0],
                     [0, 1, 1, 1]], dtype=bool)


def gl4_order(p: int) -> int:
    return (p**4 - 1) * (p**4 - p) * (p**4 - p**2) * (p**4 - p**3)


def p4_order(p: int) -> int:
    # Levi GL1 x GL2 x GL1 over a 5-dimensional unipotent radical.
    return (p - 1) ** 2 * (p**2 - 1) * (p**2 - p) * p**5


def _check_p(p: int) -> None:
    require_int("p", p)
    if p not in (2, 3):
        raise Unsupported(f"only p in {{2, 3}} is supported, got {p}")


def _np_mat(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64)


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

def p4_generators(p: int) -> np.ndarray:
    """Transvections respecting the P4 pattern, plus diagonal units, as one
    (N, 4, 4) int64 array."""
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
    return np.array(gens)


def gsp4_generators(p: int) -> np.ndarray:
    """Siegel-unipotent, Levi and similitude generators of GSp4, as one
    (N, 4, 4) int64 array with entries in [0, p)."""
    gens = []
    e1, e2, e3, e4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    # the Siegel unipotents [[1, S], [0, 1]] and [[1, 0], [S, 1]] for
    # S = [[a, b], [b, d]] a multiple of each symmetric basis matrix
    for s11, s22, s12 in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for lam in range(1, p):
            a, d, b = lam * s11, lam * s22, lam * s12
            gens.append(((1, 0, a, b), (0, 1, b, d), e3, e4))
            gens.append((e1, e2, (a, b, 1, 0), (b, d, 0, 1)))
    # Levi block diag(A, cof(A)) for A generating GL2: cof(A) = det(A) t(A)^-1
    # makes it a similitude with mu = det(A), and the mu generators below
    # supply the rest of diag(A, t(A)^-1).
    levi = []
    for lam in range(1, p):
        levi += [(1, lam, 0, 1), (1, 0, lam, 1)]
    for u in range(2, p):
        levi += [(u, 0, 0, 1), (1, 0, 0, u)]
    for a, b, c, d in levi:
        gens.append(((a, b, 0, 0), (c, d, 0, 0),
                     (0, 0, d, -c % p), (0, 0, -b % p, a)))
    for mu in range(2, p):
        gens.append((e1, e2, (0, 0, mu, 0), (0, 0, 0, mu)))
    gens = np.array(gens, dtype=np.int64)
    if not _similitude_factors(gens, p).all():
        raise RuntimeError("a GSp4 generator is not a similitude")
    return gens


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
    rows = _kernels.enumerate_invertible_keys(p)
    mats = _kernels.key_vectors(p)[rows]
    id_of = _kernels.id_table(rows, p**4)
    # g m is the transpose of t(m) t(g): P4 acts on the column keys
    cols = _kernels.vector_keys(mats.transpose(0, 2, 1), p)
    perms = np.concatenate([
        _kernels.generator_permutation(_kernels.id_table(cols, p**4), cols,
                                       p4_generators(p).transpose(0, 2, 1), p),
        _kernels.generator_permutation(id_of, rows, gsp4_generators(p), p)])
    labels = _kernels.orbit_labels(perms)
    e_t1 = _kernels.vector_keys(np.stack([np.eye(4, dtype=np.int64),
                                          _np_mat(T1)]), p)
    lab_e, lab_t = labels[_kernels.gather_ids(
        id_of, _kernels.vector_keys(e_t1, p**4))].tolist()
    return _report(p, "full", labels, lab_e, lab_t,
                   lambda r: mats[r].tolist(), t0, {"group_order": len(mats)})


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


def _point_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of P^3(F_p) as canonical rows in ascending order of their
    keys, and point_of: the id of the point each vector spans, indexed by
    the vector's key, with -1 at the zero vector."""
    vecs = _kernels.key_vectors(p)[1:]
    keys, ids = np.unique(_kernels.vector_keys(_canon_rows(vecs, p), p),
                          return_inverse=True)
    return vecs[keys - 1], np.concatenate([[-1], ids])


def _span_ids(point_of: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """Ids of the points the vectors on the last axis of vecs span;
    RuntimeError at a zero vector."""
    return _kernels.gather_ids(point_of, _kernels.vector_keys(vecs % p, p))


def _coset_flags(gs: np.ndarray, points: np.ndarray, point_of: np.ndarray,
                 p: int) -> np.ndarray:
    """Point ids (line, covector) of the flag of P4 g for each (N,4,4)
    matrix g; see flag_of_coset."""
    gs = np.asarray(gs, dtype=np.int64) % p
    zero = gs @ points.T % p == 0
    line = zero[:, 1:].all(axis=1) & ~zero[:, 0]
    if not (line.sum(axis=1) == 1).all():
        raise InvalidArgument("matrix not invertible mod p")
    return np.column_stack([line.argmax(1), _span_ids(point_of, gs[:, 2], p)])


def flag_of_coset(g: np.ndarray, p: int) -> tuple:
    """Invariant of P4 g: the flag (g^-1 <e1>, ker(e3* g)).

    Two matrices lie in the same left P4-coset exactly when these flags
    agree, because P4 is the full stabilizer of (<e1>, <e1,e2,e4>).  The
    line is the one point that rows 1-3 of g annihilate and row 0 does
    not.  A singular g has none (rows 1-3 of rank 3, row 0 in their span)
    or, when rows 1-3 have rank at most 2, none or at least p.
    """
    _check_p(p)
    try:
        g = np.asarray(g)
    except ValueError:  # rows of different lengths
        raise InvalidArgument("expected a 4x4 matrix, got ragged rows") from None
    if g.shape != (4, 4):
        raise InvalidArgument(f"expected a 4x4 matrix, got shape {g.shape}")
    if g.dtype.kind not in "iu":
        raise InvalidArgument(f"entries must be integers, got {g.dtype}")
    points, point_of = _point_table(p)
    ids = _coset_flags(g[None] % p, points, point_of, p)[0]
    line, covector = points[ids].tolist()
    return tuple(line), tuple(covector)


def _partition_quotient(p: int) -> CosetReport:
    t0 = time.perf_counter()
    points, point_of = _point_table(p)
    # flags (v, phi) with phi(v) = 0, ordered by phi then v; hyperplanes
    # are points of the dual space
    cov, line = np.nonzero(points @ points.T % p == 0)
    n_flags = len(cov)
    flag_id = np.full((len(points), len(points)), -1, dtype=np.int64)
    flag_id[cov, line] = np.arange(n_flags)
    # b in GSp4 moves (v, phi) to (b^-1 v, phi b); t(b^-1) = t(J) b J / mu,
    # and the scalar does not move a point
    gens = gsp4_generators(p)
    j = _np_mat(J_MAT)
    cov_img = _span_ids(point_of, points @ gens, p)
    line_img = _span_ids(point_of, points @ (j.T @ gens @ j), p)
    actions = flag_id[cov_img[:, cov], line_img[:, line]]
    if (actions < 0).any():
        raise RuntimeError("a generator moved a flag off the incidence set")
    labels = _kernels.orbit_labels(actions)
    eye = np.eye(4, dtype=np.int64)
    ids = _coset_flags(np.stack([eye, _np_mat(T1)]), points, point_of, p)
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
