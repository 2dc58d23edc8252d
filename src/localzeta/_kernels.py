"""Hot integer kernels for the finite-group coset oracle, in numpy.

Four base-q digits have the key digits . (1, q, q^2, q^3): a vector of
F_p^4 with q = p, and a 4x4 matrix over F_p, as its four row keys, with
q = p^4.  Keys become ids by one gather through a dense table, and spans,
not determinants, pick out the invertible matrices.
"""

from __future__ import annotations

import numpy as np


def vector_keys(vecs: np.ndarray, q: int) -> np.ndarray:
    """Keys of the vectors on the last axis of vecs, digits in [0, q)."""
    return vecs @ q ** np.arange(4, dtype=np.int64)


def key_vectors(q: int) -> np.ndarray:
    """The q^4 vectors of four base-q digits; row k has key k."""
    return np.arange(q**4, dtype=np.int64)[:, None] // q ** np.arange(4) % q


def id_table(rows: np.ndarray, q: int) -> np.ndarray:
    """Dense table of the q^4 keys: id i at the key of rows[i], else -1."""
    table = np.full(q**4, -1, dtype=np.int64)
    table[vector_keys(rows, q)] = np.arange(len(rows))
    return table


def gather_ids(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The ids of keys in a dense table; RuntimeError at a key without one,
    which a singular generator makes."""
    ids = table[keys]
    if (ids < 0).any():
        raise RuntimeError("a key has no id: a singular generator made a "
                           "zero vector or a singular matrix")
    return ids


def enumerate_invertible_keys(p: int) -> np.ndarray:
    """Row keys of all invertible 4x4 matrices mod p, one (N, 4) array in
    ascending order of the matrix keys: rows 3, 2, 1, 0 in turn, each one
    outside the span of the rows before it, put in front as the least
    significant digit, so that np.nonzero yields them in that order."""
    vecs, rows = key_vectors(p), np.empty((1, 0), dtype=np.int64)
    for k in range(4):
        # the p^k combinations of each prefix's k rows
        span = vector_keys(vecs[:p**k, :k] @ vecs[rows] % p, p)
        outside = np.ones((len(rows), p**4), dtype=bool)
        np.put_along_axis(outside, span, False, axis=1)
        prefix, row = np.nonzero(outside)
        rows = np.column_stack([row, rows[prefix]])
    return rows


def generator_permutation(id_of: np.ndarray, rows: np.ndarray,
                          gens: np.ndarray, p: int) -> np.ndarray:
    """(k, n) ids of m @ g for the (k,4,4) gens and the matrices m that
    rows hold, id_of their table.  Row r of m @ g is (row r of m) @ g, so
    one table of the p^4 row keys per generator gives every product."""
    step = vector_keys(key_vectors(p) @ gens % p, p)
    return gather_ids(id_of, vector_keys(step[:, rows], p**4))


def orbit_labels(perms: np.ndarray) -> np.ndarray:
    """Labels constant on orbits of the group generated by the (k, n) array
    of permutations, one row per generator.

    Each label is the minimal element id of its orbit, reached by monotone
    label propagation to a fixpoint.
    """
    labels, before = np.arange(perms.shape[1], dtype=np.int64), None
    while not np.array_equal(labels, before):
        before = labels.copy()
        for perm in perms:
            np.minimum(labels, labels[perm], out=labels)
            np.minimum.at(labels, perm, labels)
        # shorten chains: label of label
        labels = labels[labels]
    # closure check after the fixpoint: every generator preserves the classes
    for perm in perms:
        if not np.array_equal(labels[perm], labels):
            raise RuntimeError("orbit labels not stable under a generator")
    return labels
