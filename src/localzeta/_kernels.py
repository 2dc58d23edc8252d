"""Hot integer kernels for the finite-group coset oracle, in numpy.

Batch determinants, enumeration of invertible matrices, sorted-key
lookup, generator permutations and orbit labels over F_p.  Matrices are
identified with their row-major base-p packed int64 keys.
"""

from __future__ import annotations

import numpy as np


def _powers16(p: int) -> np.ndarray:
    return p ** np.arange(16, dtype=np.int64)


def pack_keys(mats: np.ndarray, p: int) -> np.ndarray:
    """Row-major base-p packing of (N,4,4) matrices into int64 keys."""
    flat = mats.reshape(-1, 16).astype(np.int64)
    return flat @ _powers16(p)


def unpack_keys(keys: np.ndarray, p: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    digits = (keys[:, None] // _powers16(p)[None, :]) % p
    return digits.reshape(-1, 4, 4).astype(np.uint8)


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


def enumerate_invertible_keys(p: int) -> np.ndarray:
    """Keys of all invertible 4x4 matrices mod p, ascending."""
    total = p ** 16
    chunk = 1 << 20
    kept = []
    for start in range(0, total, chunk):
        keys = np.arange(start, min(start + chunk, total), dtype=np.int64)
        mats = unpack_keys(keys, p)
        dets = det_mod_batch(mats, p)
        kept.append(keys[dets != 0])
    return np.concatenate(kept)


def lookup(keys: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Positions of found in the ascending keys; RuntimeError if any is
    missing."""
    idx = np.searchsorted(keys, found)
    if idx.max(initial=0) >= len(keys) or not np.array_equal(keys[idx], found):
        raise RuntimeError("a key is not in the table")
    return idx


def generator_permutation(mats: np.ndarray, keys: np.ndarray, gen: np.ndarray,
                          p: int, left: bool) -> np.ndarray:
    """Ids of gen @ m (left) or m @ gen (right) for every enumerated m."""
    g = np.asarray(gen, dtype=np.int64)  # so products of uint8 rows are int64
    return lookup(keys, pack_keys((g @ mats if left else mats @ g) % p, p))


def orbit_labels(perms: list[np.ndarray], n: int) -> np.ndarray:
    """Labels constant on orbits of the group generated by the permutations.

    Each label is the minimal element id of its orbit, reached by monotone
    label propagation to a fixpoint.
    """
    labels, before = np.arange(n, dtype=np.int64), None
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
