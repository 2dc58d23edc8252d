import hashlib
import itertools
import json

import numpy as np
import pytest

from localzeta import _kernels, cosets
from localzeta.errors import Infeasible, InvalidArgument, Unsupported

import oracles


def test_order_formulas_derived():
    # prod_{i=0}^{3} (p^4 - p^i)
    for p in (2, 3):
        expected = 1
        for i in range(4):
            expected *= p**4 - p**i
        assert cosets.gl4_order(p) == expected
    assert cosets.gl4_order(2) == 20160
    assert cosets.gl4_order(3) == 24261120
    assert oracles.sp4_order(2) == 720
    assert oracles.gsp4_order(2) == 720  # mu is forced to 1 over F_2
    assert oracles.gsp4_order(3) == 2 * oracles.sp4_order(3) == 103680


def _matrix_keys(mats, p):
    """Keys of (..., 4, 4) matrices: the base-p^4 keys of their row keys."""
    return _kernels.vector_keys(_kernels.vector_keys(mats % p, p), p**4)


def test_enumeration_p2(gl4_2):
    rows, mats = gl4_2
    assert rows.shape == (20160, 4)
    assert (oracles.det_mod_batch(mats, 2) != 0).all()
    # ascending matrix keys: the order fixes each orbit's representative
    assert (np.diff(_matrix_keys(mats, 2)) > 0).all()
    id_of = _kernels.id_table(rows, 16)
    assert id_of.shape == (2**16,) and (id_of >= 0).sum() == 20160
    eye = np.eye(4, dtype=np.int64)
    (idx,) = _kernels.gather_ids(id_of, _matrix_keys(eye[None], 2))
    assert np.array_equal(mats[idx], eye)
    # identity is idempotent under the product action
    perm = _kernels.generator_permutation(id_of, rows, eye[None], 2)
    assert np.array_equal(perm, np.arange(len(rows))[None])


def test_enumeration_is_the_determinant_filter(gl4_2):
    # the span enumeration against all 65,536 matrices over F_2 filtered by
    # their determinants
    rows = _kernels.key_vectors(16)
    want = rows[oracles.det_mod_batch(_kernels.key_vectors(2)[rows], 2) != 0]
    assert np.array_equal(gl4_2[0], want)


def test_unsupported_p():
    with pytest.raises(Unsupported):
        cosets.double_coset_partition(5, method="quotient")
    with pytest.raises(Unsupported):
        cosets.double_coset_partition(7)


def test_full_method_p3_infeasible():
    with pytest.raises(Infeasible):
        cosets.double_coset_partition(3, method="full")


@pytest.fixture(scope="module")
def gl4_2():
    """The row keys of GL4(F_2) in enumeration order, and its matrices."""
    rows = _kernels.enumerate_invertible_keys(2)
    return rows, _kernels.key_vectors(2)[rows]


def _mu(g, p) -> int:
    """The similitude factor of one matrix, 0 if it is not in GSp4."""
    return int(cosets._similitude_factors(np.asarray(g)[None], p)[0])


def _p4(g, p) -> bool:
    return bool(oracles._in_p4(np.asarray(g)[None], p)[0])


def test_filter_gsp4(gl4_2):
    _, mats = gl4_2
    ids = np.nonzero(cosets._similitude_factors(mats, 2))[0]
    assert len(ids) == 720
    j = np.asarray(cosets.J_MAT) % 2
    assert _mu(j, 2) == 1
    # entrywise similitude relation for every member
    jm = j.astype(np.int64)
    for idx in ids:
        g = mats[idx].astype(np.int64)
        mu = _mu(g, 2)
        assert mu != 0
        assert np.array_equal((g.T @ jm @ g) % 2, (mu * jm) % 2)


def test_similitude_factor_p3():
    assert _mu(np.diag([1, 1, 2, 2]), 3) == 2
    assert _mu(cosets.J_MAT, 3) == 1
    assert _mu(cosets.T1, 3) == 0
    assert _mu(np.zeros((4, 4), dtype=int), 3) == 0


def test_filter_p4(gl4_2):
    _, mats = gl4_2
    ids = np.nonzero(oracles._in_p4(mats, 2))[0]
    assert len(ids) == cosets.p4_order(2) == 192
    # diagonal invertible matrices belong to P4
    assert _p4(np.eye(4, dtype=np.int64), 2)
    # t2 is in P4, t1 is not
    assert _p4(oracles.T2, 2)
    assert not _p4(cosets.T1, 2)
    # the pattern alone is not enough: P4 elements are invertible
    assert not _p4(np.zeros((4, 4), dtype=int), 3)


def test_generator_sets_generate():
    assert oracles.generated_subgroup_order(cosets.p4_generators(2), 2) == 192
    assert oracles.generated_subgroup_order(cosets.gsp4_generators(2), 2) == 720


def test_generator_sets_generate_p3():
    assert oracles.generated_subgroup_order(cosets.p4_generators(3), 3) \
        == cosets.p4_order(3) == 46656
    assert oracles.generated_subgroup_order(cosets.gsp4_generators(3), 3) == 103680


def test_generator_closure_is_bounded(monkeypatch):
    monkeypatch.setattr(oracles, "_CLOSURE_LIMIT", 100)
    with pytest.raises(Infeasible):
        oracles.generated_subgroup_order(cosets.p4_generators(2), 2)


def test_partition_p2_full():
    report = cosets.double_coset_partition(2, method="full")
    assert report.class_count == 2
    assert sum(report.sizes) == 20160
    assert report.t1_distinct
    assert report.identity_class != report.t1_class


def test_partition_against_direct_product_oracle(gl4_2):
    """Compute P4 g GSp4 for g in {1, t1} literally and compare."""
    report = cosets.double_coset_partition(2, method="full")
    _, mats = gl4_2
    keys = _matrix_keys(mats, 2)
    in_p4 = oracles._in_p4(mats, 2)
    in_gsp4 = cosets._similitude_factors(mats, 2) != 0
    A = mats[in_p4].astype(np.int64)
    B = mats[in_gsp4].astype(np.int64)

    def coset_keys(g):
        ag = np.einsum("aij,jk->aik", A, g) % 2
        prods = np.einsum("aij,bjk->abik", ag, B) % 2
        return set(_matrix_keys(prods, 2).ravel().tolist())

    s_eye = coset_keys(np.eye(4, dtype=np.int64))
    s_t1 = coset_keys(np.asarray(cosets.T1, dtype=np.int64))
    assert len(s_eye) + len(s_t1) == 20160
    assert not (s_eye & s_t1)
    assert sorted((len(s_eye), len(s_t1))) == sorted(report.sizes)
    assert len(s_eye) == report.sizes[report.identity_class]
    assert len(s_t1) == report.sizes[report.t1_class]
    # the identity class contains all of P4 and all of GSp4
    p4_keys = set(keys[in_p4].tolist())
    gsp4_keys = set(keys[in_gsp4].tolist())
    assert p4_keys <= s_eye
    assert gsp4_keys <= s_eye


@pytest.mark.parametrize("p", [2, 3])
def test_partition_quotient(p):
    report = cosets.double_coset_partition(p, method="quotient")
    assert report.class_count == 2
    assert report.t1_distinct
    assert sum(report.flag_orbit_sizes) == {2: 105, 3: 520}[p]
    assert sum(report.sizes) == cosets.gl4_order(p)
    # the flag order fixes which orbit comes first: the t1 orbit holds flag 0
    assert report.extras["flags"] == {2: 105, 3: 520}[p]
    assert report.flag_orbit_sizes == {2: [90, 15], 3: [480, 40]}[p]
    assert (report.identity_class, report.t1_class) == (1, 0)
    assert report.reps == [[list(row) for row in cosets.T1],
                           np.eye(4, dtype=int).tolist()]


def test_quotient_matches_full_at_p2():
    full = cosets.double_coset_partition(2, method="full")
    quot = cosets.double_coset_partition(2, method="quotient")
    assert sorted(full.sizes) == sorted(quot.sizes)
    assert (full.sizes[full.identity_class]
            == quot.sizes[quot.identity_class])


def test_flag_invariant_is_coset_invariant(gl4_2):
    # multiplying by random P4 elements on the left fixes the flag
    rng = np.random.default_rng(7)
    _, mats = gl4_2
    p4_ids = np.nonzero(oracles._in_p4(mats, 2))[0]
    g = mats[12345].astype(np.int64)
    gs = np.concatenate([g[None], mats[rng.choice(p4_ids, size=20)] @ g % 2])
    ids = cosets._coset_flags(gs, *cosets._point_table(2), 2)
    assert (ids == ids[0]).all()


def test_flag_of_coset_p3():
    points, point_of = cosets._point_table(3)
    g = np.array([[2, 1, 0, 0], [0, 1, 0, 0], [0, 2, 2, 1], [0, 0, 0, 2]])
    ids = cosets._coset_flags(np.stack([np.asarray(cosets.T1), g, 2 * g % 3]),
                              points, point_of, 3)
    # t1^-1 <e1> = <e2>, and e3* t1 = e3*
    assert points[ids[0]].tolist() == [[0, 1, 0, 0], [0, 0, 1, 0]]
    # scaling g scales both vectors; the flag does not change
    assert np.array_equal(ids[1], ids[2])
    # g e1 = 2 e1, and the third row (0, 2, 2, 1) is 2 (0, 1, 1, 2) mod 3
    assert points[ids[1]].tolist() == [[1, 0, 0, 0], [0, 1, 1, 2]]
    with pytest.raises(InvalidArgument):
        cosets._coset_flags(np.zeros((1, 4, 4), dtype=int), points, point_of,
                            3)


def test_report_json():
    for method in ("full", "quotient"):
        report = cosets.double_coset_partition(2, method=method)
        obj = json.loads(json.dumps(report.to_json()))
        assert obj["classes"] == 2
        assert obj["t1_distinct"] is True
        assert obj["p"] == 2
        assert len(obj["reps"]) == 2


# sha256 of to_json() without elapsed_s, as sorted-key JSON: pins the whole
# report of each route, representatives and class order included
REPORT_SHA256 = {
    (2, "full"):
        "bff8c1a454de9b17fdc511d6ebe4854de7a0ddce0360546025158ae1aa2524fb",
    (2, "quotient"):
        "241fbfdd0884038ed1c4469028478b217a65397a64217b9185648a4af80a5a2b",
    (3, "quotient"):
        "bc0c61d57a1ee386fbe9a1e2a9a8b5de9be5fef9f34ded9ee13d06341e7930c4",
}


@pytest.mark.parametrize("p, method", sorted(REPORT_SHA256))
def test_report_is_unchanged(p, method):
    obj = cosets.double_coset_partition(p, method=method).to_json()
    del obj["elapsed_s"]
    text = json.dumps(obj, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[p, method]


@pytest.mark.parametrize("p", [2, 3])
def test_line_action_inverts_generators(p):
    # the quotient moves lines by t(J) b J = mu t(b^-1)
    j = np.asarray(cosets.J_MAT)
    for b in cosets.gsp4_generators(p):
        mu = _mu(b, p)
        assert np.array_equal(b @ (j.T @ b @ j).T % p,
                              mu * np.eye(4, dtype=np.int64) % p)


@pytest.mark.parametrize("p", [2, 3])
def test_flag_line_is_sent_to_e1(p):
    rng = np.random.default_rng(11)
    points, point_of = cosets._point_table(p)
    checked = 0
    while checked < 40:
        g = rng.integers(0, p, size=(4, 4))
        if oracles.det_mod_batch(g[None], p)[0] == 0:
            with pytest.raises(InvalidArgument):
                cosets._coset_flags(g[None], points, point_of, p)
            continue
        line, covector = points[cosets._coset_flags(g[None], points,
                                                    point_of, p)[0]]
        image = g @ np.array(line) % p
        assert image[0] != 0 and not image[1:].any()
        # (e3* g)(g^-1 e1) = 0: the flag is incident
        assert np.dot(covector, line) % p == 0
        checked += 1


@pytest.mark.parametrize("p", [2, 3])
def test_coset_lines_are_the_cofactor_lines(p, gl4_2):
    # g^-1 <e1> is spanned by the cofactors C_0j of g, which rows 1-3 of g
    # annihilate; det(g with row 0 replaced by e_j) = C_0j.  All of
    # GL4(F_2), or the invertible ones of 2,000 random matrices over F_3.
    mats = np.random.default_rng(5).integers(0, p, size=(2000, 4, 4))
    mats = gl4_2[1] if p == 2 else mats[oracles.det_mod_batch(mats, p) != 0]
    minors = np.repeat(mats[:, None], 4, axis=1)
    minors[:, :, 0] = np.eye(4, dtype=np.int64)
    cofactors = oracles.det_mod_batch(minors.reshape(-1, 4, 4), p)
    points, point_of = cosets._point_table(p)
    ids = cosets._coset_flags(mats, points, point_of, p)
    assert np.array_equal(
        ids[:, 0], cosets._span_ids(point_of, cofactors.reshape(-1, 4), p))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("g", [
    # rows 1-3 of rank 2: their kernel <e1, e4> holds p points outside the
    # kernel of row 0
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]],
    # rows 1-3 of rank 3 and row 0 in their span: no point
    [[0, 1, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
], ids=["rows-1-3-rank-2", "row-0-in-span"])
def test_flag_of_coset_refuses_a_singular_matrix(p, g):
    with pytest.raises(InvalidArgument, match="not invertible"):
        cosets._coset_flags(np.asarray(g)[None], *cosets._point_table(p), p)


def test_full_route_permutations_are_the_products(gl4_2, monkeypatch):
    # the permutations the full route labels orbits by, against ids found
    # by content, not through the id tables
    seen = []
    labels = _kernels.orbit_labels
    monkeypatch.setattr(_kernels, "orbit_labels",
                        lambda perms: labels(seen.append(perms) or perms))
    cosets.double_coset_partition(2, method="full")
    (perms,) = seen
    _, mats = gl4_2
    index = {m.tobytes(): i for i, m in enumerate(mats)}
    prods = ([g @ mats % 2 for g in cosets.p4_generators(2)]
             + [mats @ g % 2 for g in cosets.gsp4_generators(2)])
    assert perms.shape == (len(prods), 20160)
    for perm, prod in zip(perms, prods):
        assert perm.tolist() == [index[m.tobytes()] for m in prod]


@pytest.mark.parametrize("side", ["p4_generators", "gsp4_generators"])
def test_full_route_refuses_a_singular_generator(side, monkeypatch):
    gens = getattr(cosets, side)(2)
    gens[-1, :, 3] = 0
    monkeypatch.setattr(cosets, side, lambda p: gens)
    with pytest.raises(RuntimeError, match="singular matrix"):
        cosets.double_coset_partition(2, method="full")


@pytest.mark.parametrize("method", ["full", "quotient"])
@pytest.mark.parametrize("p", [2.0, 3.0, True])
def test_non_int_p_is_invalid(p, method):
    # 2.0 in (2, 3) holds, so the type is checked before the value
    with pytest.raises(InvalidArgument, match="p must be an integer"):
        cosets.double_coset_partition(p, method=method)


@pytest.mark.parametrize("p", [2, 3])
def test_point_table_maps_each_vector_to_its_point(p):
    points, point_of = cosets._point_table(p)
    weights = p ** np.arange(4)
    assert len(points) == (p**4 - 1) // (p - 1)
    assert np.array_equal(points, cosets._canon_rows(points, p))
    assert (np.diff(points @ weights) > 0).all()
    assert point_of.shape == (p**4,) and point_of.dtype == np.int64
    assert point_of[0] == -1
    for v in itertools.product(range(p), repeat=4):
        if not any(v):
            continue
        (want,) = np.nonzero((points == cosets._canon_rows([v], p)).all(1))[0]
        for lam in range(1, p):
            key = int(np.array(v) * lam % p @ weights)
            assert point_of[key] == want, (v, lam)


@pytest.mark.parametrize("p", [2, 3])
def test_span_ids_refuse_a_singular_generator(p):
    points, point_of = cosets._point_table(p)
    gens = cosets.gsp4_generators(p)
    assert cosets._span_ids(point_of, points @ gens, p).shape == (
        len(gens), len(points))
    singular = gens.copy()
    singular[-1, :, 3] = 0
    with pytest.raises(RuntimeError, match="zero vector"):
        cosets._span_ids(point_of, points @ singular, p)


# sha256 of gsp4_generators(p).tobytes() and p4_generators(p).tobytes(): the
# generators of the list-of-arrays builders these arrays replaced, in order
GSP4_GENERATORS_SHA256 = {
    2: "fed4681f0152ea6669d0c3f1c6b58f793a3723156985884beefaa96e020229b4",
    3: "56db1831eb338d5c854a7ada6d1c039ea470dd6e860cf12cbaae7e8aa627449b",
}
P4_GENERATORS_SHA256 = {
    2: "9b7b8d6ae8dcf3daeef1a4f84e08f78f1b200c22ef49b857d1dc4ed2ee873eca",
    3: "a54a0d9d1fedf55c725c6c4e12dd3e5f82324d33f1a5853f1d3d2a0beca724a7",
}


@pytest.mark.parametrize("p", [2, 3])
def test_gsp4_generators_are_pinned(p):
    gens = cosets.gsp4_generators(p)
    assert gens.shape == ({2: 8, 3: 19}[p], 4, 4) and gens.dtype == np.int64
    assert ((gens >= 0) & (gens < p)).all()
    assert hashlib.sha256(gens.tobytes()).hexdigest() \
        == GSP4_GENERATORS_SHA256[p]


@pytest.mark.parametrize("p", [2, 3])
def test_p4_generators_are_pinned(p):
    gens = cosets.p4_generators(p)
    assert gens.shape == ({2: 7, 3: 18}[p], 4, 4) and gens.dtype == np.int64
    assert ((gens >= 0) & (gens < p)).all()
    assert hashlib.sha256(gens.tobytes()).hexdigest() \
        == P4_GENERATORS_SHA256[p]


@pytest.mark.parametrize("p, error", [
    (0, Unsupported), (-3, Unsupported), (2.0, InvalidArgument),
    (4, Unsupported), (6, Unsupported), (5, Unsupported),
], ids=["p0", "p-3", "p2.0", "p4", "p6", "p5"])
def test_partition_checks_p(p, error):
    # p = 4 and 6 would partition over a ring that is not a field
    with pytest.raises(error):
        cosets.double_coset_partition(p, method="quotient")
