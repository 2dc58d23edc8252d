import random
from fractions import Fraction
from math import comb

import pytest

from localzeta import (BesselDatum, InvalidArgument, InvalidBesselDatum, Poly,
                       QScalar, SatakeParams, bessel_coeffs, sugano_H,
                       sugano_Q)

from conftest import nonzero_fraction, rq, sqrt_unit


def _satake(vals, q):
    return SatakeParams(tuple(rq(v, q) for v in vals), q)


def test_H_inert_known_value():
    q = 4
    d = BesselDatum(-1, rq(1, q), q=q)
    assert sugano_H(d) == Poly([1, 0, Fraction(-1, 256)], q)


def test_H_ramified_known_value():
    q = 4
    d = BesselDatum(0, rq(1, q), lambda_varpiL=rq(-1, q), q=q)
    assert sugano_H(d) == Poly([1, Fraction(1, 16)], q)


def test_H_split_derived():
    # Lambda(varpi_L) = Lambda(varpi varpi_L^-1) = 1: expand (1 - y/16)^2
    q = 4
    d = BesselDatum(1, rq(1, q), lambda_varpiL=rq(1, q),
                    lambda_varpi_conj=rq(1, q), q=q)
    lin = Poly([1, Fraction(-1, 16)], q)
    assert sugano_H(d) == lin * lin


def _hand_expanded_H(d):
    """H(y) written out coefficient by coefficient, per extension type: the
    reference for the Euler product sugano_H builds."""
    q = d.q
    if d.legendre == -1:
        # 1 - q^-4 Lambda(varpi) y^2
        return Poly([QScalar.one(q), QScalar.zero(q),
                     -(QScalar.q_half_power(-8, q) * d.lambda_varpi)], q)
    if d.legendre == 0:
        # 1 - q^-2 Lambda(varpi_L) y
        return Poly([QScalar.one(q),
                     -(QScalar.q_half_power(-4, q) * d.lambda_varpiL)], q)
    # split: 1 - q^-2 (Lambda(varpi_L) + Lambda(varpi varpi_L^-1)) y
    #          + q^-4 Lambda(varpi) y^2
    return Poly([
        QScalar.one(q),
        -(QScalar.q_half_power(-4, q) * (d.lambda_varpiL + d.lambda_varpi_conj)),
        QScalar.q_half_power(-8, q) * d.lambda_varpi,
    ], q)


@pytest.mark.parametrize("q", [2, 4, 9, 13])
def test_H_euler_product_matches_hand_expansion(q):
    rng = random.Random(40 + q)
    for _ in range(10):
        lamL, lamC = sqrt_unit(rng, q), sqrt_unit(rng, q)
        for d in (BesselDatum(-1, lamL, q=q),
                  BesselDatum(0, lamL * lamL, lambda_varpiL=lamL, q=q),
                  BesselDatum(1, lamL * lamC, lambda_varpiL=lamL,
                              lambda_varpi_conj=lamC, q=q)):
            assert sugano_H(d) == _hand_expanded_H(d)
            assert sugano_H(d).degree == (2, 1, 2)[d.legendre + 1]


def test_Q_product_derived():
    q = 4
    # gamma = (1,1,1,1): (1 - q^(-3/2) y)^4 with q^(-3/2) formal
    p = _satake((1, 1, 1, 1), q)
    lin = Poly([QScalar.one(q), -QScalar.q_half_power(-3, q)], q)
    assert sugano_Q(p) == lin * lin * lin * lin
    assert sugano_Q(p).degree == 4
    assert sugano_Q(p).coeffs[0].is_one()


def test_Q_mixed_product_derived():
    q = 4
    p = _satake((2, 1, 1, 2), q)
    qm32 = QScalar.q_half_power(-3, q)
    lin2 = Poly([QScalar.one(q), -(rq(2, q) * qm32)], q)
    lin1 = Poly([QScalar.one(q), -qm32], q)
    assert sugano_Q(p) == lin2 * lin1 * lin1 * lin2


def test_bessel_constant_term():
    q = 9
    p = _satake((3, 1, 1, 3), q)
    d = BesselDatum(-1, p.omega_pi, q=q)
    assert bessel_coeffs(p, d, 6).coeffs[0] == QScalar.one(q)


def test_bessel_low_coefficients_derived():
    # inert, Lambda(varpi) = 1, gamma = (1,1,1,1):
    # H/Q = (1 - q^-4 y^2) * sum_l C(l+3,3) q^(-3l/2) y^l, so
    # B(h(1,0)) = 4 q^(-3/2) and B(h(2,0)) = 10 q^(-3) - q^(-4)
    for q in (4, 5, 9):
        p = _satake((1, 1, 1, 1), q)
        d = BesselDatum(-1, rq(1, q), q=q)
        series = bessel_coeffs(p, d, 8)
        assert series.coeffs[1] == 4 * QScalar.q_half_power(-3, q)
        assert series.coeffs[2] == (10 * QScalar.q_half_power(-6, q)
                                    - QScalar.q_half_power(-8, q))
        # full oracle to order 8
        for l in range(9):
            expected = comb(l + 3, 3) * QScalar.q_half_power(-3 * l, q)
            if l >= 2:
                expected = expected - comb(l + 1, 3) \
                    * QScalar.q_half_power(-3 * (l - 2) - 8, q)
            assert series.coeffs[l] == expected


def _random_datum(rng, legendre, q):
    if legendre == -1:
        lam = QScalar(nonzero_fraction(rng), 0, q)
        return BesselDatum(-1, lam, q=q), lam
    if legendre == 0:
        lamL = QScalar(nonzero_fraction(rng), 0, q)
        return BesselDatum(0, lamL * lamL, lambda_varpiL=lamL, q=q), lamL * lamL
    lamL = QScalar(nonzero_fraction(rng), 0, q)
    lamC = QScalar(nonzero_fraction(rng), 0, q)
    return BesselDatum(1, lamL * lamC, lambda_varpiL=lamL,
                       lambda_varpi_conj=lamC, q=q), lamL * lamC


@pytest.mark.parametrize("legendre", [-1, 0, 1])
def test_q_recurrence_property(legendre):
    # beyond deg H the coefficients of H/Q satisfy the Q-recurrence
    rng = random.Random(legendre + 10)
    q = 4
    for _ in range(10):
        g1, g2, g3 = (QScalar(nonzero_fraction(rng), 0, q) for _ in range(3))
        p = SatakeParams((g1, g2, g3, g1 * g3 * g2.inverse()), q)
        d, _ = _random_datum(rng, legendre, q)
        order = 10
        B = bessel_coeffs(p, d, order)
        c = sugano_Q(p).coeffs
        H = sugano_H(d)
        for l in range(H.degree + 1, order + 1):
            acc = QScalar.zero(q)
            for k in range(5):
                if l - k >= 0:
                    acc = acc + c[k] * B.coeffs[l - k]
            assert acc.is_zero()


def test_permutation_invariance():
    # swapping (gamma2, gamma4) preserves the pairing and the coefficients
    q = 5
    rng = random.Random(3)
    for _ in range(10):
        g1, g2, g3 = (QScalar(nonzero_fraction(rng), 0, q) for _ in range(3))
        g4 = g1 * g3 * g2.inverse()
        d = BesselDatum(-1, g1 * g3, q=q)
        a = bessel_coeffs(SatakeParams((g1, g2, g3, g4), q), d, 8)
        b = bessel_coeffs(SatakeParams((g1, g4, g3, g2), q), d, 8)
        assert a == b


def test_satake_validation():
    q = 4
    with pytest.raises(InvalidArgument):
        _satake((1, 1, 1, 2), q)  # pairing violated
    with pytest.raises(InvalidArgument):
        SatakeParams((rq(1, q), rq(1, q), rq(1, q)), q)
    with pytest.raises(InvalidArgument):
        SatakeParams((QScalar(2, 1, q), rq(1, q), rq(1, q), rq(2, q)), q)


def test_datum_validation():
    q = 4
    with pytest.raises(InvalidBesselDatum):
        BesselDatum(2, rq(1, q), q=q)
    with pytest.raises(InvalidBesselDatum):
        BesselDatum(0, rq(2, q), lambda_varpiL=rq(1, q), q=q)  # 1^2 != 2
    with pytest.raises(InvalidBesselDatum):
        BesselDatum(0, rq(4, q), q=q)  # missing Lambda(varpi_L)
    with pytest.raises(InvalidBesselDatum):
        BesselDatum(1, rq(2, q), lambda_varpiL=rq(1, q),
                    lambda_varpi_conj=rq(3, q), q=q)  # product law violated
    # the inert case takes no value besides Lambda(varpi)
    BesselDatum(-1, rq(1, q), q=q)


def test_datum_norm_relation_messages():
    # Lambda(varpi) is the norm of the Lambda values at the primes above
    # varpi; each case names its own form of the relation
    q = 4
    with pytest.raises(InvalidBesselDatum) as exc:
        BesselDatum(0, rq(2, q), lambda_varpiL=rq(1, q), q=q)
    assert str(exc.value) == \
        "ramified case requires Lambda(varpi) = Lambda(varpi_L)^2"
    with pytest.raises(InvalidBesselDatum) as exc:
        BesselDatum(1, rq(2, q), lambda_varpiL=rq(1, q),
                    lambda_varpi_conj=rq(3, q), q=q)
    assert str(exc.value) == ("split case requires Lambda(varpi) = "
                              "Lambda(varpi_L) * Lambda(varpi varpi_L^-1)")


@pytest.mark.parametrize("legendre, extra", [
    (-1, dict(lambda_varpiL=rq(1, 4))),
    (-1, dict(lambda_varpi_conj=rq(1, 4))),
    (-1, dict(lambda_varpiL=2)),
    (0, dict(lambda_varpiL=rq(1, 4), lambda_varpi_conj=rq(1, 4))),
    (0, dict(lambda_varpiL=rq(1, 4), lambda_varpi_conj=rq(0, 4))),
])
def test_datum_refuses_a_value_its_case_does_not_take(legendre, extra):
    # the message names the case and the first value it does not take,
    # e.g. "inert case takes no lambda_varpiL"
    case, takes = {-1: ("inert", ()),
                   0: ("ramified", ("lambda_varpiL",))}[legendre]
    name = next(k for k in ("lambda_varpiL", "lambda_varpi_conj")
                if k in extra and k not in takes)
    with pytest.raises(InvalidBesselDatum,
                       match=f"^{case} case takes no {name}$"):
        BesselDatum(legendre, rq(1, 4), q=4, **extra)


@pytest.mark.parametrize("legendre, values", [
    (-1, [QScalar(0, 0, 4)]),                 # Lambda(varpi) = 0
    (-1, [QScalar(2, -1, 4)]),                # 2 - sqrt(4): nonzero, norm 0
    (-1, [2]),                                # not a QScalar
    (0, [QScalar(4, 0, 4), 2]),               # 2 * 2 == Lambda(varpi)
    (0, [QScalar(0, 0, 4), QScalar(0, 0, 4)]),
    (1, [QScalar(0, 0, 4), QScalar(0, 0, 4), QScalar(3, 0, 4)]),
    (1, [QScalar(6, 0, 4), QScalar(2, 0, 4), QScalar(3, 0, 5)]),
])
def test_datum_values_are_units(legendre, values):
    # a character's values are invertible: each value the case uses must
    # be a unit of the ring at q
    lam, *rest = values
    kwargs = dict(zip(("lambda_varpiL", "lambda_varpi_conj"), rest))
    with pytest.raises(InvalidBesselDatum):
        BesselDatum(legendre, lam, q=4, **kwargs)
    with pytest.raises(InvalidBesselDatum):
        BesselDatum(legendre, lam, **kwargs)


def test_satake_json_roundtrip():
    q = 7
    p = _satake((2, 1, 1, 2), q)
    assert SatakeParams.from_json(p.to_json(), q).gamma == p.gamma
    d = BesselDatum(1, rq(6, q), lambda_varpiL=rq(2, q),
                    lambda_varpi_conj=rq(3, q), q=q)
    back = BesselDatum.from_json(d.to_json(), q)
    assert back.lambda_varpiL == d.lambda_varpiL
    assert back.lambda_varpi == d.lambda_varpi
