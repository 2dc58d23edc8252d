import hashlib
import json
import random
from fractions import Fraction

import pytest

from localzeta import (INERT, RAMIFIED, SPLIT, RAMIFIED_OTHER,
                       RAMIFIED_PS_UNRAM_ALPHA, STEINBERG_UNRAMIFIED,
                       UNRAMIFIED_PS, BesselDatum, Gl2Local, InvalidArgument,
                       InvalidBesselDatum,
                       LocalInstance, Poly, QScalar, SatakeParams,
                       UnsupportedCase, bessel_coeffs, euler_chi,
                       euler_pairing, euler_triple, hq_substituted,
                       random_local_instance, unramified_closed,
                       verify_local, y_factor, zeta_closed_rhs,
                       zeta_series_lhs)
from localzeta import cli, zeta
from localzeta.zeta import _y_scale

from conftest import embed, rq

Q4 = 4


def worked_case2_instance(order=12):
    """q=4, gamma=(2,1,1,2), inert Lambda(varpi)=2, alpha=1, beta=3."""
    satake = SatakeParams(tuple(rq(v, Q4) for v in (2, 1, 1, 2)), Q4)
    datum = BesselDatum(INERT, rq(2, Q4), q=Q4)
    rep = Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, Q4, alpha_varpi=rq(1, Q4),
                   beta_varpi=rq(3, Q4), conductor_exp=1)
    return LocalInstance(satake, datum, rep, order=order)


def _double_pole(c, order):
    return [(k + 1) * c**k for k in range(order + 1)]


def _convolve(a, b):
    out = [Fraction(0)] * len(a)
    for i in range(len(a)):
        for j in range(i + 1):
            out[i] += a[j] * b[i - j]
    return out


def worked_case2_expected(order=12):
    """Fraction-only oracle for the worked instance.

    The specialized series is (1 - T^2/32) / ((1 - T/2)^2 (1 - T/4)^2):
    the pole parameters are (gamma_i alpha)^{-1} q^{-1/2} in {1/2, 1/4}
    each twice, and the numerator coefficient is
    Lambda(varpi) (omega_pi alpha)^{-2} q^{-2} = 2 * (1/4) * (1/16) = 1/32.
    """
    base = _convolve(_double_pole(Fraction(1, 2), order),
                     _double_pole(Fraction(1, 4), order))
    c = Fraction(1, 32)
    return [base[l] - (c * base[l - 2] if l >= 2 else 0) for l in range(order + 1)]


def test_worked_case2_lhs_oracle():
    inst = worked_case2_instance()
    lhs = zeta_series_lhs(inst)
    expected = worked_case2_expected()
    assert expected[1] == Fraction(3, 2)
    assert expected[2] == Fraction(45, 32)
    for l in range(13):
        assert embed(lhs.coeffs[l]) == expected[l]


def test_worked_case2_three_way_match():
    report = verify_local(worked_case2_instance())
    assert report.passed
    assert report.case == "case2"
    assert report.lhs_vs_hq.match and report.lhs_vs_rhs.match
    assert report.hq is not None and report.rhs is not None
    for l in range(13):
        assert report.lhs.coeffs[l] == report.hq.coeffs[l] == report.rhs.coeffs[l]


def test_worked_case2_lfactors():
    inst = worked_case2_instance()
    # degree-4 pairing factor specializes to (1 - T/4)^2 (1 - T/2)^2
    pair = euler_pairing(inst.satake, [inst.rep.alpha_varpi])
    assert pair.constant() == QScalar.one(Q4)
    assert pair.degree == 4
    # multiply the linear factors over plain Fractions
    poly = [Fraction(1)]
    for root in (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)):
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, a in enumerate(poly):
            nxt[i] += a
            nxt[i + 1] -= a * root
        poly = nxt
    assert [embed(c) for c in pair.coeffs] == poly

    # chi restriction: (1 - T^2/24)^{-1}
    chi = euler_chi(inst.satake, inst.rep)
    assert [embed(c) for c in chi.coeffs] == [1, 0, Fraction(-1, 24)]

    # inert triple factor: 1 - Lambda (omega_pi alpha)^-2 q^-2 T^2 = 1 - T^2/32
    unit = (inst.satake.omega_pi * inst.rep.alpha_varpi).inverse()
    triple = euler_triple(inst.bessel, [unit])
    assert [embed(c) for c in triple.coeffs] == [1, 0, Fraction(-1, 32)]

    # Y(s) for the inert row of the table is L(6s+1, chi|F^x)
    yf = y_factor(inst)
    assert yf.numer == Poly.one(Q4) and yf.denom == chi

    # the substitution scale is y = q^{-3s+1}(omega_pi alpha)^{-1} = 2T
    assert embed(_y_scale(inst)) == 2


def test_case1_is_one():
    rng = random.Random(11)
    for i in range(20):
        inst = random_local_instance(rng, RAMIFIED_OTHER, (-1, 0, 1)[i % 3])
        lhs = zeta_series_lhs(inst)
        assert lhs.coeffs[0] == QScalar.one(inst.q)
        assert all(c.is_zero() for c in lhs.coeffs[1:])
        report = verify_local(inst)
        assert report.passed
        assert report.rhs is not None and report.hq is None
        assert all(c.is_zero() for c in report.rhs.coeffs[1:])


@pytest.mark.parametrize("legendre,beta_chi", [
    (INERT, False), (RAMIFIED, False), (RAMIFIED, True), (SPLIT, False)])
def test_case2_three_way_random(legendre, beta_chi):
    rng = random.Random(100 * legendre + beta_chi + 5)
    for _ in range(10):
        inst = random_local_instance(rng, RAMIFIED_PS_UNRAM_ALPHA, legendre,
                                     beta_chi_unramified=beta_chi)
        report = verify_local(inst)
        assert report.passed, report.to_json()
        assert report.lhs_vs_hq.match and report.lhs_vs_rhs.match


def test_case3_two_way_random():
    rng = random.Random(77)
    for i in range(10):
        inst = random_local_instance(rng, STEINBERG_UNRAMIFIED, (-1, 0, 1)[i % 3])
        report = verify_local(inst)
        assert report.passed
        assert report.hq is not None and report.rhs is None


def test_case3_weights_collapse():
    # q=4, gamma=(2,1,1,2), Omega=1: T^l coefficient equals B(h(l,0))
    satake = SatakeParams(tuple(rq(v, Q4) for v in (2, 1, 1, 2)), Q4)
    datum = BesselDatum(INERT, rq(2, Q4), q=Q4)
    rep = Gl2Local(STEINBERG_UNRAMIFIED, Q4, omega_varpi=rq(1, Q4))
    inst = LocalInstance(satake, datum, rep, order=10)
    lhs = zeta_series_lhs(inst)
    B = bessel_coeffs(satake, datum, 10)
    assert embed(_y_scale(inst)) == 1
    for l in range(11):
        assert embed(lhs.coeffs[l]) == embed(B.coeffs[l])


def test_hq_constant_term():
    rng = random.Random(4)
    inst = random_local_instance(rng, STEINBERG_UNRAMIFIED, SPLIT)
    assert hq_substituted(inst).coeffs[0] == QScalar.one(inst.q)


def test_rescaling_covariance():
    # scale gammas by a unit u and Lambda by u^2 (inert case): still passes
    base = worked_case2_instance()
    u = rq(3, Q4)
    satake = SatakeParams(tuple(g * u for g in base.satake.gamma), Q4)
    datum = BesselDatum(INERT, base.bessel.lambda_varpi * u * u, q=Q4)
    inst = LocalInstance(satake, datum, base.rep, order=12)
    assert verify_local(inst).passed

    # split analogue: scale both Lambda values by u
    rng = random.Random(42)
    inst2 = random_local_instance(rng, RAMIFIED_PS_UNRAM_ALPHA, SPLIT)
    u2 = rq(Fraction(-2, 3), inst2.q)
    satake2 = SatakeParams(tuple(g * u2 for g in inst2.satake.gamma), inst2.q)
    datum2 = BesselDatum(SPLIT, inst2.bessel.lambda_varpi * u2 * u2,
                         lambda_varpiL=inst2.bessel.lambda_varpiL * u2,
                         lambda_varpi_conj=inst2.bessel.lambda_varpi_conj * u2,
                         q=inst2.q)
    assert verify_local(LocalInstance(satake2, datum2, inst2.rep)).passed


def test_unsupported_cases():
    rng = random.Random(1)
    unram = random_local_instance(rng, UNRAMIFIED_PS, INERT)
    with pytest.raises(UnsupportedCase):
        zeta_series_lhs(unram)
    with pytest.raises(UnsupportedCase):
        verify_local(unram)
    with pytest.raises(UnsupportedCase):
        zeta_closed_rhs(unram)
    steinberg = random_local_instance(rng, STEINBERG_UNRAMIFIED, INERT)
    with pytest.raises(UnsupportedCase):
        zeta_closed_rhs(steinberg)
    with pytest.raises(UnsupportedCase):
        unramified_closed(steinberg.satake, steinberg.rep, steinberg.bessel)
    case1 = random_local_instance(rng, RAMIFIED_OTHER, INERT)
    with pytest.raises(UnsupportedCase):
        hq_substituted(case1)
    with pytest.raises(UnsupportedCase):
        unramified_closed(case1.satake, case1.rep, case1.bessel)


def test_instance_validation():
    satake = SatakeParams(tuple(rq(v, Q4) for v in (2, 1, 1, 2)), Q4)
    rep = Gl2Local(RAMIFIED_OTHER, Q4, omega_tau_varpi=rq(1, Q4), conductor_exp=1)
    bad_datum = BesselDatum(INERT, rq(3, Q4), q=Q4)  # Lambda(varpi) != omega_pi
    with pytest.raises(InvalidArgument):
        LocalInstance(satake, bad_datum, rep)
    other_q = Gl2Local(RAMIFIED_OTHER, 9, omega_tau_varpi=rq(1, 9), conductor_exp=1)
    with pytest.raises(InvalidArgument):
        LocalInstance(satake, BesselDatum(INERT, rq(2, Q4), q=Q4), other_q)


@pytest.mark.parametrize("decode, obj, key, error", [
    (QScalar.from_json, {"rat": "1", "sqrt": "2"}, "sqrtt", InvalidArgument),
    (SatakeParams.from_json, {"gamma": [1, 1, 1, 1]}, "gama",
     InvalidArgument),
    (BesselDatum.from_json, {"legendre": -1, "lambda_varpi": 1},
     "lambda_varpi_L", InvalidBesselDatum),
    (Gl2Local.from_json, {"kind": STEINBERG_UNRAMIFIED, "omega": 1}, "N",
     InvalidArgument),
], ids=["scalar", "satake", "bessel", "rep"])
def test_from_json_refuses_unknown_keys(decode, obj, key, error):
    decode(obj, 5)
    with pytest.raises(error, match=f"has unknown key '{key}'"):
        decode(dict(obj, **{key: obj[next(iter(obj))]}), 5)


def test_unramified_closed_shape_and_split_specialization():
    q = 9
    alpha, beta = rq(2, q), rq(Fraction(1, 3), q)
    lamL, lamC = rq(3, q), rq(Fraction(-1, 2), q)
    omega_pi = lamL * lamC
    g1, g2 = rq(5, q), rq(7, q)
    satake = SatakeParams((g1, g2, omega_pi * g1.inverse(),
                          omega_pi * g2.inverse()), q)
    datum = BesselDatum(SPLIT, omega_pi, lambda_varpiL=lamL,
                        lambda_varpi_conj=lamC, q=q)
    rep = Gl2Local(UNRAMIFIED_PS, q, alpha_varpi=alpha, beta_varpi=beta)
    closed = unramified_closed(satake, rep, datum)
    assert closed.denom.degree == 8
    assert closed.denom.constant().is_one()
    assert closed.numer.constant().is_one()

    # the two split triple factors carrying (omega_pi alpha)^{-1} coincide
    # with the printed Case-2 triple factor at the same parameter values
    rep2 = Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, q, alpha_varpi=alpha,
                    beta_varpi=beta, conductor_exp=1)
    case2 = euler_triple(datum, [(omega_pi * alpha).inverse()])
    qm2 = QScalar.q_half_power(-2, q)
    opb_inv = (omega_pi * beta).inverse()
    other = (Poly([QScalar.one(q), -(lamL * opb_inv * qm2)], q)
             * Poly([QScalar.one(q), -(lamC * opb_inv * qm2)], q))
    chi_poly = euler_chi(satake, rep)
    assert closed.numer == chi_poly * case2 * other
    case2_rhs = zeta_closed_rhs(LocalInstance(satake, datum, rep2))
    assert case2_rhs.numer == chi_poly * case2


def test_unramified_inert_triple_is_even():
    # inert AI(Lambda) parameters pair up: only T^2 terms, no square roots
    q = 5
    rng = random.Random(2)
    inst = random_local_instance(rng, UNRAMIFIED_PS, INERT, q=q)
    closed = unramified_closed(inst.satake, inst.rep, inst.bessel)
    chi_poly = euler_chi(inst.satake, inst.rep)
    # numer = chi_poly * triple with triple even of degree 4
    assert closed.numer.degree == chi_poly.degree + 4
    for c in closed.numer.coeffs:
        assert c.sqrt == 0


def test_verification_report_json():
    report = verify_local(worked_case2_instance(order=4))
    obj = report.to_json()
    assert obj["passed"] is True
    assert obj["case"] == "case2"
    assert len(obj["lhs"]) == 5
    assert obj["lhs_vs_hq"] == {"match": True}
    rebuilt = LocalInstance.from_json(obj["instance"])
    assert verify_local(rebuilt).passed


def test_order_truncation():
    inst = worked_case2_instance(order=3)
    assert zeta_series_lhs(inst).order == 3
    assert hq_substituted(inst).order == 3


# sha256 of the 70 reports of the seed-0, order-24 sweep plan, each as
# sorted-key JSON, joined by newlines: it pins every series coefficient the
# non-archimedean routes produce, not only the pass/fail lines of `sweep`
SWEEP_PLAN_0_24_SHA256 = (
    "43466fd1439fdd85f26faee023f08ef7ac9a0f4fe6892098eb8dbe8f18a905c9")


def test_sweep_plan_reports_are_unchanged():
    plan = list(cli._sweep_plan(0, 24, 1))
    assert len(plan) == 70
    text = "\n".join(json.dumps(verify_local(inst).to_json(), sort_keys=True)
                     for inst in plan)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_PLAN_0_24_SHA256


# the same pin at order 48, the order `sweep` and its benchmark run at
SWEEP_PLAN_0_48_SHA256 = (
    "df1f36d4d810cfdf083dccb559fab93495f38dd4005d97326ac9cbbdebe53dd0")


def test_sweep_plan_reports_are_unchanged_order_48():
    plan = list(cli._sweep_plan(0, 48, 1))
    assert len(plan) == 70
    text = "\n".join(json.dumps(verify_local(inst).to_json(), sort_keys=True)
                     for inst in plan)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_PLAN_0_48_SHA256


# the same pin over the 280 reports of the order-12, repeat-4 plan that
# perfbench's sweep-o12 workload runs: a draw-order change that shows only
# at repeat > 1 passes both pins above
SWEEP_PLAN_0_12_REPEAT_4_SHA256 = (
    "37db42213ef34763a89ae9bc8859f9ff171d32979de2d53f1ff101039297ec0d")


def test_sweep_plan_reports_are_unchanged_repeat_4():
    plan = list(cli._sweep_plan(0, 12, 4))
    assert len(plan) == 280
    text = "\n".join(json.dumps(verify_local(inst).to_json(), sort_keys=True)
                     for inst in plan)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SWEEP_PLAN_0_12_REPEAT_4_SHA256


def test_sweep_plan_draws_each_instance_when_asked(monkeypatch):
    draws = 0
    real = zeta.random_local_instance

    def counted(*args, **kwargs):
        nonlocal draws
        draws += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(zeta, "random_local_instance", counted)
    first = next(iter(cli._sweep_plan(0, 12, 100)))
    assert draws == 1
    assert first == next(iter(cli._sweep_plan(0, 12, 1)))


def _reference_draw(rng, kind, legendre, beta_chi_unramified):
    """random_local_instance as it was first written: each value a Fraction
    num/den, with num drawn from +-1..9 and den from 1..9, and the derived
    parameters computed in Fractions."""
    q = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13))

    def draw():
        num = rng.choice([n for n in range(-9, 10) if n != 0])
        return Fraction(num, rng.randint(1, 9))

    def scalar(x):
        return None if x is None else QScalar(x, 0, q)

    lamL = lam_conj = None
    if legendre == INERT:
        g1, g2, g3 = draw(), draw(), draw()
        omega_pi = g1 * g3
    elif legendre == RAMIFIED:
        lamL = draw()
        omega_pi = lamL * lamL
        g1, g2 = draw(), draw()
        g3 = omega_pi / g1
    else:
        lamL, lam_conj = draw(), draw()
        omega_pi = lamL * lam_conj
        g1, g2 = draw(), draw()
        g3 = omega_pi / g1
    g4 = g1 * g3 / g2
    satake = SatakeParams(tuple(map(scalar, (g1, g2, g3, g4))), q)
    datum = BesselDatum(legendre, scalar(omega_pi), lambda_varpiL=scalar(lamL),
                        lambda_varpi_conj=scalar(lam_conj), q=q)
    if kind == RAMIFIED_PS_UNRAM_ALPHA:
        rep = Gl2Local(kind, q, alpha_varpi=scalar(draw()),
                       beta_varpi=scalar(draw()),
                       conductor_exp=rng.randint(1, 4),
                       beta_chi_unramified=beta_chi_unramified)
    elif kind == STEINBERG_UNRAMIFIED:
        rep = Gl2Local(kind, q, omega_varpi=scalar(draw()))
    elif kind == RAMIFIED_OTHER:
        rep = Gl2Local(kind, q, omega_tau_varpi=scalar(draw()),
                       conductor_exp=rng.randint(1, 4))
    else:
        rep = Gl2Local(kind, q, alpha_varpi=scalar(draw()),
                       beta_varpi=scalar(draw()))
    return LocalInstance(satake, datum, rep)


def test_random_local_instance_matches_the_fraction_draw(monkeypatch):
    # the (kind, legendre, beta_chi_unramified) triples the sweep draws,
    # read off its plan, and the unramified kind besides
    mix = []
    real = zeta.random_local_instance

    def recorded(rng, kind, legendre, beta_chi_unramified=False, **kwargs):
        mix.append((kind, legendre, beta_chi_unramified))
        return real(rng, kind, legendre, beta_chi_unramified, **kwargs)

    monkeypatch.setattr(zeta, "random_local_instance", recorded)
    list(cli._sweep_plan(0, 12, 1))
    kinds = sorted(set(mix)) + [(UNRAMIFIED_PS, legendre, False)
                                for legendre in (INERT, RAMIFIED, SPLIT)]
    assert len(kinds) == 13
    for seed in range(20):
        for kind, legendre, flag in kinds:
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = real(got_rng, kind, legendre, beta_chi_unramified=flag)
            want = _reference_draw(want_rng, kind, legendre, flag)
            assert got.to_json() == want.to_json()
            assert got == want
            # the same calls, in the same order, leave the same state
            assert got_rng.getstate() == want_rng.getstate()
