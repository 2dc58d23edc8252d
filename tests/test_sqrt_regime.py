"""verify_local in the Q(sqrt(q)) regime: every drawn character value and
Satake parameter has a sqrt(q) part, over the sweep's q (4 and 9 among
them, where sqrt(q) stays formal), for every case and Legendre type."""

import random

from localzeta import (INERT, RAMIFIED, SPLIT, RAMIFIED_OTHER,
                       RAMIFIED_PS_UNRAM_ALPHA, STEINBERG_UNRAMIFIED,
                       BesselDatum, Gl2Local, LocalInstance, Poly, QScalar,
                       RatFn, SatakeParams, verify_local, y_factor)
from localzeta import zeta
from localzeta.gl2 import CONDUCTOR, GIVEN

from conftest import sqrt_unit

QS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
ORDER = 24
# (kind, beta_chi_unramified): Case 1, Case 2 with and without the flag,
# and Case 3
KINDS = ((RAMIFIED_OTHER, False), (RAMIFIED_PS_UNRAM_ALPHA, False),
         (RAMIFIED_PS_UNRAM_ALPHA, True), (STEINBERG_UNRAMIFIED, False))


def sqrt_instance(rng, q, kind, legendre, flag):
    """A valid instance whose gamma, Lambda and GL(2) values all have sqrt(q)
    parts: gamma4 is solved from the pairing, and omega_pi is the product
    or square of the drawn Lambda values where the extension is not inert."""
    lamL = lam_conj = None
    if legendre == INERT:
        g1, g2, g3 = (sqrt_unit(rng, q) for _ in range(3))
        omega_pi = g1 * g3
    else:
        lamL = sqrt_unit(rng, q)
        lam_conj = sqrt_unit(rng, q) if legendre == SPLIT else None
        omega_pi = lamL * (lam_conj if legendre == SPLIT else lamL)
        g1, g2 = sqrt_unit(rng, q), sqrt_unit(rng, q)
        g3 = omega_pi * g1.inverse()
    g4 = g1 * g3 * g2.inverse()
    satake = SatakeParams((g1, g2, g3, g4), q)
    datum = BesselDatum(legendre, omega_pi, lambda_varpiL=lamL,
                        lambda_varpi_conj=lam_conj, q=q)
    values = {name: sqrt_unit(rng, q) for name in GIVEN[kind]}
    if kind not in CONDUCTOR:
        values["conductor_exp"] = rng.randint(1, 4)
    rep = Gl2Local(kind, q, **values, beta_chi_unramified=flag)
    return LocalInstance(satake, datum, rep, order=ORDER)


def _plan():
    rng = random.Random(2009)
    return [sqrt_instance(rng, q, kind, legendre, flag)
            for q in QS for kind, flag in KINDS
            for legendre in (INERT, RAMIFIED, SPLIT)
            # the flag matters only over a ramified extension
            if not flag or legendre == RAMIFIED
            for _ in range(2)]


PLAN = _plan()


def _matches(report):
    """(LHS = H/Q, LHS = closed form), None where the case has no such
    comparison."""
    return tuple(None if c is None else c.match
                 for c in (report.lhs_vs_hq, report.lhs_vs_rhs))


# case -> the comparisons verify_local makes on it
_COMPARED = {"case1": (None, True), "case2": (True, True),
             "case3": (True, None)}


def test_the_plan_has_sqrt_parts_everywhere():
    assert len(PLAN) == len(QS) * 10 * 2
    for inst in PLAN:
        rep, bessel = inst.rep, inst.bessel
        values = [*inst.satake.gamma[:3],
                  *(getattr(rep, name) for name in GIVEN[rep.kind]),
                  *(getattr(bessel, name) for name in
                    ("lambda_varpiL", "lambda_varpi_conj")
                    if getattr(bessel, name) is not None)]
        if bessel.legendre == INERT:
            values.append(bessel.lambda_varpi)
        assert all(x.b != 0 for x in values)


def test_both_comparisons_pass_at_order_24():
    for inst in PLAN:
        report = verify_local(inst)
        assert report.passed
        assert _matches(report) == _COMPARED[report.case]


def _corrupted_y(inst):
    good = y_factor(inst)
    return RatFn(good.numer * Poly([1, 1], inst.q), good.denom)


def test_a_corrupted_y_fails_the_closed_form_comparison():
    for inst in PLAN:
        report = verify_local(inst, y_factor_fn=_corrupted_y)
        hq, rhs = _COMPARED[report.case]
        assert _matches(report) == (hq, None if rhs is None else False)
        assert report.passed == (rhs is None)


def test_a_corrupted_substitution_fails_the_hq_comparison(monkeypatch):
    real = zeta._y_scale
    monkeypatch.setattr(zeta, "_y_scale", lambda inst: real(inst)
                        * QScalar.q_half_power(2, inst.q))
    for inst in PLAN:
        report = verify_local(inst)
        hq, rhs = _COMPARED[report.case]
        assert _matches(report) == (None if hq is None else False, rhs)
        assert report.passed == (hq is None)
