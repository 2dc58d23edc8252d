import random
from fractions import Fraction

import pytest

from localzeta import (RAMIFIED_OTHER, RAMIFIED_PS_UNRAM_ALPHA,
                       STEINBERG_UNRAMIFIED, UNRAMIFIED_PS, Gl2Local,
                       InvalidArgument, QScalar, induced_invariant_dim,
                       newform_space_dim, newform_value)

from conftest import nonzero_fraction, rq


def test_case_i_values():
    q = 4
    rep = Gl2Local(RAMIFIED_OTHER, q, omega_tau_varpi=rq(3, q), conductor_exp=2)
    assert newform_value(rep, 0) == QScalar.one(q)
    for l in (-2, -1, 1, 2, 5):
        assert newform_value(rep, l).is_zero()


def test_case_ii_values():
    q = 4
    beta = rq(Fraction(2, 3), q)
    rep = Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, q, alpha_varpi=rq(5, q),
                   beta_varpi=beta, conductor_exp=1)
    assert newform_value(rep, 3) == (beta * QScalar.q_half_power(-1, q)) ** 3
    assert newform_value(rep, 0) == QScalar.one(q)
    assert newform_value(rep, -2).is_zero()


def test_case_iii_values():
    q = 9
    omega = rq(Fraction(-1, 2), q)
    rep = Gl2Local(STEINBERG_UNRAMIFIED, q, omega_varpi=omega)
    assert rep.conductor_exp == 1
    assert newform_value(rep, 2) == (omega * rq(Fraction(1, 9), q)) ** 2
    assert newform_value(rep, -1).is_zero()


def test_case_iv_values():
    q = 4
    alpha, beta = rq(2, q), rq(3, q)
    rep = Gl2Local(UNRAMIFIED_PS, q, alpha_varpi=alpha, beta_varpi=beta)
    assert rep.conductor_exp == 0
    assert newform_value(rep, 1) == QScalar.q_half_power(-1, q) * (alpha + beta)
    # l = 2: q^-1 (a^2 + ab + b^2)
    assert newform_value(rep, 2) == rq(Fraction(19, 4), q)
    assert newform_value(rep, -3).is_zero()


def test_newform_normalization_all_kinds(rng):
    q = 4
    reps = [
        Gl2Local(RAMIFIED_OTHER, q, omega_tau_varpi=rq(2, q), conductor_exp=3),
        Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, q, alpha_varpi=rq(1, q),
                 beta_varpi=rq(7, q), conductor_exp=1),
        Gl2Local(STEINBERG_UNRAMIFIED, q, omega_varpi=rq(-2, q)),
        Gl2Local(UNRAMIFIED_PS, q, alpha_varpi=rq(3, q), beta_varpi=rq(5, q)),
    ]
    for rep in reps:
        assert newform_value(rep, 0) == QScalar.one(q)


def test_case_iv_symmetry(rng):
    q = 5
    for _ in range(20):
        a = QScalar(nonzero_fraction(rng), 0, q)
        b = QScalar(nonzero_fraction(rng), 0, q)
        r1 = Gl2Local(UNRAMIFIED_PS, q, alpha_varpi=a, beta_varpi=b)
        r2 = Gl2Local(UNRAMIFIED_PS, q, alpha_varpi=b, beta_varpi=a)
        for l in range(6):
            assert newform_value(r1, l) == newform_value(r2, l)


def test_newform_space_dim_known_values():
    assert newform_space_dim(0, 0) == 1
    assert newform_space_dim(3, 2) == 0
    assert newform_space_dim(2, 5) == 4


def test_induced_invariant_dim_known_values():
    assert induced_invariant_dim(2, 4) == 6
    assert induced_invariant_dim(1, 0) == 0
    assert induced_invariant_dim(0, 0) == 1


def test_dimension_errors():
    with pytest.raises(InvalidArgument):
        newform_space_dim(-1, 2)
    with pytest.raises(InvalidArgument):
        induced_invariant_dim(0, -3)


def test_summation_identity():
    # mirrors the layer-by-layer count in the induced newform theorem
    for n in range(0, 7):
        for r in range(n, 13):
            total = sum(newform_space_dim(n, r - m) for m in range(r + 1))
            assert induced_invariant_dim(n, r) == total


def test_kind_validation():
    q = 4
    with pytest.raises(InvalidArgument):
        Gl2Local("Nonsense", q)
    with pytest.raises(InvalidArgument):
        Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, q, alpha_varpi=rq(1, q),
                 beta_varpi=rq(2, q))  # missing conductor
    with pytest.raises(InvalidArgument):
        Gl2Local(RAMIFIED_OTHER, q, omega_tau_varpi=rq(1, q), conductor_exp=0)
    with pytest.raises(InvalidArgument):
        Gl2Local(UNRAMIFIED_PS, q, alpha_varpi=rq(0, q), beta_varpi=rq(1, q))
    for n in (2.5, 1.0, True):  # conductor exponents are ints only
        with pytest.raises(InvalidArgument):
            Gl2Local(RAMIFIED_OTHER, q, omega_tau_varpi=rq(1, q), conductor_exp=n)
    with pytest.raises(InvalidArgument):
        # omega_tau given but inconsistent with alpha*beta
        Gl2Local(UNRAMIFIED_PS, q, alpha_varpi=rq(2, q), beta_varpi=rq(3, q),
                 omega_tau_varpi=rq(5, q))


# kind -> the values each kind takes, as Gl2Local keyword arguments
TAKES = {
    RAMIFIED_OTHER: dict(omega_tau_varpi=rq(3, 4), conductor_exp=2),
    RAMIFIED_PS_UNRAM_ALPHA: dict(alpha_varpi=rq(1, 4), beta_varpi=rq(3, 4),
                                  conductor_exp=1),
    STEINBERG_UNRAMIFIED: dict(omega_varpi=rq(-3, 4)),
    UNRAMIFIED_PS: dict(alpha_varpi=rq(2, 4), beta_varpi=rq(5, 4)),
}


@pytest.mark.parametrize("kind, extra", [
    (kind, extra) for kind, values in TAKES.items()
    for extra in ("alpha_varpi", "beta_varpi", "omega_varpi")
    if extra not in values])
def test_kind_refuses_a_value_it_does_not_take(kind, extra):
    Gl2Local(kind, 4, **TAKES[kind])
    with pytest.raises(InvalidArgument, match="takes no"):
        Gl2Local(kind, 4, **TAKES[kind], **{extra: rq(1, 4)})


@pytest.mark.parametrize("kind", [RAMIFIED_OTHER, STEINBERG_UNRAMIFIED,
                                  UNRAMIFIED_PS])
def test_beta_chi_unramified_only_in_case_ii(kind):
    Gl2Local(kind, 4, **TAKES[kind], beta_chi_unramified=False)
    with pytest.raises(InvalidArgument, match="takes no beta_chi_unramified"):
        Gl2Local(kind, 4, **TAKES[kind], beta_chi_unramified=True)


@pytest.mark.parametrize("kind", ["Nonsense", [RAMIFIED_OTHER],
                                  {RAMIFIED_OTHER: 1}])
def test_unknown_kind_is_invalid_argument(kind):
    # a JSON list or object as the kind is refused by type, not by hashing
    with pytest.raises(InvalidArgument, match="unknown GL2 kind"):
        Gl2Local(kind, 4)


def test_steinberg_omega_tau_is_square():
    q = 4
    rep = Gl2Local(STEINBERG_UNRAMIFIED, q, omega_varpi=rq(-3, q))
    assert rep.omega_tau_varpi == rq(9, q)


def test_json_roundtrip():
    q = 4
    rep = Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, q, alpha_varpi=rq(1, q),
                   beta_varpi=rq(3, q), conductor_exp=2,
                   beta_chi_unramified=True)
    obj = rep.to_json()
    assert obj["kind"] == RAMIFIED_PS_UNRAM_ALPHA
    assert obj["n"] == 2
    assert obj["beta_chi_unramified"] is True
    assert "omega" not in obj
    back = Gl2Local.from_json(obj, q)
    assert back.beta_varpi == rep.beta_varpi
    assert back.omega_tau_varpi == rep.omega_tau_varpi
    assert back.beta_chi_unramified
