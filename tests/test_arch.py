import cmath
import math
import random
import re

import numpy as np
import pytest

from localzeta.arch import (ArchSpec, arch_zeta_closed,
                            arch_zeta_closed_logderiv,
                            arch_zeta_closed_simplified, arch_zeta_quadrature,
                            mellin_whittaker_check, whittaker_W,
                            whittaker_w_array)
from localzeta.cgamma import complex_gamma, digamma, gamma_selftest
from localzeta.errors import (DivergentParameters, InvalidArgument, PoleError,
                              QuadratureError, UnsupportedParameters)
from localzeta.quadrature import _nodes, quad_zero_to_inf


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def test_gamma_known_values():
    assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(complex_gamma(17.0) - 20922789888000) / 20922789888000 < 1e-12
    assert abs(complex_gamma(9.0) - 40320) / 40320 < 1e-13


def test_gamma_recurrence_random():
    rng = random.Random(1)
    for _ in range(100):
        z = complex(rng.uniform(0.5, 20), rng.uniform(-20, 20))
        assert abs(complex_gamma(z + 1) / complex_gamma(z) - z) / abs(z) < 1e-10


def test_gamma_against_mpmath_strip():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(2)
    for _ in range(50):
        z = complex(rng.uniform(0.5, 20), rng.uniform(-20, 20))
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        assert abs(complex_gamma(z) - ref) / abs(ref) < 1e-10


def test_gamma_reflection_region():
    mp = pytest.importorskip("mpmath")
    for z in (-1.5 + 0.3j, -4.25 - 2j, 0.25 + 5j, -0.5 + 0j):
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        assert abs(complex_gamma(z) - ref) / abs(ref) < 1e-10


def test_gamma_poles():
    for z in (0.0, -1.0, -7.0, -3 + 1e-14j):
        with pytest.raises(PoleError):
            complex_gamma(z)


@pytest.mark.parametrize("fn", [complex_gamma, digamma])
@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan,
                               complex(1.0, math.inf)])
def test_gamma_non_finite_argument(fn, z):
    with pytest.raises(InvalidArgument, match="finite"):
        fn(z)


@pytest.mark.parametrize("z", [172.0, 1e5 + 0j, 0.2 + 250j, -2.5 - 1e3j])
def test_gamma_overflow_is_typed(z):
    with pytest.raises(InvalidArgument, match="double range"):
        complex_gamma(z)


@pytest.mark.parametrize("x", [150.0, 160.0, 170.0])
def test_gamma_near_double_limit(x):
    # Gamma(170) is 4.3e304: the Lanczos power and exponential must not
    # leave the double range on the way there
    ref = math.exp(math.lgamma(x))
    assert abs(complex_gamma(x) - ref) / ref <= 1e-12


def test_gamma_selftest_report():
    report = gamma_selftest()
    assert report["recurrence_max_rel_err"] <= 1e-10
    assert report["gamma_half_rel_err"] <= 1e-10
    assert report["factorial_max_rel_err"] <= 1e-10


def test_digamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for z in (0.7, 3.2 + 1j, 11.5 - 4j, 1 + 20j):
        ref = complex(mp.digamma(mp.mpc(complex(z).real, complex(z).imag)))
        assert abs(digamma(z) - ref) / abs(ref) < 1e-11


# ---------------------------------------------------------------------------
# Whittaker
# ---------------------------------------------------------------------------

def test_whittaker_closed_form():
    # W_{5, 4.5}(1) = e^{-1/2} (l1 = 10)
    assert abs(whittaker_W(5.0, 4.5, 1.0) - math.exp(-0.5)) < 1e-14
    xs = np.array([0.5, 1.0, 2.0, 10.0])
    vals = whittaker_w_array(5.0, 4.5, xs)
    assert np.allclose(vals, np.exp(-xs / 2) * xs**5, rtol=1e-14)


def test_whittaker_bessel_k_identity():
    # W_{0,0}(x) = sqrt(x/pi) K_0(x/2) with K_0 from the cosh integral
    def k0(z):
        def f(t):
            arg = z * np.cosh(np.minimum(t, 700.0))
            return np.where(arg > 700.0, 0.0, np.exp(-np.minimum(arg, 700.0)))
        return quad_zero_to_inf(f).real

    for x in (0.5, 1.0, 3.0):
        expected = math.sqrt(x / math.pi) * k0(x / 2)
        got = whittaker_W(0.0, 0.0, x)
        assert abs(got - expected) / abs(expected) < 1e-10


def test_quadrature_needs_a_compared_level():
    with pytest.raises(InvalidArgument):
        quad_zero_to_inf(lambda t: np.exp(-t), max_level=2)


def test_quadrature_error_reports_last_delta():
    with pytest.raises(QuadratureError) as info:
        quad_zero_to_inf(lambda t: np.cos(50 * t) * np.exp(-t), max_level=4)
    delta = float(re.search(r"last delta (\S+),", str(info.value)).group(1))
    assert delta > 0
    assert "levels 3 and 4" in str(info.value)


def _full_grid(level):
    # the whole trapezoid grid at step 2^-level, built afresh
    h = 2.0**-level
    n = math.ceil(6.5 / h)
    u = np.arange(-n, n + 1) * h
    t = np.exp(np.pi / 2 * np.sinh(u))
    w = h * np.pi / 2 * np.cosh(u) * t
    good = np.isfinite(t) & np.isfinite(w) & (t > 0)
    return t[good], w[good]


def test_quadrature_nested_levels_match_full_grid():
    def f(t):
        return np.stack([np.exp(-t) * t**0.3, np.exp(-t / 2) * np.cos(t)])

    def full_sum(level):
        t, w = _full_grid(level)
        return np.sum(w * f(t), axis=-1)

    t, w = _nodes(2)
    total = np.sum(w * f(t), axis=-1)
    for level in range(2, 11):
        if level > 2:
            t, w = _nodes(level)
            total = total / 2 + np.sum(w * f(t), axis=-1)
        full = full_sum(level)
        assert np.all(np.abs(total - full) <= 1e-14 * np.abs(full)), level

    sizes = []
    result = quad_zero_to_inf(lambda t: sizes.append(t.size) or f(t),
                              target=1e-12)
    last = len(sizes) + 1  # levels 2 .. last ran
    full = full_sum(last)
    assert np.all(np.abs(result - full) <= 1e-14 * np.abs(full))
    # every node of the last level's grid is evaluated exactly once
    assert sum(sizes) == _full_grid(last)[0].size
    assert np.allclose(np.sort(np.concatenate(
        [_nodes(level)[0] for level in range(2, last + 1)])),
        _full_grid(last)[0], rtol=1e-15, atol=0)


def test_quadrature_nodes_cached_read_only():
    assert _nodes(5) is _nodes(5)
    for level in (2, 3, 7):
        for array in _nodes(level):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


def test_whittaker_asymptotics():
    # W ~ e^{-x/2} x^kappa (1 + O(1/x))
    kappa, mu = 0.3, 0.7
    r50 = whittaker_W(kappa, mu, 50.0) / (math.exp(-25.0) * 50.0**kappa)
    r100 = whittaker_W(kappa, mu, 100.0) / (math.exp(-50.0) * 100.0**kappa)
    assert abs(r50 - 1) < 0.02
    assert abs(r100 - 1) < 0.012
    assert abs(r100 - 1) < 0.75 * abs(r50 - 1)


def test_whittaker_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for kappa, mu, x in ((0.0, 0.0, 1.0), (0.4, 1.1, 2.5), (-1.0, 0.8, 0.7),
                         (0.25, 0.75, 10.0)):
        ref = complex(mp.whitw(kappa, mu, x))
        got = whittaker_W(kappa, mu, x)
        assert abs(got - ref) / abs(ref) < 1e-9


def test_whittaker_unsupported():
    with pytest.raises(UnsupportedParameters):
        whittaker_W(2.0, 0.0, 1.0)  # mu - kappa + 1/2 = -1.5
    with pytest.raises(InvalidArgument):
        whittaker_W(0.0, 0.0, -1.0)
    with pytest.raises(InvalidArgument):
        whittaker_W(5.0, 5.25, 1e-80)  # about 1e380, beyond the doubles


# ---------------------------------------------------------------------------
# Mellin identity
# ---------------------------------------------------------------------------

def test_mellin_known_point():
    report = mellin_whittaker_check(0.0, 0.0, 0.5)
    assert abs(report.gamma_value - 2 / math.sqrt(math.pi)) < 1e-14
    assert report.rel_error <= 1e-8


def test_mellin_closed_regime_factorial():
    # kappa=5, mu=4.5, sigma=3: integral is Gamma(8) = 5040
    report = mellin_whittaker_check(5.0, 4.5, 3.0)
    assert abs(report.gamma_value - 5040) < 1e-9
    assert report.rel_error <= 1e-8


def test_mellin_random_admissible(rng):
    checked = 0
    while checked < 10:
        mu = rng.uniform(-1.2, 1.2)
        kappa = mu + 0.5 - rng.uniform(0.2, 1.6)
        sigma = abs(mu) - 0.5 + rng.uniform(0.35, 2.5)
        if (sigma + 0.5 - abs(mu)) <= 0.3:
            continue
        report = mellin_whittaker_check(kappa, mu, sigma)
        assert report.rel_error <= 1e-8, (kappa, mu, sigma, report.rel_error)
        checked += 1


@pytest.mark.parametrize("kappa, mu, sigma", [
    (0.2 + 0.1j, 0.6 + 0.2j, 1.1 - 0.3j),
    # l1 = 10 with ir = 10.5, 12, 11+0.5i; sigma is the arch lambda power
    # at l = 10, s = 7/6
    (5.0, 5.25, 12.0),
    (5.0, 6.0, 12.0),
    (5.0, 5.5 + 0.25j, 12.0),
], ids=["complex", "ir10.5", "ir12", "ir11+0.5i"])
def test_mellin_integral_regime(kappa, mu, sigma):
    report = mellin_whittaker_check(kappa, mu, sigma)
    assert report.rel_error <= 1e-8


def test_mellin_preconditions():
    with pytest.raises(InvalidArgument):
        mellin_whittaker_check(0.0, 1.0, 0.2)  # sigma + 1/2 - mu < 0


# ---------------------------------------------------------------------------
# Archimedean zeta integral
# ---------------------------------------------------------------------------

DISCRETE_SERIES_SPECS = [
    dict(l=10, l1=10, D=4, q_exp=0.0, a_plus=(4 * math.pi) ** -5,
         s=7 / 6, ir=9.0),
    dict(l=10, l1=10, D=4, q_exp=0.0, a_plus=(4 * math.pi) ** -5,
         s=4 / 3, ir=9.0),
    dict(l=12, l1=10, D=8, q_exp=0.4, a_plus=1.0, s=1.0, ir=9.0),
    dict(l=10, l1=12, D=4, q_exp=0.0, a_plus=1.0, s=7 / 6, ir=11.0),
    dict(l=11, l1=11, D=12, q_exp=0.0, a_plus=2.0 - 1.0j, s=1.2, ir=10.0),
]


@pytest.mark.parametrize("kw", DISCRETE_SERIES_SPECS)
def test_arch_quadrature_vs_closed(kw):
    spec = ArchSpec(**kw)
    closed = arch_zeta_closed(spec)
    quad = arch_zeta_quadrature(spec)
    assert abs(quad - closed) / abs(closed) <= 1e-6


# closed-regime specs whose inner integrals are 1e-140 to 1e-300 for some
# u: each row of the batch converges relative to the largest contribution
# to the outer sum, not to its own size
TINY_ROW_SPECS = [
    dict(l=3, l1=5, D=7, q_exp=0.0, a_plus=1.0, s=0.147, ir=4.0),
    dict(l=2, l1=2, D=3, q_exp=0.3 + 0.5j, a_plus=1.0, s=0.106, ir=1.0),
    dict(l=10, l1=12, D=4, q_exp=0.4, a_plus=1.0, s=-0.745, ir=11.0),
]


@pytest.mark.parametrize("kw", TINY_ROW_SPECS, ids=["D7", "complex-q", "s<0"])
def test_arch_quadrature_tiny_inner_rows(kw):
    spec = ArchSpec(**kw)
    closed = arch_zeta_closed(spec)
    quad = arch_zeta_quadrature(spec)
    assert abs(quad - closed) / abs(closed) <= 1e-6


# |Re ir| > l1 - 1: W by its integral representation, a triple quadrature
@pytest.mark.parametrize("kw", [
    dict(l=4, l1=4, D=4, q_exp=0.0, a_plus=1.0, s=1.4, ir=-5.0),
    dict(l=4, l1=4, D=3, q_exp=0.0, a_plus=1.0, s=7 / 6, ir=4.0),
    dict(l=10, l1=10, D=4, q_exp=0.0, a_plus=1.0, s=7 / 6, ir=11 + 0.5j),
], ids=["ir-5", "D3-ir4", "ir11+0.5i"])
def test_arch_quadrature_integral_regime(kw):
    spec = ArchSpec(**kw)
    closed = arch_zeta_closed(spec)
    quad = arch_zeta_quadrature(spec)
    assert abs(quad - closed) / abs(closed) <= 1e-6


def test_closed_forms_agree_when_l_ge_l1():
    for kw in DISCRETE_SERIES_SPECS:
        spec = ArchSpec(**kw)
        if spec.l < spec.l1:
            continue
        full = arch_zeta_closed(spec)
        simple = arch_zeta_closed_simplified(spec)
        assert abs(full - simple) <= 1e-12 * abs(full)


def test_simplified_form_requires_l_ge_l1():
    spec = ArchSpec(l=10, l1=12, D=4, q_exp=0.0, a_plus=1.0, s=7 / 6, ir=11.0)
    with pytest.raises(InvalidArgument):
        arch_zeta_closed_simplified(spec)


def test_l2_definition_and_parity():
    spec = ArchSpec(l=10, l1=12, D=4, q_exp=0.0, a_plus=1.0, s=7 / 6, ir=11.0)
    assert spec.l2 == 12 - 20 == -8
    spec2 = ArchSpec(l=12, l1=10, D=4, q_exp=0.0, a_plus=1.0, s=1.0, ir=9.0)
    assert spec2.l2 == -10


def test_ir_sign_symmetry():
    # the closed form is symmetric under ir -> -ir
    base = dict(l=10, l1=10, D=4, q_exp=0.0, a_plus=1.0, s=7 / 6)
    plus = arch_zeta_closed(ArchSpec(ir=9.0, **base))
    minus = arch_zeta_closed(ArchSpec(ir=-9.0, **base))
    assert abs(plus - minus) <= 1e-13 * abs(plus)
    # and so is the quadrature, through W_{kappa,mu} = W_{kappa,-mu}
    quad_minus = arch_zeta_quadrature(ArchSpec(ir=-9.0, **base))
    quad_plus = arch_zeta_quadrature(ArchSpec(ir=9.0, **base))
    assert abs(quad_minus - quad_plus) <= 1e-6 * abs(quad_plus)
    assert abs(quad_minus - minus) <= 1e-6 * abs(minus)


def test_a_plus_linearity():
    base = dict(l=10, l1=10, D=4, q_exp=0.0, s=7 / 6, ir=9.0)
    one = arch_zeta_closed(ArchSpec(a_plus=1.0, **base))
    two = arch_zeta_closed(ArchSpec(a_plus=2.0, **base))
    assert abs(two - 2 * one) <= 1e-14 * abs(two)
    q1 = arch_zeta_quadrature(ArchSpec(a_plus=1.0, **base))
    q2 = arch_zeta_quadrature(ArchSpec(a_plus=2.0, **base))
    assert abs(q2 - 2 * q1) <= 1e-9 * abs(q2)


def test_convergence_gate():
    with pytest.raises(DivergentParameters):
        ArchSpec(l=2, l1=2, D=4, q_exp=0.0, a_plus=1.0, s=-1.0, ir=1.0)


def test_holomorphy_sanity():
    # finite differences of the closed form against the analytic
    # log-derivative guard sign errors in the exponentials
    base = dict(l=10, l1=10, D=4, q_exp=0.0, a_plus=1.0, ir=9.0)
    for s0 in (7 / 6, 1.4 + 0.2j):
        h = 1e-5
        f = lambda s: arch_zeta_closed(ArchSpec(s=s, **base))
        fd = (f(s0 + h) - f(s0 - h)) / (2 * h)
        analytic = f(s0) * arch_zeta_closed_logderiv(ArchSpec(s=s0, **base))
        assert abs(fd - analytic) / abs(analytic) <= 1e-4


@pytest.mark.parametrize("field, value", [
    ("l", 10.5), ("l1", 10.0), ("D", 4.0), ("l1", True)])
def test_arch_spec_requires_integer_weights(field, value):
    kw = dict(DISCRETE_SERIES_SPECS[0], **{field: value})
    with pytest.raises(InvalidArgument, match=field):
        ArchSpec(**kw)


def test_arch_spec_json():
    spec = ArchSpec(l=10, l1=10, D=4, q_exp=0.0, a_plus=2 - 1j, s=7 / 6, ir=9.0)
    back = ArchSpec.from_json(spec.to_json())
    assert back == spec
    # r is accepted in place of ir
    alt = ArchSpec.from_json({"l": 10, "l1": 10, "D": 4, "q_exp": 0.0,
                              "a_plus": [2.0, -1.0], "s": 7 / 6,
                              "r": [0.0, -9.0]})
    assert alt == spec
