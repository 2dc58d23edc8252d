import cmath
import hashlib
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from localzeta import arch
from localzeta.arch import (ArchSpec, arch_zeta_closed,
                            arch_zeta_closed_simplified, arch_zeta_quadrature,
                            mellin_whittaker_check, whittaker_w_array)
from localzeta.cgamma import EXP_FLOOR, complex_gamma, gamma_selftest, log_gamma
from localzeta.errors import (DivergentParameters, InvalidArgument, PoleError,
                              QuadratureError, UnsupportedParameters)
from localzeta.quadrature import _nodes, quad_zero_to_inf

from oracles import (arch_zeta_closed_logderiv, arch_zeta_nested, digamma,
                     whittaker_exponent, whittaker_w_array_full_grid)


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


@pytest.mark.parametrize("z", [172.0, 1e5 + 0j, -2.5 - 1e3j, -171.5])
def test_gamma_overflow_is_typed(z):
    # the message names the caller's z, not the reflected 1 - z; -2.5-1e3j
    # underflows and Gamma(-171.5) is subnormal
    with pytest.raises(InvalidArgument,
                       match=re.escape(f"double range at z = {complex(z)}")):
        complex_gamma(z)


@pytest.mark.parametrize("z", [0.2 + 250j, -0.3 - 220j, -150.5 + 2j])
def test_gamma_reflection_far_from_the_real_axis(z):
    # sin(pi z) alone leaves the double range above |Im z| = 226, Gamma does not
    mp = pytest.importorskip("mpmath")
    ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
    assert abs(complex_gamma(z) - ref) / abs(ref) < 1e-12


def test_log_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(3)
    points = [complex(rng.uniform(-300, 1000), rng.uniform(-1000, 1000))
              for _ in range(400)]
    points += [complex(rng.uniform(-300, 1000), rng.uniform(-3, 3))
               for _ in range(100)]
    for z in points + [0.5, 1.0, 2.0, -0.5, 171.5, 1e3j, -1e3j, -299.5]:
        z = complex(z)
        ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        diff = log_gamma(z) - ref
        # equal modulo 2 pi i
        diff = complex(diff.real,
                       (diff.imag + math.pi) % (2 * math.pi) - math.pi)
        assert abs(diff) <= 1e-13 * max(1.0, abs(ref)), z


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


@pytest.mark.parametrize("z", [-1e9 + 0.5 + 0.3j, -3.7 + 0.2j, -0.5,
                               -10.25 - 3j, 0.3 + 40j, -53 + 1e-9j])
def test_digamma_reflection(z):
    # Re z < 1/2 reflects; recurring up from -1e9 would take minutes
    mp = pytest.importorskip("mpmath")
    ref = complex(mp.digamma(mp.mpc(complex(z).real, complex(z).imag)))
    assert abs(digamma(z) - ref) / abs(ref) < 1e-11


# ---------------------------------------------------------------------------
# Whittaker
# ---------------------------------------------------------------------------

def test_whittaker_closed_form():
    # W_{5, 4.5}(1) = e^{-1/2} (l1 = 10)
    w = whittaker_w_array(5.0, 4.5, np.array([1.0]))[0]
    assert abs(w - math.exp(-0.5)) < 1e-14
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
        got = whittaker_w_array(0.0, 0.0, np.array([x]))[0]
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


def test_quadrature_support_window():
    def f(t):  # exp underflows to exactly 0 off [1e-3, 1600]
        return np.stack([np.exp(-t - 1 / t), np.exp(-t / 2 - 1 / t)])

    for level in range(2, 12):  # the windows are slices of ascending nodes
        assert np.all(np.diff(_nodes(level)[0]) > 0), level

    sizes = []
    whole = quad_zero_to_inf(lambda t: sizes.append(t.size) or f(t),
                             target=1e-12)
    total = None  # the nested sum over every node, level by level
    for level in range(2, len(sizes) + 2):
        t, w = _nodes(level)
        new = np.sum(w * f(t), axis=-1)
        total = new if total is None else total / 2 + new
    assert np.array_equal(whole, total)
    assert np.array_equal(
        quad_zero_to_inf(f, target=1e-12, support=(0.0, 1e300)), whole)

    inner = []
    windowed = quad_zero_to_inf(lambda t: inner.append(t) or f(t),
                                target=1e-12, support=(1e-3, 1600.0))
    assert len(inner) == len(sizes)
    assert sum(t.size for t in inner) < sum(sizes)
    assert all(np.all((t >= 1e-3) & (t <= 1600.0)) for t in inner)
    assert np.all(np.abs(windowed - whole) <= 1e-15 * np.abs(whole))

    empty = quad_zero_to_inf(f, support=(2.0, 1.0))
    assert empty.shape == (2,) and np.all(empty == 0)
    assert quad_zero_to_inf(lambda t: np.exp(-t), support=(3.0, 3.0)) == 0


def test_whittaker_asymptotics():
    # W ~ e^{-x/2} x^kappa (1 + O(1/x))
    kappa, mu = 0.3, 0.7
    # one x per call: a batch is accurate relative to its largest value
    r50, r100 = (whittaker_w_array(kappa, mu, np.array([x]))[0]
                 / (math.exp(-x / 2) * x**kappa) for x in (50.0, 100.0))
    assert abs(r50 - 1) < 0.02
    assert abs(r100 - 1) < 0.012
    assert abs(r100 - 1) < 0.75 * abs(r50 - 1)


def test_whittaker_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for kappa, mu, x in ((0.0, 0.0, 1.0), (0.4, 1.1, 2.5), (-1.0, 0.8, 0.7),
                         (0.25, 0.75, 10.0)):
        ref = complex(mp.whitw(kappa, mu, x))
        got = whittaker_w_array(kappa, mu, np.array([x]))[0]
        assert abs(got - ref) / abs(ref) < 1e-9


def test_whittaker_unsupported():
    with pytest.raises(UnsupportedParameters):
        whittaker_w_array(2.0, 0.0, np.array([1.0]))  # mu - kappa + 1/2 = -1.5
    with pytest.raises(InvalidArgument):
        whittaker_w_array(0.0, 0.0, np.array([-1.0]))
    with pytest.raises(InvalidArgument):
        # about 1e380, beyond the doubles
        whittaker_w_array(5.0, 5.25, np.array([1e-80]))


WHITTAKER_XS = np.geomspace(1e-3, 60.0, 40)


WHITTAKER_DTYPE_CASES = [
    (5.0, 4.5, 0.0, np.float64),
    (5.0, 4.5, 0.7 * np.log(WHITTAKER_XS), np.float64),
    (0.4, 1.1, 0.0, np.float64),
    (0.4, 1.1, -0.5 * np.log(WHITTAKER_XS), np.float64),
    (5.0 + 0j, 4.5 + 0j, 0.0, np.float64),  # a zero imaginary part is real
    (5.0, 4.5, 0.5j, np.complex128),
    (5.0, 4.5, np.zeros(40, dtype=complex), np.complex128),
    (0.4 + 0.1j, 1.1, 0.0, np.complex128),
    (0.4, 1.1 + 0.2j, 0.0, np.complex128),
    (0.4, 1.1, np.zeros(40, dtype=complex), np.complex128),
]


@pytest.mark.parametrize(
    "kappa, mu, log_factor, dtype", WHITTAKER_DTYPE_CASES,
    ids=["closed", "closed-factor", "integral", "integral-factor",
         "complex-zero-imag", "closed-complex-factor", "closed-complex-array",
         "complex-kappa", "complex-mu", "integral-complex-array"])
def test_whittaker_dtype_follows_parameters(kappa, mu, log_factor, dtype):
    vals = whittaker_w_array(kappa, mu, WHITTAKER_XS, log_factor=log_factor)
    assert vals.dtype == dtype
    assert vals.shape == WHITTAKER_XS.shape
    if np.ndim(log_factor) == 0:
        empty = whittaker_w_array(kappa, mu, np.ones((0, 3)), log_factor)
        assert empty.dtype == dtype and empty.shape == (0, 3)


def test_whittaker_float_when_log_gamma_rounds_off_the_real_axis():
    # log_gamma returns Im = 1.1e-16 here; Gamma(z) > 0, so its log is real
    z = 0.29216854818822136
    assert log_gamma(z).imag != 0
    kappa = 0.5 - z
    assert 0.0 - kappa + 0.5 == z
    assert whittaker_w_array(kappa, 0.0, WHITTAKER_XS).dtype == np.float64


# float64 against complex128 on the same real inputs: the two differ only
# by the final exp of shift - log x + log(DE sum), whose exponent reaches
# the hundreds, so by a few hundred eps; 5.7e-14 was the worst of 1,500
# draws as in criterion 6, 2.2e-16 in the closed regime
FLOAT_PATH_REL = 1e-13


def test_whittaker_float_path_matches_complex_path(rng):
    params = [(l1 / 2, (l1 - 1) / 2) for l1 in range(2, 14)]
    while len(params) < 32:
        mu = rng.uniform(-1.2, 1.2)
        params.append((mu + 0.5 - rng.uniform(0.2, 1.6), mu))
    for kappa, mu in params:
        log_factor = rng.uniform(-3.0, 3.0) * np.log(WHITTAKER_XS)
        real = whittaker_w_array(kappa, mu, WHITTAKER_XS, log_factor)
        cplx = whittaker_w_array(kappa, mu, WHITTAKER_XS,
                                 log_factor.astype(np.complex128))
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.all(np.abs(real - cplx) <= FLOAT_PATH_REL * np.abs(cplx)), (
            kappa, mu)


# sha256 of whittaker_w_array(kappa, mu, WHITTAKER_XS, log_factor).tobytes()
# in the integral regime, from the batch that sums only the rows and nodes
# whose exponent can reach EXP_FLOOR.  Against the full-grid batch, whose
# hashes these were before, the values moved by at most 3.9e-16 of the
# largest x * |W * factor|: the skipped terms are exact zeros, but the
# pairwise sums group the rest differently.  numpy's exp and log may round
# differently on another build, which would move these.
WHITTAKER_SHA256 = {
    "real": "7238909de10cef12fbc1e229f7ad7e3d17da355f1bea69c768f2423c674b87ec",
    "real-factor":
        "a9d5c2f8b4bde8899b2fe71a5ea802d16588c635be5731d8f3e2270b3a5131d1",
    "complex":
        "09f83256835fc2db32bf79632b02b24b70867a9cbb1ee8ea39818d03dbdd4c30",
}
# the same for the full-grid oracle: the hashes of the batch it replaced
FULL_GRID_SHA256 = {
    "real": "c8c1174d1d5bb0d20c8c19ccdf6ecf499200f5b13e68d40d4d52ca0940e51158",
    "real-factor":
        "19085b6a7df47c54a33fbe251269c78a516136fd5c0648e097eb20e2ada10707",
    "complex":
        "dab911b43c267f16e6779b11aedc9e5303c108b615f3988292495e2606d08974",
}
PINNED_CASES = pytest.mark.parametrize("name, kappa, mu, factor", [
    ("real", 0.4, 1.1, 0.0),
    ("real-factor", -0.3, 0.2, -0.5),
    ("complex", 0.4 + 0.1j, 1.1 - 0.2j, 0.0),
])


@PINNED_CASES
def test_whittaker_integral_regime_values_are_pinned(name, kappa, mu, factor):
    vals = whittaker_w_array(kappa, mu, WHITTAKER_XS,
                             factor * np.log(WHITTAKER_XS))
    assert hashlib.sha256(vals.tobytes()).hexdigest() == WHITTAKER_SHA256[name]


@PINNED_CASES
def test_full_grid_oracle_is_the_previous_batch(name, kappa, mu, factor):
    vals = whittaker_w_array_full_grid(kappa, mu, WHITTAKER_XS,
                                       factor * np.log(WHITTAKER_XS))
    assert hashlib.sha256(vals.tobytes()).hexdigest() == FULL_GRID_SHA256[name]


# ---------------------------------------------------------------------------
# The integral-regime batch skips only exponents that underflow
# ---------------------------------------------------------------------------

def _criterion_6_draws(n):
    # (kappa, mu, sigma) drawn as in acceptance criterion 6
    rng = random.Random(606)
    draws = []
    while len(draws) < n:
        mu = rng.uniform(-1.2, 1.2)
        kappa = mu + 0.5 - rng.uniform(0.2, 1.6)
        sigma = abs(mu) - 0.5 + rng.uniform(0.35, 2.5)
        if sigma + 0.5 - abs(mu) > 0.3:
            draws.append((kappa, mu, sigma, 0.0))
    return draws


def _arch_mellin(l, l1, D, s, ir):
    # (kappa, mu, sigma, log_scale) of the Mellin integral M of a spec with
    # q_exp = 0, computed without an ArchSpec, which refuses a divergent M
    sigma = arch._narrow(3 * complex(s) - 1.5 + l)
    log_c0 = math.log(4 * math.pi) + 0.5 * math.log(D)
    return l1 / 2.0, complex(ir) / 2.0, sigma, -sigma * log_c0


# (kappa, mu, sigma, log_scale) of Mellin integrals, whose Whittaker batches
# are the x nodes of one level with the factor e^(-x/2) x^(sigma-1) scale
WHITTAKER_MELLIN_PARAMS = {
    "criterion-6": _criterion_6_draws(50),
    "ir11+0.5i": [_arch_mellin(l=4, l1=4, D=3, s=1.2, ir=11 + 0.5j)],
    # mu = 100 - 15i: the t-quadrature does not converge (and M diverges,
    # so arch-verify refuses the spec; W exists here all the same)
    "r30+200i": [_arch_mellin(l=10, l1=10, D=4, s=1.1666, ir=30j - 200)],
    "large-mu": [(kappa, mu, abs(complex(mu).real) + 1.0, 0.0)
                 for kappa, mu in [(0.0, 100.0), (10.0, 100.0), (-40.0, 60.0),
                                   (-40.0, 10.0), (0.3, -100.0),
                                   (0.0, 100 + 1j), (2.0, 60 + 5j),
                                   (0.0, 3 + 6j), (-3 + 2j, 100.0),
                                   (0.5j, 99.0)]],
    # oscillating so fast that the t-quadrature does not converge
    "large-mu-oscillating": [(3.0, 60 + 80j, 61.0, 0.0),
                             (-1.0, 100j, 1.0, 0.0)],
}


def _whittaker_batches(group, levels):
    """(kappa, mu, xs, log_factor) of each batch of a group."""
    if group == "dtype-cases":
        return [(kappa, mu, WHITTAKER_XS, log_factor)
                for kappa, mu, log_factor, _ in WHITTAKER_DTYPE_CASES
                if arch._whittaker_params(kappa, mu)[2] == "integral"]
    batches = []
    for kappa, mu, sigma, log_scale in WHITTAKER_MELLIN_PARAMS[group]:
        for level in levels:
            xs = _nodes(level)[0]
            batches.append((kappa, mu, xs, -xs / 2.0 + arch._narrow(sigma - 1)
                            * np.log(xs) + log_scale))
    return batches


@pytest.mark.parametrize("group", ["dtype-cases", *WHITTAKER_MELLIN_PARAMS])
def test_whittaker_batch_skips_only_exponents_that_underflow(group):
    for kappa, mu, xs, log_factor in _whittaker_batches(group, (2,)):
        expo, shift, row = whittaker_exponent(kappa, mu, xs, log_factor)
        kappa, mu, _ = arch._whittaker_params(kappa, mu)
        keep, (lo, hi) = arch._integral_support(
            row.real[:, 0] - shift, np.log(xs), mu - kappa - 0.5,
            mu + kappa - 0.5)
        for level in range(2, 12):
            t = _nodes(level)[0]
            skipped = ~(keep[:, None] & (t >= lo) & (t <= hi))
            room = expo(t).real[skipped] - shift
            assert np.all(room < EXP_FLOOR), (kappa, mu, level, room.max())


@pytest.mark.parametrize("group", ["dtype-cases", "criterion-6", "ir11+0.5i",
                                   "r30+200i", "large-mu"])
def test_whittaker_batch_matches_full_grid_oracle(group):
    for kappa, mu, xs, log_factor in _whittaker_batches(group, (2, 3)):
        try:
            want = whittaker_w_array_full_grid(kappa, mu, xs, log_factor)
        except QuadratureError as exc:
            with pytest.raises(QuadratureError) as info:
                whittaker_w_array(kappa, mu, xs, log_factor)
            assert str(info.value) == str(exc)
            continue
        got = whittaker_w_array(kappa, mu, xs, log_factor)
        assert got.dtype == want.dtype
        # each x's contribution to a DE sum over x is x * W * factor
        worst = np.max(xs * np.abs(got - want))
        assert worst <= 1e-11 * np.max(xs * np.abs(want)), (kappa, mu)


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


# closed-regime specs at small s, complex q and s < 0
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


def _whittaker_dtypes(monkeypatch):
    """The dtypes of every whittaker_w_array result from here on."""
    seen = set()

    def recorded(*args, **kwargs):
        vals = whittaker_w_array(*args, **kwargs)
        seen.add(vals.dtype)
        return vals

    monkeypatch.setattr(arch, "whittaker_w_array", recorded)
    return seen


# |Re ir| > l1 - 1: W by its integral representation, so M is a double
# quadrature
REAL_INTEGRAL_REGIME_SPECS = [
    dict(l=4, l1=4, D=4, q_exp=0.0, a_plus=1.0, s=1.4, ir=-5.0),
    dict(l=4, l1=4, D=3, q_exp=0.0, a_plus=1.0, s=7 / 6, ir=4.0),
]


@pytest.mark.parametrize("kw", REAL_INTEGRAL_REGIME_SPECS + [
    dict(l=10, l1=10, D=4, q_exp=0.0, a_plus=1.0, s=7 / 6, ir=11 + 0.5j),
], ids=["ir-5", "D3-ir4", "ir11+0.5i"])
def test_arch_quadrature_integral_regime(kw, monkeypatch):
    spec = ArchSpec(**kw)
    closed = arch_zeta_closed(spec)
    dtypes = _whittaker_dtypes(monkeypatch)
    quad = arch_zeta_quadrature(spec)
    assert abs(quad - closed) / abs(closed) <= 1e-6
    # the dtype follows the parameters
    assert dtypes == {np.dtype(np.complex128 if isinstance(kw["ir"], complex)
                               else np.float64)}


@pytest.mark.parametrize("kw", REAL_INTEGRAL_REGIME_SPECS
                         + DISCRETE_SERIES_SPECS[2:4],
                         ids=["ir-5", "D3-ir4", "l>l1", "l<l1"])
def test_arch_quadrature_matches_the_nested_double_integral(kw):
    # the separation lambda = x / (c0 u) and U, against the double integral
    # as it is written
    spec = ArchSpec(**kw)
    product = arch_zeta_quadrature(spec)
    nested = arch_zeta_nested(spec)
    assert abs(product - nested) <= 1e-6 * abs(nested)


@pytest.mark.parametrize("kw", DISCRETE_SERIES_SPECS
                         + REAL_INTEGRAL_REGIME_SPECS)
def test_arch_quadrature_float_path_matches_complex_path(kw, monkeypatch):
    # a+ = 2 - i enters only the prefactor: the quadrature is still real
    spec = ArchSpec(**kw)
    dtypes = _whittaker_dtypes(monkeypatch)
    real = arch_zeta_quadrature(spec)
    assert dtypes == {np.dtype(np.float64)}
    dtypes.clear()
    monkeypatch.setattr(arch, "_narrow", complex)  # every parameter complex
    cplx = arch_zeta_quadrature(spec)
    assert dtypes == {np.dtype(np.complex128)}
    assert abs(real - cplx) <= FLOAT_PATH_REL * abs(cplx)


@pytest.mark.parametrize("kw", [
    TINY_ROW_SPECS[1], dict(DISCRETE_SERIES_SPECS[0], s=7 / 6 + 0.1j),
], ids=["complex-q", "complex-s"])
def test_arch_quadrature_complex_parameters_stay_complex(kw, monkeypatch):
    dtypes = _whittaker_dtypes(monkeypatch)
    arch_zeta_quadrature(ArchSpec(**kw))
    assert dtypes == {np.dtype(np.complex128)}


def test_arch_quadrature_memory_bound():
    # M's Whittaker batch of one level, the kept rows (x nodes) x the t
    # nodes in their window, sets the peak: 1.15 MB of float64 (2.6 MB
    # when every row ran over every node)
    spec = ArchSpec(l=4, l1=4, D=3, q_exp=0.0, a_plus=1.0, s=7 / 6, ir=4.0)
    tracemalloc.start()
    try:
        arch_zeta_quadrature(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_arch_quadrature_prefactor_past_the_doubles():
    # a+ pi D^(-3s/2-3/4) alone is 8.9e308; times the integral, 6.7e306
    spec = ArchSpec(l=10, l1=10, D=4, q_exp=0.0, a_plus=1e308, s=-1.0,
                    ir=9.0)
    closed = arch_zeta_closed(spec)
    quad = arch_zeta_quadrature(spec)
    assert quad.imag == 0
    assert abs(quad - closed) <= 1e-6 * abs(closed)


def test_arch_quadrature_of_rows_that_all_underflow():
    # c0^(-sigma) = (4 pi sqrt(D))^(-12.1) is about 1e-924, so every row
    # of M underflows
    spec = ArchSpec(l=10, l1=10, D=4 * 10**150, q_exp=0.0, a_plus=1.0,
                    s=1.2, ir=9.0)
    assert arch_zeta_quadrature(spec) == 0


def test_arch_quadrature_past_the_doubles_is_typed():
    # the value is 2.5e308, as is the closed one
    spec = ArchSpec(l=10, l1=10, D=4, q_exp=0.0, a_plus=1e308, s=-1.4,
                    ir=9.0)
    with pytest.raises(InvalidArgument, match="quadrature value leaves"):
        arch_zeta_quadrature(spec)


def test_closed_forms_agree_when_l_ge_l1():
    for kw in DISCRETE_SERIES_SPECS:
        spec = ArchSpec(**kw)
        if spec.l < spec.l1:
            continue
        full = arch_zeta_closed(spec)
        simple = arch_zeta_closed_simplified(spec)
        assert abs(full - simple) <= 1e-12 * abs(full)


@pytest.mark.parametrize("s", [60.0, 100.0, 1 + 120j])
def test_closed_form_past_the_gamma_range_against_mpmath(s):
    # the README spec: Gamma(z1) overflows at s = 60 and 100, and
    # Gamma(z1) Gamma(z2) underflows at 1+120i, but the closed values do not
    mp = pytest.importorskip("mpmath")
    spec = ArchSpec(l=10, l1=10, D=4, q_exp=0.0, a_plus=3.1665e-06, s=s,
                    ir=9.0)
    z = mp.mpc(s.real, s.imag) if isinstance(s, complex) else mp.mpf(s)
    z1, z2, z3 = 3 * z + 9 + 4.5, 3 * z + 9 - 4.5, 3 * z + 10 - 5 - 0.5
    ref = complex(3.1665e-06 * mp.pi * mp.power(4, -3 * z - 5)
                  * mp.power(4 * mp.pi, -3 * z + 1.5 - 10)
                  * mp.gamma(z1) * mp.gamma(z2)
                  / ((6 * z + 20 - 10 - 1) * mp.gamma(z3)))
    got = arch_zeta_closed(spec)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_arch_spec_rejects_zero_a_plus():
    with pytest.raises(InvalidArgument, match="a_plus"):
        ArchSpec(l=10, l1=10, D=4, q_exp=0.0, a_plus=0.0, s=7 / 6, ir=9.0)


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
