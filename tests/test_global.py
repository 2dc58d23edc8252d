import cmath
import math
import random
from fractions import Fraction

import pytest

from localzeta import (INERT, RAMIFIED_PS_UNRAM_ALPHA, BesselDatum, Gl2Local,
                       InvalidArgument, LocalInstance, QScalar, SatakeParams)
from localzeta.arch import ArchSpec, arch_zeta_closed
from localzeta.cgamma import complex_gamma
from localzeta.errors import PoleError
from localzeta.globalconst import (MAX_L, PRIME_BOUND, GlobalSpec,
                                   SpecialValueResult, _is_prime, a_lambda,
                                   special_value_constant, y_infty,
                                   y_p_at_special_point)

from conftest import rq


def test_a_lambda_single_class():
    assert a_lambda([(1.0, 3.5 + 1j)]) == 3.5 + 1j


def test_a_lambda_cancellation():
    c = 2.7 - 0.4j
    assert a_lambda([(1.0, c), (-1.0, c)]) == 0


def test_a_lambda_random_sum(rng):
    data = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))
            for _ in range(3)]
    direct = sum(l * a for l, a in data)
    assert abs(a_lambda(data) - direct) < 1e-15


def test_a_lambda_empty():
    with pytest.raises(InvalidArgument):
        a_lambda([])


def test_y_infty_direct_value():
    # l=10, D=3, a(Lambda)=1, s=7/6: pi 3^(-8.5) (4pi)^(-17) Gamma(17)/16
    spec = GlobalSpec(l=10, D=3, a_lambda=1.0)
    expected = math.pi * 3.0**-8.5 * (4 * math.pi) ** -17 \
        * math.factorial(16) / 16
    got = y_infty(7 / 6, spec)
    assert abs(got - expected) / abs(expected) < 1e-13


def test_y_infty_conjugate_linearity():
    spec1 = GlobalSpec(l=10, D=3, a_lambda=1.0 + 1.0j)
    spec2 = GlobalSpec(l=10, D=3, a_lambda=2.0 + 2.0j)
    a = y_infty(1.0, spec1)
    b = y_infty(1.0, spec2)
    assert abs(b - 2 * a) < 1e-14 * abs(b)
    # the a(Lambda) factor enters conjugated
    assert abs(a - (1 - 1j) * y_infty(1.0, GlobalSpec(l=10, D=3, a_lambda=1.0))) \
        < 1e-14 * abs(a)


def test_y_infty_past_the_gamma_range():
    # Gamma(193.5) overflows, Y_infty(60) = 4.6e54 does not
    mp = pytest.importorskip("mpmath")
    ref = complex(mp.pi * mp.power(3, -185) * mp.power(4 * mp.pi, -193.5)
                  * mp.gamma(193.5) / 369)
    got = y_infty(60, GlobalSpec(l=10, D=3, a_lambda=1.0))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_y_infty_pole():
    spec = GlobalSpec(l=10, D=3, a_lambda=1.0)
    with pytest.raises(PoleError):
        y_infty(-1.5, spec)  # 6s + l - 1 = 0


def test_y_infty_matches_arch_closed(rng):
    # y_infty/conj(a) equals the archimedean closed form at l1 = l, q = 0,
    # ir = l - 1, a+ = (4 pi)^(-l/2)
    for _ in range(20):
        l = rng.choice([10, 11, 12])
        D = rng.choice([3, 4, 7, 8])
        s = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        spec = GlobalSpec(l=l, D=D, a_lambda=1.0)
        arch = ArchSpec(l=l, l1=l, D=D, q_exp=0.0,
                        a_plus=(4 * math.pi) ** (-l / 2), s=s, ir=l - 1.0)
        got = y_infty(s, spec)
        want = arch_zeta_closed(arch)
        assert abs(got - want) / abs(want) <= 1e-10


def test_special_value_constant_direct():
    spec = GlobalSpec(l=10, D=3, a_lambda=1.0)
    result = special_value_constant(spec)
    expected = 3.0**-8.5 * 2.0**-34 * math.factorial(15)
    assert abs(result.value - expected) / abs(expected) < 1e-15
    assert result.mantissa == (Fraction(math.factorial(15))
                               * Fraction(1, 2**34) * Fraction(1, 3**9))


def test_special_value_empty_bad_primes_is_one():
    base = special_value_constant(GlobalSpec(l=10, D=3, a_lambda=1.0))
    with_trivial = special_value_constant(
        GlobalSpec(l=10, D=3, a_lambda=1.0, bad_primes=((2, 1.0),)))
    assert base.value == with_trivial.value


def test_special_value_multiplicative_in_bad_primes():
    a = special_value_constant(
        GlobalSpec(l=10, D=3, a_lambda=1.0, bad_primes=((2, 0.5), (3, 1.25))))
    b = special_value_constant(
        GlobalSpec(l=10, D=3, a_lambda=1.0, bad_primes=((3, 1.25), (2, 0.5))))
    base = special_value_constant(GlobalSpec(l=10, D=3, a_lambda=1.0))
    assert a.value == b.value
    assert abs(a.value - base.value * 0.5 * 1.25) < 1e-18


def test_special_value_requires_l_ge_3():
    with pytest.raises(InvalidArgument):
        special_value_constant(GlobalSpec(l=2, D=3, a_lambda=1.0))


def test_special_value_l_bound():
    # the mantissa at l = MAX_L + 1, D = 20000 is about e^509, in range:
    # only the bound on l rejects it
    with pytest.raises(InvalidArgument, match=f"l <= {MAX_L}"):
        special_value_constant(GlobalSpec(l=MAX_L + 1, D=20000, a_lambda=1.0))


# the last l before the mantissa overflows (at D = 3 and 4), and the bound
@pytest.mark.parametrize("l, D", [(136, 3), (141, 4), (MAX_L, 20000)])
def test_special_value_at_the_range_edges(l, D):
    result = special_value_constant(GlobalSpec(l=l, D=D, a_lambda=1.0))
    assert cmath.isfinite(result.value) and result.value != 0
    assert result.value.real == pytest.approx(
        float(result.mantissa) * math.sqrt(D), rel=1e-15)


def test_global_spec_validation():
    with pytest.raises(InvalidArgument):
        GlobalSpec(l=10, D=5, a_lambda=1.0)  # 5 = 1 mod 4
    with pytest.raises(InvalidArgument, match="distinct"):
        GlobalSpec(l=10, D=3, a_lambda=1.0, bad_primes=((2, 0.9), (2, 0.8)))


def test_bad_prime_bound():
    # the bound is composite, yet a strong pseudoprime to all thirteen
    # bases, so Miller-Rabin alone would take it for a prime
    assert PRIME_BOUND == 1_287_836_182_261 * 2_575_672_364_521
    assert _is_prime(PRIME_BOUND)
    with pytest.raises(InvalidArgument, match="must be below"):
        GlobalSpec(l=10, D=3, a_lambda=1.0, bad_primes=((PRIME_BOUND, 0.9),))


def test_y_p_at_special_point_exact():
    # worked Case-2 instance: Y = 1/(1 - T^2/24) at T = 4^(-7/2) = 2^-7
    q = 4
    satake = SatakeParams(tuple(rq(v, q) for v in (2, 1, 1, 2)), q)
    datum = BesselDatum(INERT, rq(2, q), q=q)
    rep = Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, q, alpha_varpi=rq(1, q),
                   beta_varpi=rq(3, q), conductor_exp=1)
    inst = LocalInstance(satake, datum, rep)
    exact, approx = y_p_at_special_point(inst, 10)
    assert exact == rq(Fraction(393216, 393215), q)
    assert abs(approx - 393216 / 393215) < 1e-15


def test_y_p_odd_weight_is_rational_power():
    # odd l gives an integer power of q for T
    q = 4
    satake = SatakeParams(tuple(rq(v, q) for v in (2, 1, 1, 2)), q)
    datum = BesselDatum(INERT, rq(2, q), q=q)
    rep = Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, q, alpha_varpi=rq(1, q),
                   beta_varpi=rq(3, q), conductor_exp=1)
    inst = LocalInstance(satake, datum, rep)
    exact, _ = y_p_at_special_point(inst, 11)
    assert exact.b == 0


def test_result_json():
    result = special_value_constant(
        GlobalSpec(l=10, D=3, a_lambda=1 + 2j, bad_primes=((2, 0.75),)))
    obj = result.to_json()
    assert obj["l"] == 10
    assert obj["sqrt_factor"] == 3
    assert obj["exact_mantissa"] == str(result.mantissa)
    assert obj["bad_prime_y_values"] == [[2, [0.75, 0.0]]]


def test_global_spec_from_json():
    spec = GlobalSpec.from_json({
        "l": 10, "D": 3, "a_lambda": [1.0, -1.0], "bad_primes": [[2, 0.5]],
    })
    assert spec.a_lambda == 1 - 1j
    assert spec.bad_primes == ((2, 0.5 + 0j),)
    assert spec == GlobalSpec(l=10, D=3, a_lambda=1 - 1j, bad_primes=((2, 0.5),))
    assert GlobalSpec.from_json({"l": 10, "D": 3}).a_lambda == 1


def test_global_spec_a_lambda_from_class_data():
    spec = GlobalSpec.from_json({
        "l": 10, "D": 3, "class_data": [[1.0, 2.0], [-1.0, 3.0]],
    })
    assert spec == GlobalSpec(l=10, D=3, a_lambda=-1)
    assert spec.a_lambda == a_lambda([(1, 2), (-1, 3)]) == -1 + 0j
    assert special_value_constant(spec).a_lambda == -1 + 0j


def test_global_spec_a_lambda_and_class_data_rejected():
    with pytest.raises(InvalidArgument):
        GlobalSpec.from_json({"l": 10, "D": 3, "a_lambda": 1.0,
                              "class_data": [[1.0, 2.0]]})
