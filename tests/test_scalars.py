import math
import random
from fractions import Fraction

import pytest

from localzeta import InvalidArgument, InvalidInversion, QScalar

from conftest import nonzero_fraction, rq


def test_defining_relation():
    # (0 + 1*sqrt(q))^2 = q
    x = QScalar(0, 1, 5)
    assert x * x == rq(5, 5)
    assert x**2 == rq(5, 5)


def test_identity_powers():
    one = QScalar.one(7)
    for k in (-3, 0, 1, 10):
        assert one**k == one


def test_sqrt_inverse_derived():
    # solve (a + b sqrt(q)) (0 + 1 sqrt(q)) = 1 componentwise: bq = 1, a = 0
    q = 4
    x = QScalar(0, 1, q)
    expected = QScalar(0, Fraction(1, q), q)
    assert x**-1 == expected
    assert x * expected == QScalar.one(q)


def test_q_half_power():
    q = 9
    assert QScalar.q_half_power(2, q) == rq(9, q)
    assert QScalar.q_half_power(-2, q) == rq(Fraction(1, 9), q)
    assert QScalar.q_half_power(3, q) == QScalar(0, 9, q)
    assert QScalar.q_half_power(-3, q) * QScalar.q_half_power(3, q) == QScalar.one(q)
    assert QScalar.q_half_power(1, q) * QScalar.q_half_power(1, q) == rq(q, q)


def test_formal_sqrt_not_collapsed():
    # over q = 4 the symbol sqrt(q) stays distinct from the integer 2
    assert QScalar(0, 1, 4) != rq(2, 4)
    assert QScalar(0, 1, 4) ** 2 == rq(4, 4)


def test_mixed_q_rejected():
    with pytest.raises(InvalidArgument):
        rq(1, 4) + rq(1, 5)


def test_non_invertible_inversion():
    # norm of 2 + sqrt(4) is 4 - 4 = 0
    x = QScalar(2, 1, 4)
    with pytest.raises(InvalidInversion):
        x.inverse()
    with pytest.raises(InvalidInversion):
        x**-1


def test_zero_inversion():
    with pytest.raises(InvalidInversion):
        QScalar.zero(5).inverse()


def test_zeroth_power_of_non_invertible():
    # x^0 = 1 never needs an inverse
    assert QScalar(2, 1, 4) ** 0 == QScalar.one(4)
    assert QScalar.zero(4) ** 0 == QScalar.one(4)


def _random_scalar(rng, q):
    return QScalar(nonzero_fraction(rng), nonzero_fraction(rng), q)


@pytest.mark.parametrize("q", [2, 4, 7])
def test_ring_axioms_random(q):
    rng = random.Random(q * 101)
    for _ in range(60):
        a, b, c = (_random_scalar(rng, q) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_inverse_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        a = _random_scalar(rng, 7)
        assert a * a.inverse() == QScalar.one(7)
        assert a**-3 * a**3 == QScalar.one(7)


def test_int_promotion():
    a = rq(Fraction(1, 2), 5)
    assert a + 1 == rq(Fraction(3, 2), 5)
    assert 2 * a == rq(1, 5)
    assert 1 - a == rq(Fraction(1, 2), 5)


def test_float_embedding():
    x = QScalar(1, Fraction(1, 2), 2)
    assert abs(float(x) - (1 + 0.5 * 2**0.5)) < 1e-15


def test_json_roundtrip():
    x = QScalar(Fraction(-3, 7), Fraction(5, 2), 11)
    assert x.to_json() == {"rat": "-3/7", "sqrt": "5/2"}
    assert QScalar.from_json(x.to_json(), 11) == x
    assert QScalar.from_json("4", 11) == rq(4, 11)
    assert QScalar.from_json({"rat": "1/3"}, 11) == rq(Fraction(1, 3), 11)


def test_bad_inputs():
    with pytest.raises(InvalidArgument):
        QScalar(1, 0, q=1)
    with pytest.raises(InvalidArgument):
        QScalar(1.5, 0, q=4)
    with pytest.raises(InvalidArgument):
        rq(1, 5) ** Fraction(1, 2)


# -- differential test against a (Fraction, Fraction) reference ----------
#
# The reference keeps an element as its two rational coordinates (rat,
# sqrt) and implements the ring operations from their definitions; the
# scalar under test keeps (a + b sqrt(q)) / d as ints in canonical form.

DIFF_QS = [2, 3, 4, 5, 9, 16, 27]


def ref_mul(x, y, q):
    return (x[0] * y[0] + q * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x, q):
    n = x[0] * x[0] - q * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, k, q):
    if k < 0:
        x, k = ref_inverse(x, q), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x, q)
    return out


def ref_half_power(n, q):
    if n % 2 == 0:
        return (Fraction(q) ** (n // 2), Fraction(0))
    return (Fraction(0), Fraction(q) ** ((n - 1) // 2))


def canonical(x):
    """(a, b, d) of rat + sqrt * sqrt(q), from the reference coordinates."""
    d = math.lcm(x[0].denominator, x[1].denominator)
    return (int(x[0] * d), int(x[1] * d), d)


def assert_matches(got, want, q):
    assert (got.rat, got.sqrt, got.q) == (want[0], want[1], q)
    assert (got.a, got.b, got.d) == canonical(want)
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
    assert got == QScalar(want[0], want[1], q)
    assert hash(got) == hash(QScalar(want[0], want[1], q))


def _random_rational(rng):
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    if kind < 0.3:
        return Fraction(rng.randint(-20, 20))
    if kind < 0.85:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))
    # large numerators and denominators, as in long series
    return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))


def _pair(rng):
    return (_random_rational(rng), _random_rational(rng))


@pytest.mark.parametrize("q", DIFF_QS)
def test_ring_operations_match_fraction_reference(q):
    rng = random.Random(7000 + q)
    for _ in range(200):
        x, y = _pair(rng), _pair(rng)
        sx, sy = QScalar(*x, q), QScalar(*y, q)
        assert_matches(sx, x, q)
        assert_matches(sx + sy, (x[0] + y[0], x[1] + y[1]), q)
        assert_matches(sx - sy, (x[0] - y[0], x[1] - y[1]), q)
        assert_matches(-sx, (-x[0], -x[1]), q)
        assert_matches(sx * sy, ref_mul(x, y, q), q)
        if y[0] ** 2 - q * y[1] ** 2 != 0:
            assert_matches(sy.inverse(), ref_inverse(y, q), q)
            k = rng.randint(-6, 6)
            assert_matches(sy ** k, ref_pow(y, k, q), q)
        else:
            with pytest.raises(InvalidInversion):
                sy.inverse()


@pytest.mark.parametrize("q", DIFF_QS)
def test_mixed_operands_match_fraction_reference(q):
    rng = random.Random(8000 + q)
    for _ in range(100):
        x = _pair(rng)
        sx = QScalar(*x, q)
        c = rng.choice([rng.randint(-9, 9),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        assert_matches(sx + c, (x[0] + c, x[1]), q)
        assert_matches(c + sx, (x[0] + c, x[1]), q)
        assert_matches(sx - c, (x[0] - c, x[1]), q)
        assert_matches(c - sx, (c - x[0], -x[1]), q)
        assert_matches(sx * c, (x[0] * c, x[1] * c), q)
        assert_matches(c * sx, (x[0] * c, x[1] * c), q)


@pytest.mark.parametrize("q", DIFF_QS)
def test_q_half_power_matches_fraction_reference(q):
    for n in range(-9, 10):
        assert_matches(QScalar.q_half_power(n, q), ref_half_power(n, q), q)


@pytest.mark.parametrize("q", DIFF_QS)
def test_canonical_form(q):
    rng = random.Random(9000 + q)
    zero = QScalar.zero(q)
    assert (zero.a, zero.b, zero.d) == (0, 0, 1)
    for _ in range(100):
        x, y = QScalar(*_pair(rng), q), QScalar(*_pair(rng), q)
        diff = x - x
        assert (diff.a, diff.b, diff.d) == (0, 0, 1)
        assert (0 * x).is_zero() and (0 * x) == zero
        # one value reached by different routes has one representation
        for u, v in ((x * y, y * x), ((x + y) - y, x), (x + x, 2 * x)):
            assert (u.a, u.b, u.d, u.q) == (v.a, v.b, v.d, v.q)
            assert hash(u) == hash(v)


@pytest.mark.parametrize("q", DIFF_QS)
def test_json_roundtrip_large_denominators(q):
    rng = random.Random(10000 + q)
    for _ in range(50):
        x = QScalar(Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)),
                    Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)),
                    q)
        for value in (x, x ** 7, x * QScalar.q_half_power(-61, q)):
            back = QScalar.from_json(value.to_json(), q)
            assert back == value
            assert hash(back) == hash(value)
            assert (back.a, back.b, back.d) == (value.a, value.b, value.d)
