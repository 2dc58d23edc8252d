import random
from fractions import Fraction

import pytest

from localzeta import (DivisionByNonUnit, InvalidArgument, Poly, QScalar,
                       RatFn, Series, series_div, series_equal)

from conftest import nonzero_fraction, rq


def _series(vals, q):
    return Series([Fraction(v) for v in vals], q)


def _truncated(p: Poly, order: int) -> Poly:
    """p mod T^(order+1), the part a series of that order determines."""
    return Poly(p.coeffs[: order + 1], p.q)


def _multiplied_back(s: Series, den: Poly) -> Poly:
    return _truncated(Poly(s.coeffs, s.q) * den, s.order)


def test_geometric_series():
    q = 5
    assert series_div(Poly([1], q), Poly([1, -1], q), 5) == _series([1] * 6, q)
    f = RatFn(Poly([1], 3), Poly([1, -1], 3))
    assert f.to_series(3) == _series([1, 1, 1, 1], 3)


def test_exact_cancellation():
    q = 5
    s = series_div(Poly([1, 0, -1], q), Poly([1, -1], q), 3)
    assert s == _series([1, 1, 0, 0], q)


def test_sqrt_division_derived():
    # 1 / (1 - sqrt(q) T) at q = 2: verify by multiplying back
    q = 2
    one = QScalar.one(q)
    root = QScalar.root_q(q)
    num = Poly([one], q)
    den = Poly([one, -root], q)
    s = series_div(num, den, 2)
    assert s.coeffs == (one, root, rq(2, q))
    assert _multiplied_back(s, den) == num


def test_division_by_non_unit():
    q = 4
    bad = Poly([QScalar(2, 1, q), QScalar.one(q)], q)  # norm-zero constant
    with pytest.raises(DivisionByNonUnit):
        series_div(Poly.one(q), bad, 1)
    with pytest.raises(DivisionByNonUnit):
        series_div(Poly.one(q), Poly.zero(q), 1)


def test_series_div_needs_constant_term_one():
    # 2 is a unit, but series_div divides no coefficient
    q = 5
    with pytest.raises(DivisionByNonUnit):
        series_div(Poly.one(q), Poly([2, 1], q), 3)


def test_series_div_order_zero():
    q = 5
    s = series_div(Poly([3, 5], q), Poly([1, 7], q), 0)
    assert s == _series([3], q)
    assert RatFn(Poly([3, 5], q), Poly([1, 7], q)).to_series(0) == s


def test_series_div_order_below_degrees():
    # (1 + T^4) / (1 - T + T^3) to order 2 never reaches T^3 or T^4
    q = 5
    num = Poly([1, 0, 0, 0, 1], q)
    den = Poly([1, -1, 0, 1], q)
    short = series_div(num, den, 2)
    assert short == _series([1, 1, 1], q)
    longer = series_div(num, den, 8)
    assert short.coeffs == longer.coeffs[:3]
    assert _multiplied_back(longer, den) == num


def test_series_div_interior_zero_denominator():
    # (1 + T) / (1 - x T^2) = sum_k x^floor(k/2) T^k, with x irrational
    q = 2
    x = QScalar(Fraction(1, 3), Fraction(1, 2), q)
    den = Poly([1, 0, -x], q)
    s = series_div(Poly([1, 1], q), den, 7)
    assert s.coeffs == tuple(x ** (k // 2) for k in range(8))
    odd = series_div(Poly.one(q), den, 7)
    assert all(odd.coeffs[k].is_zero() for k in range(1, 8, 2))


def test_negative_order_rejected():
    q = 3
    f = RatFn(Poly([1], q), Poly([1, -1], q))
    with pytest.raises(InvalidArgument):
        f.to_series(-1)
    with pytest.raises(InvalidArgument):
        series_div(f.numer, f.denom, -1)


def _geometric_double_pole(c, order):
    # (1 - c T)^-2 = sum (k+1) c^k T^k
    return [(k + 1) * c**k for k in range(order + 1)]


def _convolve(a, b):
    out = [Fraction(0)] * min(len(a), len(b))
    for i in range(len(out)):
        for j in range(i + 1):
            out[i] += a[j] * b[i - j]
    return out


def test_ratfn_to_series_constant():
    q = 3
    f = RatFn(Poly([1], q), Poly([1], q))
    assert f.to_series(4) == _series([1, 0, 0, 0, 0], q)


def test_ratfn_to_series_double_poles_oracle():
    # 1/((1-T/2)^2 (1-T/4)^2): independent convolution oracle
    q = 4
    order = 6
    a = _geometric_double_pole(Fraction(1, 2), order)
    b = _geometric_double_pole(Fraction(1, 4), order)
    expected = _convolve(a, b)
    assert expected[1] == Fraction(3, 2)
    den = (Poly([1, Fraction(-1, 2)], q) * Poly([1, Fraction(-1, 2)], q)
           * Poly([1, Fraction(-1, 4)], q) * Poly([1, Fraction(-1, 4)], q))
    f = RatFn(Poly([1], q), den)
    assert f.to_series(order) == _series(expected, q)


def test_ratfn_with_quadratic_numerator():
    # numerator T^2 terms leave the order-1 coefficient untouched
    q = 4
    den = (Poly([1, Fraction(-1, 2)], q) * Poly([1, Fraction(-1, 2)], q)
           * Poly([1, Fraction(-1, 4)], q) * Poly([1, Fraction(-1, 4)], q))
    f = RatFn(Poly([1, 0, Fraction(-1, 64)], q), den)
    s = f.to_series(1)
    assert s == _series([1, Fraction(3, 2)], q)


def test_series_equal_reports():
    q = 3
    a = _series([1, 1, 1], q)
    assert series_equal(a, a).match
    b = _series([1, 2], q)
    c = _series([1, 3], q)
    report = series_equal(b, c)
    assert not report.match
    assert report.index == 1
    assert report.left == rq(2, q)
    assert report.right == rq(3, q)
    # comparison stops at min order
    assert series_equal(_series([1, 2], q), _series([1, 2, 99], q)).match


def _random_poly(rng, q, degree, unit_constant=False):
    coeffs = [nonzero_fraction(rng) for _ in range(degree + 1)]
    if unit_constant:
        coeffs[0] = Fraction(1)
    return Poly(coeffs, q)


@pytest.mark.parametrize("q", [2, 4, 9])
def test_ratfn_series_multiplies_back(q):
    rng = random.Random(q * 17)
    order = 10
    for _ in range(20):
        f = _random_poly(rng, q, rng.randint(1, 4), unit_constant=True)
        g = _random_poly(rng, q, rng.randint(0, 4))
        s = RatFn(g, f).to_series(order)
        assert _multiplied_back(s, f) == _truncated(g, order)


def test_series_div_inverts_mul():
    rng = random.Random(8)
    q = 7
    order = 9
    for _ in range(20):
        u = Poly([1] + [nonzero_fraction(rng) for _ in range(order)], q)
        v = Poly([nonzero_fraction(rng) for _ in range(order + 1)], q)
        assert series_div(u * v, u, order) == Series(v.coeffs, q)


def test_poly_trimming_and_degree():
    q = 5
    assert Poly([1, 2, 0, 0], q).degree == 1
    assert Poly([], q).degree == -1
    assert Poly([0, 0], q) == Poly([], q)


def test_poly_substitute_scaled():
    q = 4
    p = Poly([1, 2, 3], q)
    c = rq(Fraction(1, 2), q)
    assert p.substitute_scaled(c) == Poly([1, 1, Fraction(3, 4)], q)


def test_poly_eval_and_ratfn_eval():
    q = 4
    p = Poly([1, -1], q)
    t = rq(Fraction(1, 3), q)
    assert p.eval(t) == rq(Fraction(2, 3), q)
    f = RatFn(Poly([1], q), p)
    assert f.eval_at(t) == rq(Fraction(3, 2), q)


def test_ratfn_requires_unit_denominator():
    q = 3
    with pytest.raises(InvalidArgument):
        RatFn(Poly([1], q), Poly([2, 1], q))


def test_series_json():
    q = 2
    s = series_div(Poly([QScalar(1, Fraction(1, 2), q)], q), Poly.one(q), 1)
    assert s.to_json() == [{"rat": "1", "sqrt": "1/2"},
                           {"rat": "0", "sqrt": "0"}]
