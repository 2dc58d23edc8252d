import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from localzeta import (RAMIFIED, RAMIFIED_OTHER, RAMIFIED_PS_UNRAM_ALPHA,
                       STEINBERG_UNRAMIFIED, DivisionByNonUnit, Gl2Local,
                       InvalidArgument, InvalidInversion, Poly, QScalar,
                       RatFn, SatakeParams, Series, newform_value,
                       random_local_instance, series_div, series_equal,
                       zeta_closed_rhs)
from localzeta.gl2 import newform_ratio
from localzeta.errors import Infeasible
from localzeta.series import MAX_ORDER, euler_product, series_twist

from conftest import embed, nonzero_fraction, rq, series_of


def _truncated(p: Poly, order: int) -> Poly:
    """p mod T^(order+1), the part a series of that order determines."""
    return Poly(p.coeffs[: order + 1], p.q)


def _multiplied_back(s: Series, den: Poly) -> Poly:
    return _truncated(Poly(s.coeffs, s.q) * den, s.order)


def test_geometric_series():
    q = 5
    assert series_div(Poly([1], q), Poly([1, -1], q), 5) == series_of([1] * 6, q)
    f = RatFn(Poly([1], 3), Poly([1, -1], 3))
    assert f.to_series(3) == series_of([1, 1, 1, 1], 3)


def test_exact_cancellation():
    q = 5
    s = series_div(Poly([1, 0, -1], q), Poly([1, -1], q), 3)
    assert s == series_of([1, 1, 0, 0], q)


def test_sqrt_division_derived():
    # 1 / (1 - sqrt(q) T) at q = 2: verify by multiplying back
    q = 2
    one = QScalar.one(q)
    root = QScalar(0, 1, q)
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
        series_div(Poly.one(q), Poly([], q), 1)


def test_series_div_needs_constant_term_one():
    # 2 is a unit, but series_div divides no coefficient
    q = 5
    with pytest.raises(DivisionByNonUnit):
        series_div(Poly.one(q), Poly([2, 1], q), 3)


def test_series_div_order_zero():
    q = 5
    s = series_div(Poly([3, 5], q), Poly([1, 7], q), 0)
    assert s == series_of([3], q)
    assert RatFn(Poly([3, 5], q), Poly([1, 7], q)).to_series(0) == s


def test_series_div_order_below_degrees():
    # (1 + T^4) / (1 - T + T^3) to order 2 never reaches T^3 or T^4
    q = 5
    num = Poly([1, 0, 0, 0, 1], q)
    den = Poly([1, -1, 0, 1], q)
    short = series_div(num, den, 2)
    assert short == series_of([1, 1, 1], q)
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


def test_order_past_max_order_is_infeasible():
    # every order in use (at most 96) is far inside the bound; past it the
    # division is refused before any coefficient is computed
    q = 3
    f = RatFn(Poly([1], q), Poly([1, -1], q))
    assert len(f.to_series(MAX_ORDER).coeffs) == MAX_ORDER + 1
    for order in (MAX_ORDER + 1, 10**40):
        with pytest.raises(Infeasible, match=f"at most {MAX_ORDER}"):
            f.to_series(order)


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
    assert f.to_series(4) == series_of([1, 0, 0, 0, 0], q)


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
    assert f.to_series(order) == series_of(expected, q)


def test_ratfn_with_quadratic_numerator():
    # numerator T^2 terms leave the order-1 coefficient untouched
    q = 4
    den = (Poly([1, Fraction(-1, 2)], q) * Poly([1, Fraction(-1, 2)], q)
           * Poly([1, Fraction(-1, 4)], q) * Poly([1, Fraction(-1, 4)], q))
    f = RatFn(Poly([1, 0, Fraction(-1, 64)], q), den)
    s = f.to_series(1)
    assert s == series_of([1, Fraction(3, 2)], q)


def test_series_equal_reports():
    q = 3
    a = series_of([1, 1, 1], q)
    assert series_equal(a, a).match
    b = series_of([1, 2], q)
    c = series_of([1, 3], q)
    report = series_equal(b, c)
    assert not report.match
    assert report.index == 1
    assert report.left == rq(2, q)
    assert report.right == rq(3, q)
    # comparison stops at min order
    assert series_equal(series_of([1, 2], q), series_of([1, 2, 99], q)).match


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
        assert series_div(u * v, u, order) == series_of(v.coeffs, q)


def test_poly_trimming_and_degree():
    q = 5
    assert Poly([1, 2, 0, 0], q).degree == 1
    assert Poly([], q).degree == -1
    assert Poly([0, 0], q) == Poly([], q)
    # the zero polynomial has one form, however it is reached
    for zero in (Poly([], q), Poly([0, 0], q), Poly([1, 2], q) * Poly([], q)):
        assert (zero.us, zero.vs, zero.d) == ((), (), 1)


def test_poly_coefficients_follow_the_qscalar_rule():
    # a bool or a float is not a rational value, as for QScalar itself
    for bad in (True, 0.5):
        with pytest.raises(InvalidArgument):
            QScalar(bad, 0, 5)
        with pytest.raises(InvalidArgument):
            Poly([bad, 1], 5)
    assert Poly(["1/2", 3], 5) == Poly([Fraction(1, 2), 3], 5)


@pytest.mark.parametrize("q", [None, 1, 0, -3, 2.5, True])
def test_poly_checks_q_as_qscalar_does(q):
    # also where no coefficient is built to check it
    with pytest.raises(InvalidArgument):
        QScalar(1, 0, q)
    with pytest.raises(InvalidArgument):
        Poly([], q)
    with pytest.raises(InvalidArgument):
        euler_product([], q)


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


# ---------------------------------------------------------------------------
# Differential checks of the integer kernels against schoolbook QScalar code
# ---------------------------------------------------------------------------

def _schoolbook_div(num: Poly, den: Poly, order: int) -> list[QScalar]:
    """out[k] = a_k - sum_j d_j out[k-j], one QScalar operation at a time."""
    zero = QScalar.zero(num.q)
    out = []
    for k in range(order + 1):
        acc = num.coeffs[k] if k < len(num.coeffs) else zero
        for j in range(1, min(k, den.degree) + 1):
            acc = acc - den.coeffs[j] * out[k - j]
        out.append(acc)
    return out


def _random_scalar(rng, q, p_zero=0.0, p_sqrt=0.6):
    if rng.random() < p_zero:
        return QScalar.zero(q)
    sqrt = nonzero_fraction(rng) if rng.random() < p_sqrt else 0
    return QScalar(nonzero_fraction(rng), sqrt, q)


def _fields(xs):
    return [(x.a, x.b, x.d) for x in xs]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 13])
def test_series_div_matches_schoolbook(q):
    rng = random.Random(1000 + q)
    top = 60
    for trial in range(6):
        step = 1 + trial % 2
        # step 2: only even powers of T, so every other d_j is zero
        den = [QScalar.one(q)] + [
            _random_scalar(rng, q) if j % step == 0 else QScalar.zero(q)
            for j in range(1, rng.randint(1, 4) * step + 1)]
        den = Poly(den, q)
        # num runs past `top` on some trials and has interior zeros
        num = Poly([_random_scalar(rng, q, p_zero=0.3)
                    for _ in range(rng.choice([1, 5, top + 7]))], q)
        want = _fields(_schoolbook_div(num, den, top))
        for order in range(top + 1):
            got = series_div(num, den, order)
            assert got.order == order
            assert _fields(got.coeffs) == want[:order + 1]


def _checked_scale(num: Poly, den: Poly, order: int) -> int:
    """The scale D of series_div, read from term 1 of an order-1 division,
    after checking series_div(num, den, order) against it: term k has
    denominator A*D^k, A the lcm of num's reduced denominators, D divides
    den.d, D^j c_j is integral for every coefficient c_j of den, and the
    values are the schoolbook ones."""
    A = math.lcm(*(c.d for c in num.coeffs))
    D, r = divmod(series_div(num, den, 1).terms[1][2], A)
    assert r == 0
    assert den.d % D == 0
    assert all(D ** j % c.d == 0 for j, c in enumerate(den.coeffs))
    got = series_div(num, den, order)
    assert [d for _, _, d in got.terms] == [A * D ** k
                                            for k in range(order + 1)]
    assert _fields(got.coeffs) == _fields(_schoolbook_div(num, den, order))
    return D


def _sugano_q(q: int) -> Poly:
    """Sugano's Q at q for Satake parameters with denominators 5, 3 and 7,
    the first and third with sqrt(q) parts, and the fourth from the
    pairing."""
    g1, g2, g3 = (QScalar(1, Fraction(1, 5), q), rq(Fraction(4, 3), q),
                  QScalar(Fraction(1, 7), 1, q))
    return SatakeParams([g1, g2, g3, g1 * g3 * g2.inverse()], q).Q


@pytest.mark.parametrize("q", [2, 3, 4, 9, 13])
def test_series_div_denominators_are_A_times_D_to_the_k(q):
    # the speed of series_div rests on this: term k's denominator is
    # A*D^k, for A the lcm of the reduced denominators of num's
    # coefficients and D a divisor of den.d with every D^j c_j integral
    rng = random.Random(5000 + q)
    order = 16
    for trial in range(12):
        # step 2 and 3 leave zero middle coefficients in den
        step = 1 + trial % 3
        den = euler_product([(_random_scalar(rng, q) * Fraction(1, d),)
                             for d in rng.sample(range(2, 10), 3)], q,
                            step=step)
        num = Poly(_random_coeffs(rng, q, rng.randint(1, 6)), q)
        assert len({c.d for c in den.coeffs}) >= 3  # mixed denominators
        _checked_scale(num, den, order)
    # Q's top coefficient carries every root's denominator, which D^4
    # clears with a fourth power
    Q = _sugano_q(q)
    assert len({g.d for g in Q.coeffs}) >= 4  # mixed denominators
    assert _checked_scale(Poly.one(q), Q, order) < Q.d


@pytest.mark.parametrize("label", ["large-prime", "step-2", "step-3", "q4",
                                   "q9", "order-0", "long-numerator",
                                   "cancelling-closed-form"])
def test_series_div_scale_edge_cases(label):
    q, order = 5, 20
    num = Poly([1, QScalar(2, Fraction(1, 3), q), Fraction(-5, 6)], q)
    if label == "large-prime":
        big = 1000003
        den = Poly([1, Fraction(-1, big), 0, QScalar(3, Fraction(1, big), q)],
                   q)
        # every nonzero c_j has denominator big: nothing shrinks
        assert _checked_scale(num, den, order) == den.d == big
        return
    if label in ("step-2", "step-3"):
        step = int(label[-1])
        den = euler_product([(rq(Fraction(2, 3), q),),
                             (QScalar(Fraction(1, 5), Fraction(1, 7), q),)],
                            q, step=step)
        assert all(c == 0 for j, c in enumerate(den.coeffs) if j % step)
    elif label in ("q4", "q9"):
        q = int(label[1:])
        num, den = Poly([QScalar(1, 1, q), Fraction(1, 2)], q), _sugano_q(q)
    elif label == "order-0":
        den, order = _sugano_q(q), 0
    elif label == "long-numerator":
        den, order = _sugano_q(q), 3
        num = Poly([QScalar(k, Fraction(1, k + 2), q) for k in range(1, 11)],
                   q)
    else:
        # Case 2 with beta chi unramified over a ramified extension: chi and
        # the _beta_units triple factor are in both num and den
        q, order = 7, 24
        inst = random_local_instance(random.Random(q), RAMIFIED_PS_UNRAM_ALPHA,
                                     RAMIFIED, beta_chi_unramified=True, q=q)
        f = zeta_closed_rhs(inst)
        num, den = f.numer, f.denom
    _checked_scale(num, den, order)


def _full_fields(xs):
    return [(x.a, x.b, x.d, x.q) for x in xs]


def _perturbed(s: Series, rng, p: float):
    """s with each term moved, with probability p, by one of c -> c + 1,
    c -> c + sqrt(q) and c -> c + r - sqrt(q), r = isqrt(q); the last
    leaves the value of c unchanged when sqrt(q) is read as the integer r.
    Returns the new series and the first moved index, or None."""
    r = math.isqrt(s.q)
    terms, first = [], None
    for k, (u, v, d) in enumerate(s.terms):
        if rng.random() < p:
            first = k if first is None else first
            du, dv = rng.choice([(1, 0), (0, 1), (r, -1)])
            u, v = u + du * d, v + dv * d
        terms.append((u, v, d))
    return Series(tuple(terms), s.q), first


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 13])
def test_unreduced_series_against_reducing_reference(q):
    rng = random.Random(3000 + q)
    for _ in range(12):
        den = Poly([QScalar.one(q)] + [_random_scalar(rng, q, p_zero=0.3)
                                       for _ in range(rng.randint(1, 4))], q)
        num = Poly([_random_scalar(rng, q, p_zero=0.3)
                    for _ in range(rng.randint(1, 6))], q)
        order = rng.randint(0, 40)
        s = series_div(num, den, order)
        want = _schoolbook_div(num, den, order)
        assert _full_fields(s.coeffs) == _full_fields(want)
        reference = series_of(want, q)
        assert series_equal(s, reference).match

        # the same values at other scalings: equal, with equal hashes
        ks = [rng.randint(1, 10**6) for _ in s.terms]
        scaled = Series(tuple(
            (u * k, v * k, d * k) for (u, v, d), k in zip(s.terms, ks)), q)
        assert scaled == s == reference
        assert hash(scaled) == hash(s) == hash(reference)
        assert _full_fields(scaled.coeffs) == _full_fields(want)

        # series_equal agrees with coefficient-wise QScalar equality
        moved, first = _perturbed(s, rng, 0.1)
        report = series_equal(s, moved)
        unequal = [k for k, (a, b) in enumerate(zip(want, moved.coeffs))
                   if a != b]
        assert report.match == (first is None) == (unequal == [])
        assert (moved == s) == report.match
        if first is not None:
            assert report.index == first == unequal[0]
            assert report.left == want[first]
            assert report.right == moved.coeffs[first]
        # a shorter series is compared over its own order
        assert series_equal(series_of(want[:1], q), s).match


@pytest.mark.parametrize("q", [4, 9])
def test_series_equal_keeps_sqrt_formal_at_square_q(q):
    # c and c + r - sqrt(q), r = isqrt(q), agree once sqrt(q) is read as r;
    # c and c + sqrt(q) differ in the sqrt(q) part alone
    x = QScalar(Fraction(2, 3), Fraction(-5, 7), q)
    shifted = x + math.isqrt(q) - QScalar(0, 1, q)
    assert embed(shifted) == embed(x)
    for y in (shifted, x + QScalar(0, 1, q)):
        a, b = series_of([1, x], q), series_of([1, y], q)
        report = series_equal(a, b)
        assert not report.match and report.index == 1
        assert (report.left, report.right) == (x, y)
        assert a != b
    # the same ints over another q are another value
    other = series_of([1], q + 1)
    assert series_equal(series_of([1], q), other).index == 0
    assert series_of([1], q) != other


def test_series_div_non_unit_with_sqrt_parts():
    q = 13
    one = QScalar.one(q)
    for c0 in (QScalar(1, 1, q), QScalar(0, 1, q),
               QScalar(Fraction(1, 2), 0, q)):
        den = Poly([c0, QScalar(2, Fraction(1, 3), q), QScalar(0, 5, q)], q)
        with pytest.raises(DivisionByNonUnit):
            series_div(Poly([one, one], q), den, 60)


def test_series_div_rejects_mixed_q():
    with pytest.raises(InvalidArgument, match="mixed"):
        series_div(Poly([1], 2), Poly([1, 1], 3), 2)


def _reps(q, rng):
    def draw():
        return _random_scalar(rng, q)

    return [
        Gl2Local(RAMIFIED_OTHER, q, omega_tau_varpi=draw(), conductor_exp=2),
        Gl2Local(RAMIFIED_PS_UNRAM_ALPHA, q, alpha_varpi=draw(),
                 beta_varpi=draw(), conductor_exp=1),
        Gl2Local(STEINBERG_UNRAMIFIED, q, omega_varpi=draw()),
    ]


@pytest.mark.parametrize("q", [2, 4, 7])
def test_newform_values_match_newform_value(q):
    rng = random.Random(70 + q)
    for rep in _reps(q, rng):
        ratio = newform_ratio(rep)
        assert _fields([ratio ** l for l in range(49)]) == _fields(
            [newform_value(rep, l) for l in range(49)])


@pytest.mark.parametrize("q", [2, 4, 9, 13])
def test_series_twist_matches_schoolbook(q):
    rng = random.Random(110 + q)
    units = [QScalar(Fraction(-3, 7), 0, q),
             _random_scalar(rng, q, p_sqrt=1.0), QScalar.zero(q)]
    assert units[1].b != 0
    for unit in units:
        cs = [_random_scalar(rng, q, p_zero=0.2) for _ in range(25)]
        # unreduced triples, as series_div leaves them
        s = Series(tuple((c.a * k, c.b * k, c.d * k)
                         for k, c in enumerate(cs, 1)), q)
        got = series_twist(s, unit)
        assert got.order == 24
        assert _fields(got.coeffs) == _fields(
            [c * unit ** l for l, c in enumerate(cs)])


def test_twist_checks_the_units_q():
    unit = QScalar(0, 1, 7)
    with pytest.raises(InvalidArgument, match="mixed"):
        series_twist(series_of([1, 1], 5), unit)
    with pytest.raises(InvalidArgument, match="mixed"):
        Poly([1, 1], 5).substitute_scaled(unit)


@pytest.mark.parametrize("terms, q", [
    (((1, 0, 0),), 1),                   # q by QScalar's rule
    (((1, 0, 1),), 5.0),
    (((1, 0, 0),), 5),                   # a zero denominator
    (((2, 0, -3),), 5),                  # a negative one
    (((True, 0, 1),), 5),                # a bool is not an int
    (((Fraction(1, 2), 0, 1),), 5),
    (((1, 0),), 5),                      # not a triple
    (([1, 0, 1],), 5),
    ((1, 0, 1), 5),
], ids=["q1", "q-float", "d0", "d-negative", "bool", "fraction", "pair",
        "list", "flat"])
def test_series_checks_its_terms(terms, q):
    with pytest.raises(InvalidArgument):
        Series(terms, q)


def test_series_keeps_its_terms_as_a_tuple():
    s = Series([(2, 0, 6), (0, -3, 9)], 5)
    assert s.terms == ((2, 0, 6), (0, -3, 9))
    assert s.coeffs == (QScalar("1/3", 0, 5), QScalar(0, "-1/3", 5))
    assert s == series_of([Fraction(1, 3), QScalar(0, "-1/3", 5)], 5)


@pytest.mark.parametrize("q", [2, 3, 9])
def test_poly_euler_matches_product_of_factors(q):
    rng = random.Random(90 + q)
    for step in (1, 2, 3):
        for n in range(6):
            cs = [_random_scalar(rng, q, p_zero=0.2) for _ in range(n)]
            gap = [0] * (step - 1)
            factors = [Poly([1, *gap, -c], q) for c in cs]
            want = reduce(Poly.__mul__, factors, Poly.one(q))
            got = euler_product([(c,) for c in cs], q, step=step)
            assert _fields(got.coeffs) == _fields(want.coeffs)
    assert euler_product([(Fraction(1, 2),), (3,)], q) == \
        Poly([1, Fraction(-7, 2), Fraction(3, 2)], q)


@pytest.mark.parametrize("step", [0, -1, 1.5, True, "2", None])
def test_euler_checks_its_step(step):
    # -1 raised a bare IndexError, 1.5 a TypeError, and True was read as 1
    q = 5
    for cs in ([], [QScalar(1, 1, q)]):
        with pytest.raises(InvalidArgument, match="step"):
            euler_product([(c,) for c in cs], q, step=step)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_euler_product_matches_schoolbook_roots(q):
    # each root multiplied, inverted and scaled one QScalar operation at a
    # time, then euler_product with each root one value, and the schoolbook
    # expansion over those roots; the factors are QScalars, with and without
    # sqrt(q) parts, and plain Fractions
    rng = random.Random(700 + q)

    def factor():
        if rng.random() < 0.2:
            return nonzero_fraction(rng)
        return _random_scalar(rng, q, p_zero=0.05)

    for half_power in range(-8, 4):
        scale = QScalar.q_half_power(half_power, q)
        for invert in (False, True):
            for step in (1, 2):
                roots = [[factor() for _ in range(rng.randint(0, 3))]
                         for _ in range(rng.randint(0, 4))]
                xs = [reduce(lambda x, y: x * y, r, QScalar.one(q))
                      for r in roots]
                if invert and any(x.a * x.a == q * x.b * x.b for x in xs):
                    # a zero or, at q = 4 and 9, a zero divisor
                    with pytest.raises(InvalidInversion):
                        euler_product(roots, q, half_power, invert, step)
                    continue
                cs = [(x.inverse() if invert else x) * scale for x in xs]
                got = euler_product(roots, q, half_power, invert, step)
                want = euler_product([(c,) for c in cs], q, step=step)
                assert (got.us, got.vs, got.d, got.q) == \
                    (want.us, want.vs, want.d, want.q)
                assert _full_fields(got.coeffs) == \
                    _full_fields(_schoolbook_euler(cs, q, step))
                _assert_canonical(got)


def test_constant_term_one_is_read_from_the_ints():
    q = 5
    one = Poly.one(q)
    for den in (Poly([], q), Poly([2], q), Poly([QScalar(0, 1, q)], q)):
        with pytest.raises(InvalidArgument,
                           match="^denominator constant term must be 1$"):
            RatFn(one, den)
        with pytest.raises(DivisionByNonUnit,
                           match="^series division needs a denominator "
                                 "with constant term 1$"):
            series_div(one, den, 3)
    # constant term 2/2: d = 2 is no obstacle
    den = Poly([1, Fraction(1, 2)], q)
    assert (den.us, den.vs, den.d) == ((2, 1), (0, 0), 2)
    want = series_of([Fraction(-1, 2) ** k for k in range(4)], q)
    assert RatFn(one, den).to_series(3) == want
    assert series_div(one, den, 3) == want


# ---------------------------------------------------------------------------
# The int-backed Poly operations against schoolbook QScalar code
# ---------------------------------------------------------------------------

def _schoolbook_product(xs, ys, q) -> list[QScalar]:
    """Convolution of two coefficient lists, one QScalar operation at a
    time, with trailing zeros trimmed."""
    if not xs or not ys:
        return []
    out = [QScalar.zero(q)] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] = out[i + j] + a * b
    while out and out[-1].is_zero():
        out.pop()
    return out


def _schoolbook_euler(cs, q, step) -> list[QScalar]:
    out = [QScalar.one(q)]
    for c in cs:
        out = _schoolbook_product(
            out, [QScalar.one(q)] + [QScalar.zero(q)] * (step - 1) + [-c], q)
    return out


def _random_coeffs(rng, q, n):
    return [_random_scalar(rng, q, p_zero=0.3) for _ in range(n)]


def _assert_canonical(p: Poly):
    """p's ints are in canonical form, over the lcm of its reduced
    coefficients' denominators, and p is rebuilt from its coefficients."""
    assert p.d > 0 and math.gcd(*p.us, *p.vs, p.d) == 1
    assert len(p.us) == len(p.vs)
    assert not p.us or p.us[-1] or p.vs[-1]
    assert p.d == math.lcm(*(c.d for c in p.coeffs))
    back = Poly(p.coeffs, p.q)
    assert back == p and hash(back) == hash(p)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 13])
def test_poly_operations_match_schoolbook(q):
    # zero coefficients, sqrt(q) parts, mixed denominators, and at q = 4
    # and 9 products of nonzero elements that vanish, as
    # (2 + sqrt(4))(2 - sqrt(4)) does
    rng = random.Random(4000 + q)
    r = math.isqrt(q)
    for trial in range(40):
        cs = _random_coeffs(rng, q, rng.randint(0, 5))
        if r * r == q and trial % 4 == 0:
            cs += [QScalar(r, 1, q), QScalar(r, -1, q)]
        eulers = []
        for step in (1, 2, 3):
            got = euler_product([(c,) for c in cs], q, step=step)
            want = _schoolbook_euler(cs, q, step)
            assert _full_fields(got.coeffs) == _full_fields(want)
            assert got == Poly(want, q) and hash(got) == hash(Poly(want, q))
            _assert_canonical(got)
            eulers.append(got)

        a = Poly(_random_coeffs(rng, q, rng.randint(0, 6)), q)
        b = Poly(_random_coeffs(rng, q, rng.randint(0, 6)), q)
        e = eulers[trial % 3]
        for x, y in ((a, b), (eulers[0], eulers[2]), (e, a)):
            want = _schoolbook_product(x.coeffs, y.coeffs, q)
            assert _full_fields((x * y).coeffs) == _full_fields(want)
            assert _full_fields((y * x).coeffs) == _full_fields(want)
            _assert_canonical(x * y)

        c, t = _random_scalar(rng, q, p_zero=0.1), _random_scalar(rng, q)
        for p in (a, e, e * b):
            power, scaled = QScalar.one(q), []
            for x in p.coeffs:
                scaled.append(x * power)
                power = power * c
            while scaled and scaled[-1].is_zero():
                scaled.pop()
            assert _full_fields(p.substitute_scaled(c).coeffs) == \
                _full_fields(scaled)
            _assert_canonical(p.substitute_scaled(c))

            acc = QScalar.zero(q)
            for x in reversed(p.coeffs):
                acc = acc * t + x
            got = p.eval(t)
            assert (got.a, got.b, got.d, got.q) == (acc.a, acc.b, acc.d, acc.q)


def test_poly_product_checks_its_operand():
    with pytest.raises(InvalidArgument, match="mixed"):
        Poly([1, 1], 2) * Poly([1, 1], 3)
    with pytest.raises(TypeError):
        Poly([1, 1], 2) * 3
    one, p = Poly.one(5), Poly([1, Fraction(1, 2)], 5)
    assert p * one == one * p == p
    assert (p * Poly([], 5)).degree == -1
