"""Polynomials, truncated power series and rational functions over QScalar.

The formal variable is written T throughout; in the zeta-integral modules it
stands for q^(-3s), while the Bessel generating function uses an auxiliary
variable y that gets substituted by a scalar multiple of T later on.
Rational functions are compared by expanding both sides into truncated
series, never by cross-multiplication, so no polynomial gcd over a ring
with zero divisors is ever needed.

Both layers compute on ints standing for (u + v*sqrt(q)) / d, d > 0, with
no gcd in a loop; the ints are this module's alone, but for the roots of an
Euler product.  It takes each root as QScalars to multiply, optionally
inverted, times q^(n/2) for an integer n, and reads it as one triple from
scalars._monomial, so the L-factor modules build no root with QScalar
arithmetic.  A Poly keeps one denominator d, reduced with its pairs by one
gcd per polynomial, so d is the lcm of the reduced coefficients'
denominators (for each prime p, the largest v_p(d) - v_p(g_k) over g_k =
gcd(us[k], vs[k], d) is v_p(d) - min_k v_p(g_k)).  A Series keeps one
unreduced triple per coefficient.
Series division runs on plain ints: with A the numerator's d and D a
divisor of the denominator's d, found by gcds so that D^j clears the
denominator of coefficient j, coefficient k is (u_k + v_k*sqrt(q)) /
(A*D^k) for integers u_k, v_k obeying an integer recurrence, and a twist
multiplies coefficient k by the k-th power of one unit.  Two series are
compared by cross-multiplying the triples, which is exact because sqrt(q)
stays formal, also for a perfect-square q.  A coefficient is put in
canonical QScalar form only when it is read: through coeffs, to_json or
eval, or as the first mismatch of a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DivisionByNonUnit, InvalidArgument, require_int
from .scalars import QScalar, _monomial, _reduced, _scalar, require_q

DEFAULT_ORDER = 12


def require_order(order) -> None:
    """Raise InvalidArgument unless order, a truncation order, is an int
    >= 0."""
    require_int("order", order)
    if order < 0:
        raise InvalidArgument("order must be >= 0")


def _mul(x: tuple[int, int, int], y: tuple[int, int, int],
         q: int) -> tuple[int, int, int]:
    """The product of two triples (u, v, d), each standing for
    (u + v sqrt(q)) / d with d > 0, as an unreduced triple: no gcd."""
    (a, b, d), (c, e, f) = x, y
    return a * c + b * e * q, a * e + b * c, d * f


def _twisted(terms: Iterable[tuple[int, int, int]], unit: QScalar,
             q: int) -> list[tuple[int, int, int]]:
    """terms[k] * unit^k for each k: each triple multiplied once, by unit^k
    carried forward as one triple, no gcd."""
    unit, power = _monomial((unit,), q), (1, 0, 1)
    out = []
    for t in terms:
        out.append(_mul(t, power, q))
        power = _mul(power, unit, q)
    return out


@dataclass(frozen=True, slots=True, init=False)
class Poly:
    """Polynomial with coefficient k = (us[k] + vs[k]*sqrt(q)) / d, in the
    canonical form d > 0, gcd(us, vs, d) = 1, no trailing zero pair, so
    equality and hashing compare ints.  Poly(coeffs, q) takes rational
    values or QScalars, and coeffs gives canonical QScalars back.
    """

    us: tuple[int, ...]
    vs: tuple[int, ...]
    d: int
    q: int

    def __init__(self, coeffs: Iterable, q: int):
        require_q(q)
        cs = [_scalar(c, q) for c in coeffs]
        _poly(*_over_lcm([(c.a, c.b, c.d) for c in cs]), q, self)

    @staticmethod
    def one(q: int) -> "Poly":
        return Poly([1], q)

    @staticmethod
    def zero(q: int) -> "Poly":
        return Poly([], q)

    @property
    def coeffs(self) -> tuple[QScalar, ...]:
        """The coefficients as canonical QScalars, reduced on each read."""
        d, q = self.d, self.q
        return tuple(_reduced(u, v, d, q) for u, v in zip(self.us, self.vs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.us) - 1

    def is_one(self) -> bool:
        return self.d == 1 and self.us == (1,) and self.vs == (0,)

    def __mul__(self, other: "Poly") -> "Poly":
        """The product, by int convolution over the product of the two
        denominators."""
        if not isinstance(other, Poly):
            return NotImplemented
        q = self.q
        if other.q != q:
            raise InvalidArgument(
                f"mixed ambient cardinalities: {q} vs {other.q}")
        if other.is_one():
            return self
        if self.is_one():
            return other
        n = len(self.us) + len(other.us) - 1
        us, vs = [0] * n, [0] * n
        for i, (x, y) in enumerate(zip(self.us, self.vs)):
            if not (x or y):
                continue
            yq = y * q
            for j, (s, t) in enumerate(zip(other.us, other.vs), i):
                us[j] += x * s + yq * t
                vs[j] += x * t + y * s
        return _poly(us, vs, self.d * other.d, q)

    def substitute_scaled(self, c: QScalar) -> "Poly":
        """p(y) -> p(c*T): coefficient k times c^k, by _twisted."""
        d, q = self.d, self.q
        terms = _twisted([(u, v, d) for u, v in zip(self.us, self.vs)], c, q)
        return _poly(*_over_lcm(terms), q)

    def eval(self, t: QScalar) -> QScalar:
        """p(t) by Horner's rule on one unreduced triple, reduced once."""
        q = self.q
        t, acc = _monomial((t,), q), (0, 0, 1)
        for u, v in zip(reversed(self.us), reversed(self.vs)):
            x, y, e = _mul(acc, t, q)
            acc = (x + u * e, y + v * e, e)
        return _reduced(acc[0], acc[1], acc[2] * self.d, q)


def euler_product(roots: Iterable[Sequence], q: int, half_power: int = 0,
                  invert: bool = False, step: int = 1) -> Poly:
    """prod_xs (1 - c T^step) over the roots c = x^(+-1) q^(half_power/2),
    x the product of the values xs and -1 the exponent when invert: the
    inverse of an Euler-product L-factor.  step must be an int >= 1.

    Each root c = (a + b sqrt(q))/e is the unreduced triple (a, b, e) of
    scalars._monomial.  The product is kept as int pairs over one common
    denominator D.  Each root multiplies it by e - (a + b sqrt(q)) T^step
    and D by e, in place from the top down, so the pair at i - step is
    still the old one when the pair at i reads it.  No gcd is taken until
    _poly reduces the finished polynomial.
    """
    require_q(q)
    require_int("step", step)
    if step < 1:
        raise InvalidArgument(f"step must be >= 1, got {step}")
    us, vs, D = [1], [0], 1
    for xs in roots:
        a, b, e = _monomial(xs, q, half_power, invert)
        bq = b * q
        us += [0] * step
        vs += [0] * step
        for i in range(len(us) - 1, -1, -1):
            u, v = us[i] * e, vs[i] * e
            if i >= step:
                x, y = us[i - step], vs[i - step]
                u -= a * x + bq * y
                v -= a * y + b * x
            us[i], vs[i] = u, v
        D *= e
    return _poly(us, vs, D, q)


def _constant_is_one(p: Poly) -> bool:
    """Whether p's constant term is 1: in canonical form, exactly when
    us[0] = d and vs[0] = 0, since sqrt(q) is formal."""
    return p.us[:1] == (p.d,) and p.vs[:1] == (0,)


def _over_lcm(terms: Sequence[tuple]) -> tuple[list[int], list[int], int]:
    """(us, vs, D): terms[k] = (us[k] + vs[k] sqrt(q)) / D, D their lcm."""
    D = lcm(*(d for _, _, d in terms))
    return ([u * (D // d) for u, _, d in terms],
            [v * (D // d) for _, v, d in terms], D)


def _poly(us: list, vs: list, d: int, q: int, p: Optional[Poly] = None):
    """The canonical Poly (us + vs sqrt(q)) / d, d > 0, by one gcd, written
    into p or, skipping the constructor's checks, into a new Poly."""
    while us and not (us[-1] or vs[-1]):
        us.pop()
        vs.pop()
    g = gcd(*us, *vs, d)
    p = object.__new__(Poly) if p is None else p
    object.__setattr__(p, "us", tuple(u // g for u in us))
    object.__setattr__(p, "vs", tuple(v // g for v in vs))
    object.__setattr__(p, "d", d // g)
    object.__setattr__(p, "q", q)
    return p


@dataclass(frozen=True, slots=True, eq=False)
class Series:
    """Power series truncated at a fixed order (inclusive).

    Coefficient k is (u + v*sqrt(q)) / d for (u, v, d) = terms[k], with
    d > 0 and the triple not necessarily reduced; series_div and
    series_twist build the triples with int arithmetic alone.  Equality
    and hashing go by value.  The constructor checks q and each triple;
    series_div and series_twist skip the checks, through _series.
    """

    terms: tuple[tuple[int, int, int], ...]
    q: int

    def __post_init__(self):
        require_q(self.q)
        terms = tuple(self.terms)
        for t in terms:
            # type(x) is int: a bool is not an int
            if not (isinstance(t, tuple) and len(t) == 3
                    and all(type(x) is int for x in t) and t[2] > 0):
                raise InvalidArgument("a series term must be three ints "
                                      f"(u, v, d) with d > 0, got {t!r}")
        object.__setattr__(self, "terms", terms)

    @property
    def coeffs(self) -> tuple[QScalar, ...]:
        """The coefficients as canonical QScalars, reduced on each read."""
        q = self.q
        return tuple(_reduced(u, v, d, q) for u, v, d in self.terms)

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.q == other.q and len(self.terms) == len(other.terms)
                and _first_mismatch(self.terms, other.terms) is None)

    def __hash__(self):
        return hash((self.coeffs, self.q))


def _series(terms: tuple[tuple[int, int, int], ...], q: int) -> Series:
    """The Series of terms, without the constructor's checks: the triples
    come from checked values."""
    s = object.__new__(Series)
    object.__setattr__(s, "terms", terms)
    object.__setattr__(s, "q", q)
    return s


def _first_mismatch(xs, ys) -> Optional[int]:
    """Index of the first pair of terms with different values, over the
    shorter of the two, or None: (u + v√q)/d = (x + y√q)/e exactly when
    u*e = x*d and v*e = y*d, since √q is formal and d, e > 0."""
    for i, ((u, v, d), (x, y, e)) in enumerate(zip(xs, ys)):
        if u * e != x * d or v * e != y * d:
            return i
    return None


@dataclass(frozen=True)
class SeriesComparison:
    """Outcome of comparing two series coefficient by coefficient."""

    match: bool
    index: Optional[int] = None
    left: Optional[QScalar] = None
    right: Optional[QScalar] = None

    def to_json(self):
        if self.match:
            return {"match": True}
        return {
            "match": False,
            "index": self.index,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }


def series_div(num: Poly, den: Poly, order: int) -> Series:
    """Taylor coefficients 0..order of num/den at T = 0.

    den must have constant term 1, as every RatFn denominator has, so no
    coefficient is ever divided; any other den raises DivisionByNonUnit.

    The recurrence out[k] = a_k - sum_j c_j out[k-j] runs on int pairs.
    With A = num.d, the lcm of the denominators of the a_k, and D an int
    such that every D^j c_j is an int pair, out[k] = (u_k + v_k sqrt(q)) /
    (A D^k), where

        u_k + v_k sqrt(q) = A D^k a_k
                            - sum_j (D^j c_j) (u_{k-j} + v_{k-j} sqrt(q))

    and every D^j c_j = D^j (du_j + dv_j sqrt(q)) / den.d is computed once.
    D is found with gcds alone.  With d_j = den.d // gcd(du_j, dv_j, den.d),
    the reduced denominator of c_j, D starts at 1 and, for each nonzero c_j
    in turn, is multiplied by d_j // gcd(d_j, D^j), after which d_j divides
    D^j.  At each prime p that factor raises v_p(D) to at most v_p(d_j), so
    D divides den.d.  It is usually much smaller, since den.d clears every
    c_j by itself while D clears c_j with its j-th power: on Sugano's Q, D
    has about half of den.d's bits.  The sum runs over the nonzero c_j,
    1 <= j <= min(k, deg(den)), only, and a_k is read only while k <=
    deg(num).  The loop takes no gcd and builds no QScalar: the result
    keeps the triples (u_k, v_k, A D^k) unreduced.
    """
    require_order(order)
    q = num.q
    if den.q != q:
        raise InvalidArgument(
            f"mixed ambient cardinalities: {q} vs {den.q}")
    if not _constant_is_one(den):
        raise DivisionByNonUnit(
            "series division needs a denominator with constant term 1")
    du, dv, E = den.us, den.vs, den.d
    nonzero = [j for j in range(1, len(du)) if du[j] or dv[j]]
    # one factor per c_j: at a prime p with v_p(d_j) = e > j v_p(D) = j a,
    # it raises a to a + e - j a <= e, and j times that is at least e
    D = 1
    for j in nonzero:
        dj = E // gcd(du[j], dv[j], E)
        D *= dj // gcd(dj, D ** j)
    # (j, u, v, v*q) of D^j c_j for the nonzero c_j, j >= 1
    den_terms = []
    for j in nonzero:
        Dj = D ** j
        u, v = du[j] * Dj // E, dv[j] * Dj // E
        den_terms.append((j, u, v, v * q))
    au, av, A = num.us, num.vs, num.d
    out: list[tuple[int, int, int]] = []
    Dk = 1  # D^k
    for k in range(order + 1):
        if k < len(au):
            u, v = au[k] * Dk, av[k] * Dk
        else:
            u = v = 0
        for j, cu, cv, cvq in den_terms:
            if j > k:
                break
            x, y, _ = out[k - j]
            u -= cu * x + cvq * y
            v -= cu * y + cv * x
        out.append((u, v, A * Dk))
        Dk *= D
    return _series(tuple(out), q)


def series_equal(a: Series, b: Series) -> SeriesComparison:
    """Compare up to min(order); report the first mismatching coefficient.

    The terms are cross-multiplied, not reduced; only a mismatch is put in
    canonical form, for the report.  Series over different q differ at 0.
    """
    i = 0 if a.q != b.q else _first_mismatch(a.terms, b.terms)
    if i is None:
        return SeriesComparison(True)
    return SeriesComparison(False, i, _reduced(*a.terms[i], a.q),
                            _reduced(*b.terms[i], b.q))


def series_twist(s: Series, unit: QScalar) -> Series:
    """The series with coefficient l equal to s_l * unit^l, by _twisted."""
    return _series(tuple(_twisted(s.terms, unit, s.q)), s.q)


@dataclass(frozen=True, slots=True)
class RatFn:
    """Quotient of polynomials; the denominator constant term must be 1.

    The representation is not required to be reduced: the L-factor
    assemblies routinely produce common factors, which cancel only after
    expansion into series.
    """

    numer: Poly
    denom: Poly

    def __post_init__(self):
        if self.numer.q != self.denom.q:
            raise InvalidArgument("numerator and denominator q mismatch")
        if not _constant_is_one(self.denom):
            raise InvalidArgument("denominator constant term must be 1")

    def to_series(self, order: int = DEFAULT_ORDER) -> Series:
        """Taylor expansion at T = 0."""
        return series_div(self.numer, self.denom, order)

    def eval_at(self, t: QScalar) -> QScalar:
        """Evaluate at a scalar point; the denominator must be invertible there."""
        return self.numer.eval(t) * self.denom.eval(t).inverse()
