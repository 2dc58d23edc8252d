import math
import random
from fractions import Fraction

import pytest

from localzeta import QScalar, Series


def rq(x, q):
    """Rational element of the coefficient ring."""
    return QScalar(Fraction(x), 0, q)


def series_of(values, q) -> Series:
    """The series with the given coefficients: QScalars, ints or Fractions."""
    cs = [v if isinstance(v, QScalar) else QScalar(v, 0, q) for v in values]
    return Series(tuple((c.a, c.b, c.d) for c in cs), q)


def embed(x: QScalar) -> Fraction:
    """Exact specialization sqrt(q) -> isqrt(q), for perfect-square q."""
    root = math.isqrt(x.q)
    assert root * root == x.q, "exact embedding needs a perfect-square q"
    return x.rat + x.sqrt * root


def nonzero_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n != 0])
    return Fraction(num, rng.randint(1, 9))


@pytest.fixture
def rng():
    return random.Random(20160)
