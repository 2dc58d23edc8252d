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


def sqrt_unit(rng: random.Random, q: int) -> QScalar:
    """An invertible (a + b sqrt(q))/d with a, b != 0, redrawn while its norm
    a^2 - q b^2 vanishes, which only a perfect-square q allows."""
    while True:
        x = QScalar(nonzero_fraction(rng), nonzero_fraction(rng), q)
        if x.a * x.a != q * x.b * x.b:
            return x


@pytest.fixture
def rng():
    return random.Random(20160)
