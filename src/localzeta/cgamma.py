"""Complex Gamma and digamma via Lanczos approximation with reflection."""

from __future__ import annotations

import cmath
import math

from .errors import InvalidArgument, PoleError

# Lanczos g = 7, n = 9 coefficient set; relative accuracy ~1e-13 on the
# right half-plane.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_POLE_TOL = 1e-12


def _checked(z, name: str) -> complex:
    """z as a complex; InvalidArgument if it is not finite, PoleError if it
    is at or near a nonpositive integer."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidArgument(f"{name} needs a finite argument, got z = {z}")
    r = round(z.real)
    if abs(z.imag) <= _POLE_TOL and r <= 0 and abs(z.real - r) <= _POLE_TOL:
        raise PoleError(f"{name} pole at or near z = {z}")
    return z


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for complex z, reflection formula for Re(z) < 0.5.

    Raises InvalidArgument where the value leaves the double range (Re z
    above about 171.6), and where sin(pi z) does in the reflection (|Im z|
    above about 226).  The power and the exponential of the Lanczos form
    are taken as one exp((z - 1/2) log(z + 13/2) - (z + 13/2)), which fits
    wherever Gamma(z) does.
    """
    z = _checked(z, "Gamma")
    reflect = z.real < 0.5
    w = (1.0 - z if reflect else z) - 1.0  # Lanczos form of Gamma(w + 1)
    try:
        x = _LANCZOS[0]
        for i, c in enumerate(_LANCZOS[1:], start=1):
            x += c / (w + i)
        t = w + 7.5
        g = cmath.exp((w + 0.5) * cmath.log(t) - t)
        g *= math.sqrt(2.0 * math.pi) * x
        if not cmath.isfinite(g):
            raise OverflowError
        if reflect:  # Gamma(z) = pi / (sin(pi z) Gamma(1 - z))
            return math.pi / (cmath.sin(math.pi * z) * g)
        return g
    except OverflowError:
        raise InvalidArgument(
            f"Gamma evaluation overflows the double range at z = {z}") from None


# Bernoulli numbers B_2 .. B_14 for the digamma asymptotic series.
_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0,
)


def digamma(z: complex) -> complex:
    """psi(z) by upward recurrence into the asymptotic regime."""
    z = _checked(z, "digamma")
    acc = 0.0 + 0.0j
    while z.real < 12.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    series = 0.0 + 0.0j
    power = inv2
    for n, b in enumerate(_BERNOULLI, start=1):
        series += b / (2 * n) * power
        power *= inv2
    return acc + cmath.log(z) - 0.5 / z - series


def gamma_selftest(samples: int = 100) -> dict:
    """Recurrence, half-integer and factorial checks on the test strip.

    Returns a report with the worst relative errors; deterministic
    pseudo-random sample points on 0.5 <= Re <= 20, |Im| <= 20.
    """
    import random

    rng = random.Random(20160)
    worst_rec = 0.0
    for _ in range(samples):
        z = complex(rng.uniform(0.5, 20.0), rng.uniform(-20.0, 20.0))
        ratio = complex_gamma(z + 1) / complex_gamma(z)
        worst_rec = max(worst_rec, abs(ratio - z) / abs(z))
    err_half = abs(complex_gamma(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi)
    worst_fact = 0.0
    fact = 1
    for n in range(1, 18):
        fact *= n
        g = complex_gamma(float(n + 1))
        worst_fact = max(worst_fact, abs(g - fact) / fact)
    return {
        "recurrence_max_rel_err": worst_rec,
        "gamma_half_rel_err": err_half,
        "factorial_max_rel_err": worst_fact,
        "samples": samples,
    }
