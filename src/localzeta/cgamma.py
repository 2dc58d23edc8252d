"""Complex log Gamma and Gamma by Lanczos with reflection."""

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
# exp(x) is a normal double for x in [EXP_FLOOR, EXP_CEIL]: -708.3964, 709.7827
EXP_FLOOR, EXP_CEIL = -708.39, 709.78


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


def log_gamma(z: complex) -> complex:
    """log Gamma(z), imaginary part right only mod 2 pi: callers exponentiate.

    Lanczos in log form for Re z >= 1/2, else log pi - log sin(pi z) -
    log Gamma(1 - z) (DLMF 5.5.3); no step overflows for finite z.  Its
    absolute error, |log Gamma| eps (1e-13 at 800), is exp's relative one.
    """
    z = _checked(z, "Gamma")
    if z.real < 0.5:
        # sigma = sign(Im z), so neither exponential in log sin(pi z) grows
        sigma = 1.0 if z.imag >= 0 else -1.0
        iz = 1j * sigma * math.pi * z
        log_sin = -iz + cmath.log((1.0 - cmath.exp(2.0 * iz)) * (0.5j * sigma))
        return math.log(math.pi) - log_sin - log_gamma(1.0 - z)
    w = z - 1.0  # Lanczos form of Gamma(w + 1)
    x = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        x += c / (w + i)
    t = w + 7.5
    return (w + 0.5) * cmath.log(t) - t + cmath.log(math.sqrt(2 * math.pi) * x)


def exp_in_range(log_value: complex, what: str, name: str, value) -> complex:
    """exp(log_value), or InvalidArgument where it is not a normal double."""
    if not EXP_FLOOR <= log_value.real <= EXP_CEIL:
        raise InvalidArgument(
            f"{what} leaves the double range at {name} = {value}")
    return cmath.exp(log_value)


def complex_gamma(z: complex) -> complex:
    """exp(log_gamma(z)); InvalidArgument where it is not a normal double."""
    return exp_in_range(log_gamma(z), "Gamma", "z", complex(z))


_SELFTEST_SAMPLES = 100  # recurrence points on the test strip


def gamma_selftest() -> dict:
    """Recurrence, half-integer and factorial checks on the test strip.

    Returns a report with the worst relative errors; deterministic
    pseudo-random sample points on 0.5 <= Re <= 20, |Im| <= 20.
    """
    import random

    rng = random.Random(20160)
    worst_rec = 0.0
    for _ in range(_SELFTEST_SAMPLES):
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
        "samples": _SELFTEST_SAMPLES,
    }
