"""Exception types shared across the package, and the input-value checks."""

import cmath
import math


class LocalZetaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInversion(LocalZetaError, ZeroDivisionError):
    """Inversion of a quadratic-ring element whose norm vanishes."""


class DivisionByNonUnit(LocalZetaError, ZeroDivisionError):
    """Series division by a series whose constant term is not invertible."""


class InvalidBesselDatum(LocalZetaError, ValueError):
    """Bessel datum violating the per-case character constraints."""


class InvalidArgument(LocalZetaError, ValueError):
    """Argument outside the documented domain of an operation."""


class UnsupportedCase(LocalZetaError):
    """Operation called on a representation kind it does not cover."""


class Unsupported(LocalZetaError, ValueError):
    """Finite-field parameter outside the supported range."""


class Infeasible(LocalZetaError, RuntimeError):
    """Work past a documented bound: an enumeration or a series order."""


class PoleError(LocalZetaError, ArithmeticError):
    """Gamma evaluation too close to a pole."""


class UnsupportedParameters(LocalZetaError, ValueError):
    """Whittaker parameters outside both supported evaluation regimes."""


class QuadratureError(LocalZetaError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class DivergentParameters(LocalZetaError, ValueError):
    """Archimedean parameters violating the convergence condition."""


def brief(value) -> str:
    """repr(value) for an error message, but an int of 20 digits or more,
    also inside a list, is named by its digit count."""
    if isinstance(value, list):
        return f"[{', '.join(map(brief, value))}]"
    if isinstance(value, int) and abs(value) >= 10**20:
        k = math.floor(math.log10(abs(value))) + 1
        if 10 ** (k - 1) > abs(value):  # log10 rounded up to a power of ten
            k -= 1
        return f"a {k}-digit integer"
    return repr(value)


def require_int(name: str, value) -> None:
    """Raise InvalidArgument unless value is an int (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")


def require_object(name: str, obj, error=InvalidArgument) -> None:
    """Raise error unless obj is a JSON object (a dict), so that a string
    or a list is not indexed or searched as if it were one."""
    if not isinstance(obj, dict):
        raise error(f"{name} must be a JSON object")


def require_known_keys(name: str, obj, known, error=InvalidArgument) -> None:
    """Raise error unless obj is a JSON object, and name each of its keys
    outside known, so that a misspelt optional key is refused rather than
    read as absent."""
    require_object(name, obj, error)
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise error(f"{name} has unknown key{'s' * (len(unknown) > 1)} "
                    f"{', '.join(map(repr, unknown))}; it takes "
                    f"{', '.join(known)}")


def require_complex(name: str, value) -> complex:
    """Decode a JSON complex value: a finite number or a list [re, im] of
    exactly two.  Anything else raises InvalidArgument (a bool is not a
    number)."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        try:
            z = complex(*parts)
            if cmath.isfinite(z):
                return z
        except OverflowError:  # an int too large for a float
            pass
    raise InvalidArgument(
        f"{name} must be a finite number or [re, im], got {brief(value)}")
