"""Exception types shared across the package, and the integer-input check."""


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
    """Enumeration would exceed the configured resource limits."""


class PoleError(LocalZetaError, ArithmeticError):
    """Gamma evaluation too close to a pole."""


class UnsupportedParameters(LocalZetaError, ValueError):
    """Whittaker parameters outside both supported evaluation regimes."""


class QuadratureError(LocalZetaError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class DivergentParameters(LocalZetaError, ValueError):
    """Archimedean parameters violating the convergence condition."""


def require_int(name: str, value) -> None:
    """Raise InvalidArgument unless value is an int (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
