"""Exact and numerical verification of local zeta integrals, L-factors and
special-value constants for GSp(4) x GL(2)."""

from .bessel import (INERT, RAMIFIED, SPLIT, BesselDatum, SatakeParams,
                     bessel_coeffs, sugano_H, sugano_Q)
from .errors import (DivergentParameters, DivisionByNonUnit, Infeasible,
                     InvalidArgument, InvalidBesselDatum, InvalidInversion,
                     LocalZetaError, PoleError, QuadratureError, Unsupported,
                     UnsupportedCase, UnsupportedParameters)
from .gl2 import (RAMIFIED_OTHER, RAMIFIED_PS_UNRAM_ALPHA,
                  STEINBERG_UNRAMIFIED, UNRAMIFIED_PS, Gl2Local,
                  induced_invariant_dim, newform_space_dim, newform_value,
                  newform_values)
from .scalars import QScalar
from .series import (DEFAULT_ORDER, Poly, RatFn, Series, SeriesComparison,
                     series_div, series_equal)
from .zeta import (LocalInstance, VerificationReport, euler_chi,
                   euler_pairing, euler_triple, hq_substituted,
                   random_local_instance, unramified_closed, verify_local,
                   y_factor, zeta_closed_rhs, zeta_series_lhs)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
