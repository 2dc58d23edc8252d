"""Local GL(2) data: newform Whittaker values and invariant-space dimensions.

A generic irreducible representation tau of GL(2) over a p-adic field falls
into one of four explicit cases for the values of its normalized newform at
diag(varpi^l, 1).  Together with the conductor exponent n these are all the
GL(2) inputs the zeta-integral computation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (InvalidArgument, UnsupportedCase, require_int,
                     require_known_keys)
from .scalars import QScalar, require_unit

# Representation kinds.
UNRAMIFIED_PS = "UnramifiedPS"                 # alpha x beta, both unramified
RAMIFIED_PS_UNRAM_ALPHA = "RamifiedPSUnramAlpha"  # alpha unram., beta ram.
STEINBERG_UNRAMIFIED = "SteinbergUnramified"   # Omega St, Omega unramified
RAMIFIED_OTHER = "RamifiedOther"               # supercuspidal / ram. twist St /
                                               # principal series both ramified

# JSON key of each value at varpi that a kind may be given
_KEYS = {"alpha_varpi": "alpha", "beta_varpi": "beta",
         "omega_varpi": "omega", "omega_tau_varpi": "omega_tau"}
# kind -> the values at varpi it is given; omega_tau_varpi is derived from
# them where it is not given
GIVEN = {
    UNRAMIFIED_PS: ("alpha_varpi", "beta_varpi"),
    RAMIFIED_PS_UNRAM_ALPHA: ("alpha_varpi", "beta_varpi"),
    STEINBERG_UNRAMIFIED: ("omega_varpi",),
    RAMIFIED_OTHER: ("omega_tau_varpi",),
}
KINDS = tuple(GIVEN)  # membership by ==, so a JSON list or object is no kind
# kind -> the conductor exponent it fixes; every other kind is given one >= 1
CONDUCTOR = {UNRAMIFIED_PS: 0, STEINBERG_UNRAMIFIED: 1}


def require_beta_flag(kind, beta_chi_unramified) -> None:
    """Raise InvalidArgument unless beta_chi_unramified is a bool, and true
    only for RamifiedPSUnramAlpha."""
    if not isinstance(beta_chi_unramified, bool):
        raise InvalidArgument("beta_chi_unramified must be a boolean, "
                              f"got {beta_chi_unramified!r}")
    if beta_chi_unramified and kind != RAMIFIED_PS_UNRAM_ALPHA:
        raise InvalidArgument(f"{kind} takes no beta_chi_unramified")


@dataclass(frozen=True, slots=True)
class Gl2Local:
    """Tagged local GL(2) representation datum.

    Stored character values are the values at the uniformizer; they are
    well-defined nonzero numbers even when the character itself is
    ramified (beta in the RamifiedPSUnramAlpha case).  A kind takes exactly
    its values in GIVEN, and only RamifiedPSUnramAlpha takes
    beta_chi_unramified; any other value is an InvalidArgument.
    omega_tau_varpi and conductor_exp are derived from the kind where it
    fixes them, and are then accepted only when they equal the derived value.
    """

    kind: str
    q: int
    alpha_varpi: Optional[QScalar] = None
    beta_varpi: Optional[QScalar] = None
    omega_varpi: Optional[QScalar] = None
    omega_tau_varpi: Optional[QScalar] = None
    conductor_exp: Optional[int] = None
    beta_chi_unramified: bool = False

    def __post_init__(self):
        kind, q = self.kind, self.q
        omega_tau_varpi, conductor_exp = self.omega_tau_varpi, self.conductor_exp
        if kind not in KINDS:
            raise InvalidArgument(f"unknown GL2 kind: {kind!r}")
        for name in _KEYS:
            value = getattr(self, name)
            if name in GIVEN[kind]:
                if value is None:
                    raise InvalidArgument(f"{kind} requires {name}")
                require_unit(name, value, q)
            elif value is not None and name != "omega_tau_varpi":
                raise InvalidArgument(f"{kind} takes no {name}")

        if kind == STEINBERG_UNRAMIFIED:
            derived_omega_tau = self.omega_varpi * self.omega_varpi
        elif kind == RAMIFIED_OTHER:
            derived_omega_tau = omega_tau_varpi
        else:
            derived_omega_tau = self.alpha_varpi * self.beta_varpi
        if omega_tau_varpi is not None and omega_tau_varpi != derived_omega_tau:
            raise InvalidArgument(
                "omega_tau_varpi inconsistent with the representation kind")

        if conductor_exp is not None:
            require_int("conductor exponent", conductor_exp)
        derived_n = CONDUCTOR.get(kind, conductor_exp)
        if derived_n is None:
            raise InvalidArgument(f"{kind} requires a conductor exponent")
        if conductor_exp is not None and conductor_exp != derived_n:
            raise InvalidArgument("conductor_exp inconsistent with kind")
        if kind not in CONDUCTOR and derived_n < 1:
            raise InvalidArgument(f"invalid conductor exponent {derived_n} for {kind}")

        require_beta_flag(kind, self.beta_chi_unramified)

        object.__setattr__(self, "omega_tau_varpi", derived_omega_tau)
        object.__setattr__(self, "conductor_exp", derived_n)

    def to_json(self):
        out = {"kind": self.kind, "n": self.conductor_exp}
        for name in GIVEN[self.kind]:
            out[_KEYS[name]] = getattr(self, name).to_json()
        if self.kind == RAMIFIED_PS_UNRAM_ALPHA:
            out["beta_chi_unramified"] = self.beta_chi_unramified
        return out

    @staticmethod
    def from_json(obj, q: int) -> "Gl2Local":
        require_known_keys("rep", obj, ("kind", "n", *_KEYS.values(),
                                        "beta_chi_unramified"))
        values = {name: QScalar.from_json(obj[key], q)
                  for name, key in _KEYS.items() if key in obj}
        return Gl2Local(
            obj["kind"], q, **values,
            conductor_exp=obj.get("n"),
            beta_chi_unramified=obj.get("beta_chi_unramified", False),
        )


def newform_value(rep: Gl2Local, l: int) -> QScalar:
    """Normalized newform value W^(0)(diag(varpi^l, 1)): 0 for l < 0, r^l
    for r = newform_ratio(rep) in the three ramified kinds (Cases i-iii),
    and q^(-l/2) sum_k alpha^k beta^(l-k) in Case iv (UnramifiedPS)."""
    q = rep.q
    if l < 0:
        return QScalar.zero(q)
    if rep.kind != UNRAMIFIED_PS:
        return newform_ratio(rep) ** l
    acc = QScalar.zero(q)
    for k in range(l + 1):
        acc = acc + rep.alpha_varpi**k * rep.beta_varpi ** (l - k)
    return QScalar.q_half_power(-l, q) * acc


def newform_ratio(rep: Gl2Local) -> QScalar:
    """r with newform values W^(0)(diag(varpi^l, 1)) = r^l for l >= 0 in the
    three ramified kinds: 0 in Case i (0^0 = 1), beta(varpi) q^(-1/2) in
    Case ii and Omega(varpi) q^(-1) in Case iii.  The m = 0 coset sum reads
    no UnramifiedPS values, so that kind is unsupported."""
    q = rep.q
    if rep.kind == RAMIFIED_OTHER:
        return QScalar.zero(q)
    if rep.kind == RAMIFIED_PS_UNRAM_ALPHA:
        return QScalar.monomial((rep.beta_varpi,), q, -1)
    if rep.kind == STEINBERG_UNRAMIFIED:
        return QScalar.monomial((rep.omega_varpi,), q, -2)
    raise UnsupportedCase(
        "the m = 0 reduction requires conductor n > 0; "
        "use zeta_closed_rhs for the unramified principal series")


def newform_space_dim(n: int, r: int) -> int:
    """dim of the level-r invariant space of a conductor-n representation."""
    if n < 0 or r < 0:
        raise InvalidArgument("n and r must be non-negative")
    return r - n + 1 if r >= n else 0


def induced_invariant_dim(n: int, r: int) -> int:
    """dim of the level-r invariant space in the induced representation.

    Equals (r-n+1)(r-n+2)/2 for r >= n, 0 otherwise; the triangular number
    arises as a sum of GL(2) newform-space dimensions over the coset layers.
    """
    if n < 0 or r < 0:
        raise InvalidArgument("n and r must be non-negative")
    if r < n:
        return 0
    return (r - n + 1) * (r - n + 2) // 2
