"""Local GL(2) data: newform Whittaker values and invariant-space dimensions.

A generic irreducible representation tau of GL(2) over a p-adic field falls
into one of four explicit cases for the values of its normalized newform at
diag(varpi^l, 1).  Together with the conductor exponent n these are all the
GL(2) inputs the zeta-integral computation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidArgument, require_int
from .scalars import QScalar, require_unit

# Representation kinds.
UNRAMIFIED_PS = "UnramifiedPS"                 # alpha x beta, both unramified
RAMIFIED_PS_UNRAM_ALPHA = "RamifiedPSUnramAlpha"  # alpha unram., beta ram.
STEINBERG_UNRAMIFIED = "SteinbergUnramified"   # Omega St, Omega unramified
RAMIFIED_OTHER = "RamifiedOther"               # supercuspidal / ram. twist St /
                                               # principal series both ramified

KINDS = (UNRAMIFIED_PS, RAMIFIED_PS_UNRAM_ALPHA, STEINBERG_UNRAMIFIED,
         RAMIFIED_OTHER)


@dataclass(frozen=True, slots=True)
class Gl2Local:
    """Tagged local GL(2) representation datum.

    Stored character values are the values at the uniformizer; they are
    well-defined nonzero numbers even when the character itself is
    ramified (beta in the RamifiedPSUnramAlpha case).  omega_tau_varpi and
    conductor_exp are derived from the kind where it fixes them.
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

        def need(value, name):
            if value is None:
                raise InvalidArgument(f"{kind} requires {name}")
            return require_unit(name, value, q)

        if kind in (UNRAMIFIED_PS, RAMIFIED_PS_UNRAM_ALPHA):
            derived_omega_tau = (need(self.alpha_varpi, "alpha_varpi")
                                 * need(self.beta_varpi, "beta_varpi"))
        elif kind == STEINBERG_UNRAMIFIED:
            omega_varpi = need(self.omega_varpi, "omega_varpi")
            derived_omega_tau = omega_varpi * omega_varpi
        else:
            derived_omega_tau = need(omega_tau_varpi, "omega_tau_varpi")

        if omega_tau_varpi is not None and omega_tau_varpi != derived_omega_tau:
            raise InvalidArgument(
                "omega_tau_varpi inconsistent with the representation kind")

        if conductor_exp is not None:
            require_int("conductor exponent", conductor_exp)
        if kind == UNRAMIFIED_PS:
            derived_n = 0
        elif kind == STEINBERG_UNRAMIFIED:
            derived_n = 1
        else:
            if conductor_exp is None:
                raise InvalidArgument(f"{kind} requires a conductor exponent")
            derived_n = conductor_exp
        if conductor_exp is not None and conductor_exp != derived_n:
            raise InvalidArgument("conductor_exp inconsistent with kind")
        if derived_n < 0 or (kind in (RAMIFIED_PS_UNRAM_ALPHA, RAMIFIED_OTHER)
                             and derived_n < 1):
            raise InvalidArgument(f"invalid conductor exponent {derived_n} for {kind}")

        if not isinstance(self.beta_chi_unramified, bool):
            raise InvalidArgument("beta_chi_unramified must be a boolean, "
                                  f"got {self.beta_chi_unramified!r}")

        object.__setattr__(self, "omega_tau_varpi", derived_omega_tau)
        object.__setattr__(self, "conductor_exp", derived_n)

    def to_json(self):
        out = {"kind": self.kind, "n": self.conductor_exp}
        if self.alpha_varpi is not None:
            out["alpha"] = self.alpha_varpi.to_json()
        if self.beta_varpi is not None:
            out["beta"] = self.beta_varpi.to_json()
        if self.omega_varpi is not None:
            out["omega"] = self.omega_varpi.to_json()
        if self.kind == RAMIFIED_OTHER:
            out["omega_tau"] = self.omega_tau_varpi.to_json()
        if self.kind == RAMIFIED_PS_UNRAM_ALPHA:
            out["beta_chi_unramified"] = self.beta_chi_unramified
        return out

    @staticmethod
    def from_json(obj, q: int) -> "Gl2Local":
        def dec(key):
            return QScalar.from_json(obj[key], q) if key in obj else None
        return Gl2Local(
            obj["kind"], q,
            alpha_varpi=dec("alpha"),
            beta_varpi=dec("beta"),
            omega_varpi=dec("omega"),
            omega_tau_varpi=dec("omega_tau"),
            conductor_exp=obj.get("n"),
            beta_chi_unramified=obj.get("beta_chi_unramified", False),
        )


def newform_value(rep: Gl2Local, l: int) -> QScalar:
    """Normalized newform value W^(0)(diag(varpi^l, 1)).

    Case i   (RamifiedOther):          1 if l = 0, else 0.
    Case ii  (RamifiedPSUnramAlpha):   (beta(varpi) q^(-1/2))^l for l >= 0.
    Case iii (SteinbergUnramified):    (Omega(varpi) q^(-1))^l for l >= 0.
    Case iv  (UnramifiedPS):           q^(-l/2) sum_k alpha^k beta^(l-k).
    """
    q = rep.q
    if rep.kind == RAMIFIED_OTHER:
        return QScalar.one(q) if l == 0 else QScalar.zero(q)
    if l < 0:
        return QScalar.zero(q)
    if rep.kind == RAMIFIED_PS_UNRAM_ALPHA:
        return (rep.beta_varpi * QScalar.q_half_power(-1, q)) ** l
    if rep.kind == STEINBERG_UNRAMIFIED:
        return (rep.omega_varpi * QScalar.q_half_power(-2, q)) ** l
    acc = QScalar.zero(q)
    for k in range(l + 1):
        acc = acc + rep.alpha_varpi**k * rep.beta_varpi ** (l - k)
    return QScalar.q_half_power(-l, q) * acc


def newform_values(rep: Gl2Local, order: int) -> list[QScalar]:
    """[newform_value(rep, l) for l = 0..order], each power carried forward
    from the last: one multiplication per l in Cases ii and iii, where
    newform_value raises to the l-th power afresh."""
    q = rep.q
    one, zero = QScalar.one(q), QScalar.zero(q)
    if rep.kind == RAMIFIED_OTHER:
        return [one] + [zero] * order
    if rep.kind == UNRAMIFIED_PS:
        # q^(-l/2) S_l with S_l = sum_k alpha^k beta^(l-k)
        #                       = beta S_(l-1) + alpha^l
        alpha, beta = rep.alpha_varpi, rep.beta_varpi
        qm1 = QScalar.q_half_power(-1, q)
        out, s, a_pow, scale = [one], one, one, one
        for _ in range(order):
            a_pow = a_pow * alpha
            s = beta * s + a_pow
            scale = scale * qm1
            out.append(scale * s)
        return out
    if rep.kind == RAMIFIED_PS_UNRAM_ALPHA:
        ratio = rep.beta_varpi * QScalar.q_half_power(-1, q)
    else:
        ratio = rep.omega_varpi * QScalar.q_half_power(-2, q)
    out = [one]
    for _ in range(order):
        out.append(out[-1] * ratio)
    return out


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
