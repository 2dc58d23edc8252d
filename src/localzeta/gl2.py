"""Local GL(2) data: newform Whittaker values and invariant-space dimensions.

A generic irreducible representation tau of GL(2) over a p-adic field falls
into one of four explicit cases for the values of its normalized newform at
diag(varpi^l, 1).  Together with the conductor exponent n these are all the
GL(2) inputs the zeta-integral computation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidArgument, require_int, require_known_keys
from .scalars import QScalar, _mul, _reduced, require_unit

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
        if self.beta_chi_unramified and kind != RAMIFIED_PS_UNRAM_ALPHA:
            raise InvalidArgument(f"{kind} takes no beta_chi_unramified")

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
    """[newform_value(rep, l) for l = 0..order], from newform_terms: each
    value reduced once, the l-th power never raised afresh."""
    return [_reduced(*t, rep.q) for t in newform_terms(rep, order)]


def newform_terms(rep: Gl2Local, order: int) -> list[tuple[int, int, int]]:
    """The values of newform_values as unreduced int triples (u, v, d),
    standing for (u + v sqrt(q)) / d: each power carried forward from the
    last, with no gcd taken."""
    q = rep.q
    one = (1, 0, 1)
    if rep.kind == RAMIFIED_OTHER:
        return [one] + [(0, 0, 1)] * order
    if rep.kind == UNRAMIFIED_PS:
        # q^(-l/2) S_l with S_l = sum_k alpha^k beta^(l-k)
        #                       = beta S_(l-1) + alpha^l,
        # carried as e^l S_l, e = d_alpha d_beta: the same recurrence on
        # e alpha and e beta, whose triples have denominator 1
        alpha, beta = rep.alpha_varpi, rep.beta_varpi
        ea = (alpha.a * beta.d, alpha.b * beta.d, 1)
        eb = (beta.a * alpha.d, beta.b * alpha.d, 1)
        step = (0, 1, q * alpha.d * beta.d)  # q^(-1/2) / e
        out, s, a_pow, scale = [one], one, one, one
        for _ in range(order):
            a_pow = _mul(a_pow, ea, q)
            u, v, _ = _mul(eb, s, q)
            s = (u + a_pow[0], v + a_pow[1], 1)
            scale = _mul(scale, step, q)
            out.append(_mul(scale, s, q))
        return out
    if rep.kind == RAMIFIED_PS_UNRAM_ALPHA:
        x, r = rep.beta_varpi, (0, 1, q)  # beta q^(-1/2)
    else:
        x, r = rep.omega_varpi, (1, 0, q)  # Omega q^(-1)
    ratio = _mul((x.a, x.b, x.d), r, q)
    out = [one]
    for _ in range(order):
        out.append(_mul(out[-1], ratio, q))
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
