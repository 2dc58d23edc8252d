"""Value semantics of the exact types: equality by value, pickling, freezing."""

import dataclasses
import pickle
import random

import pytest

from localzeta import (RAMIFIED_OTHER, RAMIFIED_PS_UNRAM_ALPHA,
                       STEINBERG_UNRAMIFIED, UNRAMIFIED_PS, BesselDatum,
                       Gl2Local, LocalInstance, Poly, QScalar,
                       SatakeParams, bessel_coeffs,
                       random_local_instance, sugano_Q, y_factor)

# (kind, legendre, beta_chi_unramified): every Gl2Local kind and every
# extension type
SHAPES = [
    (RAMIFIED_OTHER, -1, False),
    (RAMIFIED_PS_UNRAM_ALPHA, 0, True),
    (RAMIFIED_PS_UNRAM_ALPHA, 1, False),
    (STEINBERG_UNRAMIFIED, 0, False),
    (UNRAMIFIED_PS, 1, False),
]


def _instances(seed=606):
    rng = random.Random(seed)
    return [random_local_instance(rng, kind, legendre, beta_chi_unramified=flag,
                                  order=6)
            for kind, legendre, flag in SHAPES]


# type name -> the value of that type drawn from an instance
VALUES = {
    "QScalar": lambda i: i.satake.gamma[0] * QScalar(0, 1, i.q) + 1,
    "Poly": lambda i: sugano_Q(i.satake),
    "Series": lambda i: bessel_coeffs(i.satake, i.bessel, i.order),
    "RatFn": y_factor,
    "SatakeParams": lambda i: i.satake,
    "BesselDatum": lambda i: i.bessel,
    "Gl2Local": lambda i: i.rep,
    "LocalInstance": lambda i: i,
}

# type name -> decoder of its to_json(), for the types that have one
DECODERS = {
    "QScalar": lambda obj, i: QScalar.from_json(obj, i.q),
    "SatakeParams": lambda obj, i: SatakeParams.from_json(obj, i.q),
    "BesselDatum": lambda obj, i: BesselDatum.from_json(obj, i.q),
    "Gl2Local": lambda obj, i: Gl2Local.from_json(obj, i.q),
    "LocalInstance": lambda obj, i: LocalInstance.from_json(obj),
}


@pytest.mark.parametrize("name", DECODERS)
def test_json_roundtrip_is_equal(name):
    for inst in _instances():
        x = VALUES[name](inst)
        back = DECODERS[name](x.to_json(), inst)
        assert back == x
        assert hash(back) == hash(x)
        assert back is not x


@pytest.mark.parametrize("name", VALUES)
def test_pickle_roundtrip_is_equal(name):
    for inst in _instances():
        x = VALUES[name](inst)
        back = pickle.loads(pickle.dumps(x))
        assert type(back).__name__ == name
        assert back == x
        assert hash(back) == hash(x)


@pytest.mark.parametrize("name", VALUES)
def test_fields_are_frozen(name):
    x = VALUES[name](_instances()[0])
    for field in dataclasses.fields(x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, field.name, getattr(x, field.name))


# QScalar is built from (rat, sqrt, q), not from its stored fields, so
# dataclasses.replace does not apply to it
@pytest.mark.parametrize("name", [name for name in VALUES if name != "QScalar"])
def test_replace_is_equal(name):
    # dataclasses.replace passes every field back in, derived ones too
    for inst in _instances():
        x = VALUES[name](inst)
        assert dataclasses.replace(x) == x


def test_equal_instances_from_the_same_seed():
    a, b = _instances(7), _instances(7)
    assert a == b
    assert a != _instances(8)


@pytest.mark.parametrize("step", [1, 2])
def test_euler_matches_expanded_product(step):
    q = 5
    rng = random.Random(step)
    a, b, c = (QScalar(rng.randint(-9, 9), rng.randint(-9, 9), q)
               for _ in range(3))
    got = Poly.euler([a, b, c], q, step=step)
    # (1 - aT^k)(1 - bT^k)(1 - cT^k), expanded by hand
    e1, e2, e3 = a + b + c, a * b + a * c + b * c, a * b * c
    want = [1, -e1, e2, -e3]
    if step == 2:
        want = [1, 0, -e1, 0, e2, 0, -e3]
    assert got == Poly(want, q)
    assert Poly.euler([], q, step=step) == Poly.one(q)

