"""The message codec against the per-field reference loop in oracles.py.

Both sides read the same message table rows; they must agree on every
input: identical bytes, an equal message, or the same exception class
and message. Expected messages come from oracles.reference_message, the
frozen dataclass's own construction, so the compiled constructors are
checked here too.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import autoserve.wire as wire
from autoserve.wire import FlightStack, NodeState, ReservationAction, VehicleType
from oracles import _CTYPE_RANGES, reference_message, reference_pack, reference_unpack

SPECS = [wire._MESSAGE_SPECS[msg_id] for msg_id in sorted(wire._MESSAGE_SPECS)]
SPEC_IDS = [spec.cls.__name__ for spec in SPECS]

INT_ENUM_MEMBERS = [*VehicleType, *FlightStack, *NodeState, *ReservationAction]


def _wire_range(field):
    _, lo, hi = _CTYPE_RANGES[field.ctype]
    return (lo if field.lo is None else field.lo), (hi if field.hi is None else field.hi)


def sent_values(field):
    """Values a sender may put in a field, on and off the wire."""
    lo, hi = _wire_range(field)
    if field.enum is not None:
        hi = max(int(m) for m in field.enum)
    edges = [lo - 1, lo, hi, hi + 1]
    ints = st.one_of(
        st.integers(lo, hi),
        st.sampled_from(edges),
        st.sampled_from(INT_ENUM_MEMBERS),
        st.integers(),
    )
    if field.scale is None:
        return ints
    scale = field.scale
    near_edges = [
        x / scale for x in (lo - 0.5, lo - 0.25, hi + 0.25, hi + 0.5, lo - 1, hi + 1)
    ]
    return st.one_of(
        ints,
        st.integers(lo, hi).map(lambda n: n / scale),
        st.floats(),
        st.sampled_from(
            near_edges + [-0.0, 1e-7, math.inf, -math.inf, math.nan, 1.797693134862316e306]
        ),
    )


def field_values_of(spec):
    return st.fixed_dictionaries({f.attr: sent_values(f) for f in spec.fields})


def messages_of(spec):
    return field_values_of(spec).map(lambda kwargs: reference_message(spec.cls, **kwargs))


def payloads_of(spec):
    """Random bytes of every length from empty to the full payload."""
    return st.integers(0, spec.size).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    )


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by class and message
        return "raised", type(exc), str(exc)


def assert_same_message(decoded, expected):
    """decoded behaves exactly like the reference-built expected."""
    assert type(decoded) is type(expected)
    assert decoded == expected
    assert hash(decoded) == hash(expected)
    assert repr(decoded) == repr(expected)
    assert list(vars(decoded).items()) == list(vars(expected).items())
    name = dataclasses.fields(decoded)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(decoded, name, 0)


def check_unpack(spec, payload):
    got = outcome(spec.unpack, payload)
    expected = outcome(reference_unpack, spec.fields, spec.cls, payload)
    if expected[0] == "ok":
        assert got[0] == "ok", got
        assert_same_message(got[1], expected[1])
    else:
        assert got == expected


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pack_matches_reference(spec, data):
    msg = data.draw(messages_of(spec))
    got = outcome(spec.pack, msg)
    assert got == outcome(reference_pack, spec.fields, msg)
    if got[0] == "ok":
        check_unpack(spec, got[1])


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_unpack_matches_reference(spec, data):
    check_unpack(spec, data.draw(payloads_of(spec)))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_unpack_matches_reference_at_every_length(spec):
    for n in range(spec.size + 1):
        check_unpack(spec, bytes(n))
        check_unpack(spec, b"\x01" * n)
        check_unpack(spec, b"\xff" * n)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_constructor_matches_reference(spec, data):
    kwargs = data.draw(field_values_of(spec))
    names = [f.name for f in dataclasses.fields(spec.cls)]
    args = [kwargs[name] for name in names]
    expected = reference_message(spec.cls, **kwargs)
    assert_same_message(spec.cls(*args), expected)
    assert_same_message(spec.cls(**kwargs), expected)
    assert_same_message(spec.cls(args[0], **{n: kwargs[n] for n in names[1:]}), expected)
    required = {
        f.name: kwargs[f.name]
        for f in dataclasses.fields(spec.cls)
        if f.default is dataclasses.MISSING
    }
    assert_same_message(spec.cls(**required), reference_message(spec.cls, **required))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_constructor_rejects_what_the_reference_rejects(spec):
    names = [f.name for f in dataclasses.fields(spec.cls)]
    kwargs = {name: 1 for name in names}
    missing = {name: 1 for name in names[1:]}
    bad_calls = [
        ((), missing),  # the first field has no default
        ((), {**kwargs, "bogus": 1}),
        ((1,) * (len(names) + 1), {}),
        ((1,), kwargs),  # the first field given twice
    ]
    for args, keywords in bad_calls:
        with pytest.raises(TypeError):
            reference_message(spec.cls, *args, **keywords)
        with pytest.raises(TypeError):
            spec.cls(*args, **keywords)
