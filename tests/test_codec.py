"""The message codec against the per-field reference loop in oracles.py.

Both sides read the same message table rows; they must agree on every
input: identical bytes, an equal message, or the same exception class
and message. Expected messages come from oracles.reference_message, the
frozen dataclass's field-by-field construction, so the message classes'
constructors are checked here too.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import autoserve.wire as wire
from autoserve.wire import (
    ApReservationDecision,
    ExtendedHeartbeat,
    FlightStack,
    LpReservationConfirmation,
    NodeState,
    ReservationAction,
    ServiceReservationRequest,
    VehicleType,
)
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


# --- the stream slots -----------------------------------------------------------
#
# encode_frame reuses the payload of the message object that a sys_id sent
# last, and verify_frame the message it decoded from that sys_id's last
# payload. Every case below must still agree with the oracles.

HEARTBEAT_SPEC = wire._MESSAGE_SPECS[42000]
SECRET = bytes(range(32))


def frame_of(msg, sys_id=1, ts=1):
    signing = wire.SigningContext(SECRET, 0, lambda: ts)
    return wire.encode_frame(msg, 0, sys_id, 1, signing)


def check_round_trip(spec, msg, sys_id=1):
    """The frame encode_frame makes carries reference_pack's payload, and the
    message verify_frame decodes from it matches reference_unpack's."""
    payload = reference_pack(spec.fields, msg)
    frame = frame_of(msg, sys_id)
    sent = frame[wire.HEADER_LEN : wire.HEADER_LEN + frame[1]]
    assert sent == (payload.rstrip(b"\x00") or payload[:1])
    _, decoded, _ = wire.verify_frame(frame, wire.Keystore({0: SECRET}))
    assert_same_message(decoded, reference_unpack(spec.fields, spec.cls, payload))
    return decoded


def count_calls(monkeypatch, spec, name):
    """Record each call of spec's compiled pack or unpack."""
    calls, compiled = [], getattr(spec, name)

    def counted(arg):
        calls.append(arg)
        return compiled(arg)

    monkeypatch.setattr(spec, name, counted)
    return calls


def test_same_object_packed_twice_matches_reference(monkeypatch):
    packs = count_calls(monkeypatch, HEARTBEAT_SPEC, "pack")
    msg = ExtendedHeartbeat(VehicleType.AERIAL_PLATFORM, 1, NodeState.BOARDING, 42.5, 3.25, -7.5)
    first = check_round_trip(HEARTBEAT_SPEC, msg)
    assert HEARTBEAT_SPEC.last_sent[1][0] is msg
    second = check_round_trip(HEARTBEAT_SPEC, msg)
    assert second is first
    assert len(packs) == 1


@pytest.mark.parametrize(
    "first, second",
    [
        (VehicleType.AERIAL_PLATFORM, 1),
        (True, 1),
        (-0.0, 0.0),
        (0.0, -0.0),
    ],
    ids=["intenum-int", "bool-int", "minus-zero-zero", "zero-minus-zero"],
)
def test_equal_values_of_other_types_match_reference(first, second):
    """Equal-valued messages are distinct objects to encode_frame; their equal
    payloads decode to one message, the oracles' own."""
    for field in ("vehicle_type", "pos_x"):
        for value in (first, second):
            kwargs = dict(vehicle_type=2, flight_stack=0, system_state=NodeState.IDLE,
                          battery_pct=100.0, pos_x=500.0, pos_y=500.0)
            kwargs[field] = value
            check_round_trip(HEARTBEAT_SPEC, ExtendedHeartbeat(**kwargs))


def test_more_messages_than_the_memo_holds_match_reference():
    # One stream sends 600 messages, each made after the last was dropped.
    for n in range(600):
        msg = ExtendedHeartbeat(1, 1, NodeState.OPERATING, n / 100, 1.0, 2.0)
        check_round_trip(HEARTBEAT_SPEC, msg, 7)
    # Every sys_id alternates two messages, twice over.
    messages = [ExtendedHeartbeat(1, 1, NodeState.OPERATING, n, 1.0, 2.0) for n in (1.0, 2.0)]
    for _ in range(2):
        for sys_id in range(1, 256):
            for msg in messages:
                check_round_trip(HEARTBEAT_SPEC, msg, sys_id)
    # One slot per one-byte sys_id at most.
    assert len(HEARTBEAT_SPEC.last_sent) <= 256 and len(HEARTBEAT_SPEC.last_received) <= 256


def test_250_streams_unpack_only_new_payloads(monkeypatch):
    """200 streams send a new heartbeat each round and 50 repeat theirs: each
    repeat after the first round reuses its stream's decoded message, however
    many other streams are live."""
    unpacks = count_calls(monkeypatch, HEARTBEAT_SPEC, "unpack")
    repeated = {
        sys_id: ExtendedHeartbeat(1, 1, NodeState.OPERATING, 50.0, float(sys_id), -4321.0)
        for sys_id in range(201, 251)
    }
    for n in range(5):
        for sys_id in range(1, 251):
            msg = repeated.get(sys_id) or ExtendedHeartbeat(
                1, 1, NodeState.OPERATING, 60.0 + n, float(sys_id), -4321.0
            )
            check_round_trip(HEARTBEAT_SPEC, msg, sys_id)
    assert len(unpacks) == 200 * 5 + 50


def test_equal_payload_bytes_under_other_msg_ids_match_reference():
    # Each packs to 05 01 (00), sent as the truncated payload 05 01.
    messages = [
        ServiceReservationRequest(5, 1),
        ApReservationDecision(5, ReservationAction.KEEP),
        LpReservationConfirmation(5, 1),
    ]
    for msg in messages * 2:
        spec = wire._SPEC_BY_TYPE[type(msg)]
        decoded = check_round_trip(spec, msg)
        assert type(decoded) is type(msg)


def test_failures_are_not_memoised():
    sys_id = 9
    beat = ExtendedHeartbeat(1, 1, NodeState.IDLE, 99.0, 0.0, 0.0)
    check_round_trip(HEARTBEAT_SPEC, beat, sys_id)
    sent, received = HEARTBEAT_SPEC.last_sent[sys_id], HEARTBEAT_SPEC.last_received[sys_id]
    # A message that fails to pack leaves its sender's slot as it was.
    off_wire = ExtendedHeartbeat(1, 1, NodeState.IDLE, 100.01, 0.0, 0.0)
    for _ in range(2):
        assert outcome(frame_of, off_wire, sys_id) == outcome(
            reference_pack, HEARTBEAT_SPEC.fields, off_wire
        )
    assert HEARTBEAT_SPEC.last_sent[sys_id] is sent
    # So does a new payload in a frame whose signature fails.
    frame = bytearray(frame_of(ExtendedHeartbeat(1, 1, NodeState.IDLE, 98.0, 0.0, 0.0), sys_id))
    frame[-1] ^= 0xFF
    for _ in range(2):
        with pytest.raises(wire.SignatureInvalid):
            wire.verify_frame(bytes(frame), wire.Keystore({0: SECRET}))
    assert HEARTBEAT_SPEC.last_received[sys_id] is received
    # And a payload that fails to unpack.
    request_spec = wire._SPEC_BY_TYPE[ServiceReservationRequest]
    before = request_spec.last_received.get(sys_id)
    payload = bytes([101, 1])  # priority 101 is off the wire
    header = bytes([0xFD, len(payload), 0, 0, 0, sys_id, 1]) + (42001).to_bytes(3, "little")
    crc = wire.compute_checksum(header[1:] + payload, request_spec.crc_extra)
    frame = header + payload + crc.to_bytes(2, "little")
    for _ in range(2):
        with pytest.raises(wire.MalformedPayload):
            wire.verify_frame(frame)
    assert request_spec.last_received.get(sys_id) is before
