import hashlib
import json
import random
import struct

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import autoserve.wire as wire
from autoserve.wire import (
    ApReservationDecision,
    BadMagic,
    ChecksumMismatch,
    ExtendedHeartbeat,
    FlightStack,
    FrameDecodeError,
    Keystore,
    LpReservationConfirmation,
    MalformedPayload,
    NodeState,
    PayloadTooLarge,
    ReservationAction,
    ServiceReservationRequest,
    Signature,
    SignatureInvalid,
    SignatureMissing,
    SigningContext,
    StaleTimestamp,
    SystemStateUpdate,
    TruncatedFrame,
    UnknownMsgId,
    VehicleType,
    compute_checksum,
    crc16_x25,
    decode_frame,
    dump_frame,
    encode_frame,
    verify_frame,
)
from oracles import crc16_x25_oracle, reference_state_update_frame

SECRET = bytes(range(32))


def signing(link_id=0, ts=1_000_000):
    counter = {"ts": ts}

    def source():
        return counter["ts"]

    ctx = SigningContext(SECRET, link_id, source)
    ctx._test_counter = counter
    return ctx


# --- strategies -------------------------------------------------------------

sys_ids = st.integers(1, 255)
u8 = st.integers(0, 255)
states = st.sampled_from(list(NodeState))
battery = st.integers(0, 10000).map(lambda n: n / 100)
coord = st.integers(-2_000_000, 2_000_000).map(lambda n: n / 100)

heartbeats = st.builds(
    ExtendedHeartbeat,
    vehicle_type=u8,
    flight_stack=u8,
    system_state=states,
    battery_pct=battery,
    pos_x=coord,
    pos_y=coord,
    component_type=u8,
    flight_mode=u8,
)
messages = st.one_of(
    heartbeats,
    st.builds(ServiceReservationRequest, priority=st.integers(0, 100), target_lp_sys_id=sys_ids),
    st.builds(
        LpReservationConfirmation,
        target_ap_sys_id=sys_ids,
        queue_position=st.integers(0, 65535),
    ),
    st.builds(
        ApReservationDecision,
        target_lp_sys_id=sys_ids,
        decision=st.sampled_from(list(ReservationAction)),
    ),
    st.builds(SystemStateUpdate, state=states),
)


# --- checksum ----------------------------------------------------------------


def test_crc_published_check_values():
    assert crc16_x25(b"123456789") == 0x906E


def test_crc_matches_oracle_on_random_inputs():
    rng = random.Random(7)
    for _ in range(300):
        data = rng.randbytes(rng.randint(0, 64))
        assert crc16_x25(data) == crc16_x25_oracle(data)
        assert crc16_x25(bytearray(data)) == crc16_x25_oracle(data)
    # The frame checksum is the CRC of its input followed by the crc_extra byte.
    for extra in range(256):
        data = rng.randbytes(rng.randint(0, 64))
        expected = crc16_x25_oracle(data + bytes([extra]))
        assert compute_checksum(data, extra) == expected
        assert compute_checksum(bytearray(data), extra) == expected


def test_compute_checksum_empty_input_is_crc_of_extra_byte():
    assert compute_checksum(b"", 0) == crc16_x25_oracle(b"\x00")


def test_compute_checksum_crc_extra_sensitivity():
    data = b"service request"
    assert compute_checksum(data, 0x2B) != compute_checksum(data, 0x2C)


# --- encode ------------------------------------------------------------------


def test_encode_reference_state_update_frame():
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), seq=0, sys_id=1, comp_id=1)
    assert len(frame) == 13
    crc_extra = wire._MESSAGE_SPECS[42004].crc_extra
    assert frame == reference_state_update_frame(0, 0, 1, 1, crc_extra)


def test_encode_is_deterministic():
    msg = ExtendedHeartbeat(1, 1, NodeState.OPERATING, 81.25, 10.0, -4.5)
    assert encode_frame(msg, 9, 3, 1) == encode_frame(msg, 9, 3, 1)


def test_signed_differs_only_in_flag_checksum_and_trailer():
    msg = ServiceReservationRequest(priority=40, target_lp_sys_id=2)
    plain = encode_frame(msg, 5, 7, 1)
    signed = encode_frame(msg, 5, 7, 1, signing=signing())
    assert len(signed) == len(plain) + 13
    assert signed[2] == plain[2] | 0x01
    # Identical everywhere else except the checksum (it covers the flag).
    for index in range(len(plain) - 2):
        if index != 2:
            assert signed[index] == plain[index]


def test_seq_wraps_and_sys_id_zero_rejected():
    msg = SystemStateUpdate(state=NodeState.IDLE)
    assert encode_frame(msg, 256, 1, 1) == encode_frame(msg, 0, 1, 1)
    with pytest.raises(ValueError):
        encode_frame(msg, 0, 0, 1)
    with pytest.raises(ValueError):
        encode_frame(msg, 0, 1, 300)


def test_payload_too_large():
    class Oversized:
        pass

    # 75 four-byte fields: a 300-byte payload, refused when the row is built.
    with pytest.raises(PayloadTooLarge):
        wire._MessageSpec(
            42999,
            "OVERSIZED",
            Oversized,
            [wire._Field(f"f{i}", "int32_t") for i in range(75)],
        )


# A scaled value whose wire form is not a finite number: the product
# overflows to infinity, the value is infinite or NaN, or it is an int
# too large to convert to a float.
NON_FINITE_SCALED = {
    "overflow": 1.797693134862316e306,
    "inf": float("inf"),
    "minus-inf": float("-inf"),
    "nan": float("nan"),
    "int-too-large": 10**400,
}


@pytest.mark.parametrize("value", NON_FINITE_SCALED.values(), ids=NON_FINITE_SCALED.keys())
def test_non_finite_scaled_value_is_value_error(value):
    for msg in (
        ExtendedHeartbeat(1, 1, NodeState.OPERATING, 50.0, 0.0, value),
        ExtendedHeartbeat(1, 1, NodeState.OPERATING, 50.0, value, 0.0),
        ExtendedHeartbeat(1, 1, NodeState.OPERATING, value, 0.0, 0.0),
    ):
        with pytest.raises(ValueError, match="out of range"):
            encode_frame(msg, 0, 1, 1)


def test_unknown_message_type_rejected():
    with pytest.raises(TypeError):
        encode_frame(object(), 0, 1, 1)


# One case per field bound in the message table: a message that breaks it,
# and the same values packed by hand into a payload.
BOUND_CASES = {
    "priority-above-100": (
        ServiceReservationRequest(priority=101, target_lp_sys_id=1),
        struct.pack("<BB", 101, 1),
    ),
    "request-target-0": (
        ServiceReservationRequest(priority=50, target_lp_sys_id=0),
        struct.pack("<BB", 50, 0),
    ),
    "confirmation-target-0": (
        LpReservationConfirmation(target_ap_sys_id=0, queue_position=1),
        struct.pack("<BH", 0, 1),
    ),
    "decision-target-0": (
        ApReservationDecision(target_lp_sys_id=0, decision=ReservationAction.KEEP),
        struct.pack("<BB", 0, 1),
    ),
    "decision-above-1": (
        ApReservationDecision(target_lp_sys_id=1, decision=2),
        struct.pack("<BB", 1, 2),
    ),
    "battery-above-100": (
        ExtendedHeartbeat(1, 1, NodeState.OPERATING, 100.01, 0.0, 0.0),
        struct.pack("<BBBBBHii", 1, 1, 0, 0, 5, 10001, 0, 0),
    ),
    "heartbeat-state-99": (
        ExtendedHeartbeat(1, 1, 99, 50.0, 0.0, 0.0),
        struct.pack("<BBBBBHii", 1, 1, 0, 0, 99, 5000, 0, 0),
    ),
    "state-update-99": (SystemStateUpdate(state=99), struct.pack("<B", 99)),
}


def _frame_with_payload(msg_id: int, payload: bytes) -> bytes:
    header = bytes([len(payload), 0, 0, 0, 1, 1]) + msg_id.to_bytes(3, "little")
    crc = compute_checksum(header + payload, wire._MESSAGE_SPECS[msg_id].crc_extra)
    return b"\xfd" + header + payload + crc.to_bytes(2, "little")


@pytest.mark.parametrize("msg, payload", BOUND_CASES.values(), ids=BOUND_CASES.keys())
def test_field_bounds_enforced_on_both_sides(msg, payload):
    with pytest.raises(ValueError):
        encode_frame(msg, 0, 1, 1)
    with pytest.raises(MalformedPayload):
        verify_frame(_frame_with_payload(wire._SPEC_BY_TYPE[type(msg)].msg_id, payload))


# --- round trip ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(msg=messages, seq=st.integers(0, 255), sys_id=sys_ids, comp_id=sys_ids)
def test_roundtrip_unsigned(msg, seq, sys_id, comp_id):
    frame = encode_frame(msg, seq, sys_id, comp_id)
    assert len(frame) <= wire.MAX_FRAME_LEN
    header, decoded, sig = verify_frame(frame)
    assert decoded == msg
    assert (header.seq, header.sys_id, header.comp_id) == (seq, sys_id, comp_id)
    assert sig is None


@settings(max_examples=150, deadline=None)
@given(msg=messages)
def test_roundtrip_signed(msg):
    ctx = signing(link_id=4)
    frame = encode_frame(msg, 0, 9, 1, signing=ctx)
    header, decoded, sig = decode_frame(frame, keystore=Keystore({4: SECRET}))
    assert decoded == msg
    assert isinstance(sig, Signature) and sig.link_id == 4


def test_trailing_bytes_are_ignored():
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1)
    _, msg, _ = verify_frame(frame + b"\xAA\xBB")
    assert msg == SystemStateUpdate(state=NodeState.IDLE)


def test_decode_accepts_a_bytearray_frame():
    frame = encode_frame(ServiceReservationRequest(50, 3), 0, 8, 1, signing())
    keystore = Keystore({0: SECRET})
    _, msg, _ = decode_frame(bytearray(frame), keystore)
    assert msg == ServiceReservationRequest(50, 3)
    # The replay check ran: the same bytes again are stale.
    with pytest.raises(StaleTimestamp):
        decode_frame(frame, keystore)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SigningContext(SECRET[:31], 0, lambda: 0),
        lambda: Keystore({0: SECRET[:31]}),
    ],
    ids=["signing-context", "keystore"],
)
def test_short_secret_rejected(make):
    with pytest.raises(ValueError, match="secret_key must be exactly 32 bytes"):
        make()


def test_signing_context_refuses_a_two_byte_link_id():
    with pytest.raises(ValueError, match="link_id must fit in one byte"):
        SigningContext(SECRET, 256, lambda: 0)


def test_message_fields_roundtrip():
    msg = ExtendedHeartbeat(1, 2, NodeState.BOARDING, 33.33, -1.25, 900.0, 7, 9)
    fields = wire.message_to_fields(msg)
    assert wire.message_from_fields("ExtendedHeartbeat", fields) == msg


def test_message_from_fields_refuses_an_unknown_type_name():
    with pytest.raises(ValueError, match="unknown message type 'Ping'"):
        wire.message_from_fields("Ping", {})


# Values a sender may put in a message: IntEnum members in plain-int fields,
# and ints or floats in a scaled field, in wire range or not.
sent_ints = st.one_of(u8, st.sampled_from([*VehicleType, *FlightStack]))
scaled_values = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 1e-7, -1e-7, 1e16, -1e16, 0.1, 64.31]),
    st.integers(-(2**31), 2**31 - 1),
)
sent_heartbeats = st.builds(
    ExtendedHeartbeat,
    vehicle_type=sent_ints,
    flight_stack=sent_ints,
    system_state=states,
    battery_pct=scaled_values,
    pos_x=scaled_values,
    pos_y=scaled_values,
    component_type=u8,
    flight_mode=u8,
)

BOUNDARY_MESSAGES = [
    ExtendedHeartbeat(
        VehicleType.AERIAL_PLATFORM, FlightStack.ARDUPILOT, NodeState.DEPARTED, 100, -0.0, 1e-7, 255, 0
    ),
    ExtendedHeartbeat(0, 255, NodeState.IDLE, 0.0, -21474836.48, 21474836.47, 0, 255),
    ExtendedHeartbeat(
        VehicleType.GENERIC, FlightStack.UNKNOWN, NodeState.OPERATING, 1e16, -1e16, -0.5, 1, 1
    ),
    ServiceReservationRequest(priority=0, target_lp_sys_id=1),
    ServiceReservationRequest(priority=100, target_lp_sys_id=255),
    LpReservationConfirmation(target_ap_sys_id=1, queue_position=0),
    LpReservationConfirmation(target_ap_sys_id=255, queue_position=65535),
    ApReservationDecision(target_lp_sys_id=1, decision=ReservationAction.CANCEL),
    ApReservationDecision(target_lp_sys_id=255, decision=ReservationAction.KEEP),
    SystemStateUpdate(state=NodeState.IDLE),
    SystemStateUpdate(state=NodeState.DEPARTED),
]


def check_message_json(msg):
    """message_json matches the encoded field dict, for the message sent and,
    when it fits the wire, for the message verify_frame returns."""
    compact = json.JSONEncoder(separators=(",", ":")).encode
    assert wire.message_json(msg) == compact(wire.message_to_fields(msg))
    try:
        frame = encode_frame(msg, 0, 9, 1, signing=signing())
    except ValueError:
        return
    _, received, _ = verify_frame(frame, Keystore({0: SECRET}))
    assert wire.message_json(received) == compact(wire.message_to_fields(received))


@settings(max_examples=300)
@given(msg=st.one_of(messages, sent_heartbeats))
def test_message_json_matches_json_encoder(msg):
    check_message_json(msg)


@pytest.mark.parametrize("msg", BOUNDARY_MESSAGES)
def test_message_json_matches_json_encoder_at_boundaries(msg):
    check_message_json(msg)


@pytest.mark.parametrize("value", NON_FINITE_SCALED.values(), ids=NON_FINITE_SCALED.keys())
def test_message_json_spells_non_finite_floats_as_json_does(value):
    check_message_json(ExtendedHeartbeat(1, 1, NodeState.IDLE, value, value, 0.5))


# --- decode errors -------------------------------------------------------------


def test_empty_input_is_truncated():
    with pytest.raises(TruncatedFrame):
        verify_frame(b"")


def test_bad_magic():
    with pytest.raises(BadMagic):
        verify_frame(b"\xfe" + bytes(12))


def test_truncated_header_and_body():
    frame = encode_frame(ExtendedHeartbeat(1, 1, NodeState.OPERATING, 50.0, 1.0, 2.0), 0, 1, 1)
    for cut in (1, 5, len(frame) - 1):
        with pytest.raises(TruncatedFrame):
            verify_frame(frame[:cut])


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_every_prefix_raises_as_the_structural_parse_does(signed):
    """Every cut of a valid frame fails in verify_frame exactly as
    wire._parse_frame fails on it, and so in decode_frame when the frame is
    signed: decode_frame refuses an unsigned frame once its header is whole."""
    msg = ExtendedHeartbeat(1, 1, NodeState.OPERATING, 50.0, 1.0, 2.0)
    frame = encode_frame(msg, 0, 1, 1, signing() if signed else None)
    for cut in range(len(frame)):
        prefix = frame[:cut]
        with pytest.raises(FrameDecodeError) as parsed:
            wire._parse_frame(prefix)
        expected = (type(parsed.value), str(parsed.value))
        for decode in (verify_frame, decode_frame) if signed else (verify_frame,):
            with pytest.raises(FrameDecodeError) as raised:
                decode(prefix, Keystore({0: SECRET}))
            assert (type(raised.value), str(raised.value)) == expected


def test_unknown_msg_id():
    frame = bytearray(encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1))
    frame[7:10] = (41999).to_bytes(3, "little")
    with pytest.raises(UnknownMsgId):
        verify_frame(bytes(frame))


def test_flipped_payload_bit_is_checksum_mismatch():
    ctx = signing()
    frame = bytearray(encode_frame(ServiceReservationRequest(50, 3), 1, 8, 1, signing=ctx))
    frame[wire.HEADER_LEN] ^= 0x04
    with pytest.raises(ChecksumMismatch):
        decode_frame(bytes(frame), keystore=Keystore({0: SECRET}))


def test_signature_missing_when_required():
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1)
    with pytest.raises(SignatureMissing):
        decode_frame(frame, keystore=Keystore({0: SECRET}))


def test_refused_unsigned_frame_leaves_the_codec_slots_alone():
    spec = wire._MESSAGE_SPECS[42004]
    # sys_id 2's slot holds a message that passed every check.
    decode_frame(
        encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 2, 1, signing=signing()),
        keystore=Keystore({0: SECRET}),
    )
    before = dict(spec.last_received)
    forged = encode_frame(SystemStateUpdate(state=NodeState.DEPARTED), 1, 2, 1)
    with pytest.raises(SignatureMissing):
        decode_frame(forged, keystore=Keystore({0: SECRET}))
    assert spec.last_received == before
    assert spec.last_received[2] is before[2]


def test_signed_frame_without_keystore_rejected():
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1, signing=signing())
    with pytest.raises(SignatureInvalid):
        verify_frame(frame)


def test_unknown_link_id_rejected():
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1, signing=signing(link_id=9))
    with pytest.raises(SignatureInvalid):
        decode_frame(frame, keystore=Keystore({0: SECRET}))


@settings(max_examples=60, deadline=None)
@given(wrong=st.binary(min_size=32, max_size=32))
def test_wrong_secret_always_rejected(wrong):
    frame = encode_frame(ServiceReservationRequest(10, 1), 0, 2, 1, signing=signing())
    if wrong == SECRET:
        decode_frame(frame, keystore=Keystore({0: wrong}))
        return
    with pytest.raises(SignatureInvalid):
        decode_frame(frame, keystore=Keystore({0: wrong}))


def test_replay_identical_timestamp_is_stale():
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1, signing=signing())
    store = Keystore({0: SECRET})
    decode_frame(frame, keystore=store)
    with pytest.raises(StaleTimestamp):
        decode_frame(frame, keystore=store)


def test_new_stream_behind_replay_window_is_stale():
    store = Keystore({0: SECRET})
    late = signing(ts=10_000_000)
    frame_late = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1, signing=late)
    decode_frame(frame_late, keystore=store)
    early = signing(ts=10_000_000 - 700_000)  # 7 s behind the link maximum
    frame_early = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 2, 1, signing=early)
    with pytest.raises(StaleTimestamp):
        decode_frame(frame_early, keystore=store)


def test_timestamps_strictly_monotonic_per_stream():
    ctx = signing(ts=500)  # stalled clock
    first = ctx.next_timestamp(1, 1)
    second = ctx.next_timestamp(1, 1)
    other_stream = ctx.next_timestamp(2, 1)
    assert second == first + 1
    assert other_stream == 500
    ctx._test_counter["ts"] = 400  # the clock steps back
    assert ctx.next_timestamp(1, 1) == first + 2
    ctx._test_counter["ts"] = 900
    assert ctx.next_timestamp(1, 1) == 900
    assert ctx.next_timestamp(2, 1) == 900


def test_rejected_frame_does_not_advance_replay_state():
    ctx = signing(ts=9_000)
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1, signing=ctx)
    store = Keystore({0: SECRET})
    tampered = bytearray(frame)
    tampered[-1] ^= 0x01
    with pytest.raises(SignatureInvalid):
        decode_frame(bytes(tampered), keystore=store)
    decode_frame(frame, keystore=store)  # original still accepted


def _signed_frame_with_payload(msg_id: int, payload: bytes, ts: int) -> bytes:
    """A frame from sys 1, comp 1 with a valid checksum and signature."""
    header = bytes([len(payload), wire.INCOMPAT_SIGNED, 0, 0, 1, 1])
    header += msg_id.to_bytes(3, "little")
    crc = compute_checksum(header + payload, wire._MESSAGE_SPECS[msg_id].crc_extra)
    frame = b"\xfd" + header + payload + crc.to_bytes(2, "little")
    frame += b"\x00" + ts.to_bytes(6, "little")
    return frame + hashlib.sha256(SECRET + frame).digest()[:6]


def test_failed_decode_commits_no_timestamp():
    store = Keystore({0: SECRET})
    malformed = _signed_frame_with_payload(42001, struct.pack("<BB", 101, 1), ts=5_000)
    with pytest.raises(MalformedPayload):
        decode_frame(malformed, keystore=store)
    valid = _signed_frame_with_payload(42001, struct.pack("<BB", 50, 1), ts=5_000)
    decode_frame(valid, keystore=store)  # same stream and timestamp: not yet seen
    with pytest.raises(StaleTimestamp):
        decode_frame(valid, keystore=store)


def _flip(frame: bytes, index: int) -> bytes:
    mutated = bytearray(frame)
    mutated[index] ^= 0x01
    return bytes(mutated)


def _replayed_store(frame: bytes) -> Keystore:
    store = Keystore({0: SECRET})
    decode_frame(frame, keystore=store)
    return store


def _ahead_store() -> Keystore:
    store = Keystore({0: SECRET})
    decode_frame(_signed_frame_with_payload(42004, b"\x00", ts=10_000_000), keystore=store)
    return store


_UNSIGNED = encode_frame(ServiceReservationRequest(50, 3), 1, 8, 1)
_SIGNED = encode_frame(ServiceReservationRequest(50, 3), 1, 8, 1, signing=signing(ts=9_000_000))

def _no_keystore():
    return None


def _keystore():
    return Keystore({0: SECRET})


# Frames with exactly one fault each: (frame, keystore factory, the
# exception class decode_frame raises). Every fault the frame itself
# carries is on a signed frame checked against the link's own keystore,
# as on the bus, so decode_frame reaches that fault's own check.
SINGLE_FAULTS = {
    "empty": (b"", _keystore, TruncatedFrame),
    "bad-magic": (b"\xfe" + _SIGNED[1:], _keystore, BadMagic),
    "short-header": (_SIGNED[:6], _keystore, TruncatedFrame),
    "short-body": (_SIGNED[: -wire.SIGNATURE_LEN - 1], _keystore, TruncatedFrame),
    "short-signature": (_SIGNED[:-1], _keystore, TruncatedFrame),
    "unknown-msg-id": (_SIGNED[:7] + bytes(3) + _SIGNED[10:], _keystore, UnknownMsgId),
    "payload-bit": (_flip(_SIGNED, wire.HEADER_LEN), _keystore, ChecksumMismatch),
    "checksum-bit": (_flip(_SIGNED, 13), _keystore, ChecksumMismatch),
    "malformed-payload": (
        _signed_frame_with_payload(42001, struct.pack("<BB", 101, 1), ts=9_000_000),
        _keystore,
        MalformedPayload,
    ),
    "unsigned-but-required": (_UNSIGNED, _keystore, SignatureMissing),
    "timestamp-bit": (_flip(_SIGNED, -8), _keystore, SignatureInvalid),
    "signature-bit": (_flip(_SIGNED, -1), _keystore, SignatureInvalid),
    "signed-no-keystore": (_SIGNED, _no_keystore, SignatureInvalid),
    "unknown-link-id": (_SIGNED, lambda: Keystore({1: SECRET}), SignatureInvalid),
    "wrong-secret": (_SIGNED, lambda: Keystore({0: bytes(32)}), SignatureInvalid),
    "replayed": (_SIGNED, lambda: _replayed_store(_SIGNED), StaleTimestamp),
    "behind-replay-window": (_SIGNED, _ahead_store, StaleTimestamp),
}
# The faults in the frame's own bytes, which fail against any receiver on
# the link: (frame, exception class).
FRAME_FAULTS = {
    name: (frame, expected)
    for name, (frame, make_keystore, expected) in SINGLE_FAULTS.items()
    if make_keystore is _keystore
}


@pytest.mark.parametrize(
    "frame, make_keystore, expected", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS.keys()
)
def test_single_fault_raises_its_own_class(frame, make_keystore, expected):
    with pytest.raises(FrameDecodeError) as raised:
        decode_frame(frame, keystore=make_keystore())
    assert type(raised.value) is expected


# --- single-bit mutation safety -------------------------------------------------


def _expect_every_bitflip_rejected(frame: bytes, decode, keystore):
    for bit in range(len(frame) * 8):
        mutated = bytearray(frame)
        mutated[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(FrameDecodeError):
            decode(bytes(mutated), keystore)


def test_every_bitflip_rejected_signed_frame():
    frame = encode_frame(
        ExtendedHeartbeat(1, 2, NodeState.OPERATING, 64.31, 123.45, -67.89, 3, 4),
        seq=17,
        sys_id=21,
        comp_id=1,
        signing=signing(),
    )
    _expect_every_bitflip_rejected(frame, decode_frame, Keystore({0: SECRET}))


def test_every_bitflip_rejected_unsigned_frame():
    frame = encode_frame(
        LpReservationConfirmation(target_ap_sys_id=9, queue_position=513), 200, 3, 1
    )
    _expect_every_bitflip_rejected(frame, verify_frame, None)


def test_random_frames_random_bitflips_rejected():
    rng = random.Random(2025)
    for _ in range(150):
        msg = ServiceReservationRequest(rng.randint(0, 100), rng.randint(1, 255))
        frame = bytearray(encode_frame(msg, rng.randint(0, 255), rng.randint(1, 255), 1))
        bit = rng.randrange(len(frame) * 8)
        frame[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(FrameDecodeError):
            verify_frame(bytes(frame))


def test_frame_size_bound_constant():
    # magic through checksum is 12 + payload bytes, plus a 13-byte trailer.
    assert wire.MAX_FRAME_LEN == 12 + 255 + 13


# --- dump -------------------------------------------------------------------------


def test_dump_lists_fields_one_per_line():
    ctx = signing(link_id=2)
    frame = encode_frame(ServiceReservationRequest(55, 4), 11, 6, 1, signing=ctx)
    text = dump_frame(frame)
    lines = text.splitlines()
    assert all("=" in line for line in lines)
    assert "magic=0xfd" in lines
    assert "msg_type=ServiceReservationRequest" in text
    assert "priority=55" in text
    assert "target_lp_sys_id=4" in text
    assert "signature.link_id=2" in text
    assert "(ok)" in text


def test_dump_flags_bad_checksum():
    frame = bytearray(encode_frame(SystemStateUpdate(state=NodeState.IDLE), 0, 1, 1))
    frame[-1] ^= 0xFF
    assert "BAD" in dump_frame(bytes(frame))


def test_dump_shows_the_raw_payload_of_an_unknown_msg_id():
    header = bytes([2, 0, 0, 0, 1, 1]) + (42999).to_bytes(3, "little")
    frame = b"\xfd" + header + b"\xab\xcd" + b"\x34\x12"
    lines = dump_frame(frame).splitlines()
    assert lines[-3:] == ["msg_type=UNKNOWN", "payload=0xabcd", "checksum=0x1234"]


def test_dump_reports_a_malformed_payload_and_still_checks_the_checksum():
    text = dump_frame(_frame_with_payload(42004, struct.pack("<B", 99)))
    assert "payload_error=state field out of range: 99" in text.splitlines()
    assert "(ok)" in text
