"""Wire protocol for the AutoServe service network.

Frames are MAVLink-v2 style envelopes carrying exactly one message. All
multi-byte integers are little-endian. Layout:

    offset    size  field
    0         1     magic, always 0xFD
    1         1     payload_len (after trailing-zero truncation, >= 1)
    2         1     incompat_flags (bit 0 set: frame carries a signature)
    3         1     compat_flags
    4         1     seq (wraps at 256)
    5         1     sys_id (1-255; 0 is reserved and never emitted)
    6         1     comp_id (1-255)
    7         3     msg_id (24-bit)
    10        n     payload (n = payload_len)
    10+n      2     checksum
    12+n      13    signature, present iff incompat bit 0:
                        link_id (1) | timestamp (6, units of 10 us) | sig (6)

The checksum is CRC-16/X.25 over bytes 1 .. 10+n (everything after the
magic) followed by the per-message crc_extra byte. crc_extra is seeded
from the message name and field signature so that independently built
tooling derives the same constant.

sig is the first six bytes of SHA-256 over
secret_key | frame bytes from magic through checksum | link_id | timestamp.
Sender and receiver both copy a SHA-256 state that has already absorbed
the secret. Timestamps count 10 us units on a clock the sender supplies
and are strictly monotonic per (link_id, sys_id, comp_id) stream on the
sender side; a receiver's Keystore keeps the replay state per stream.

AutoServe message ids live in the custom range 42000-42004.
"""

from __future__ import annotations

import binascii
import hmac
import json
import operator
import struct
from dataclasses import dataclass, fields as dataclass_fields
from enum import Enum, IntEnum
from hashlib import sha256
from typing import Callable, Mapping, NamedTuple, Sequence, Union

MAGIC_V2 = 0xFD
HEADER_LEN = 10
CHECKSUM_LEN = 2
SIGNATURE_LEN = 13
MAX_PAYLOAD_LEN = 255
MAX_FRAME_LEN = HEADER_LEN + MAX_PAYLOAD_LEN + CHECKSUM_LEN + SIGNATURE_LEN
INCOMPAT_SIGNED = 0x01

TIMESTAMP_UNITS_PER_S = 100_000
# A frame from a new stream may lag its link's newest accepted timestamp by this much.
REPLAY_WINDOW_S = 6.0


class WireError(Exception):
    """Base class for all wire-level failures."""


class PayloadTooLarge(WireError):
    """Serialized payload exceeds the 255-byte frame limit."""


class FrameDecodeError(WireError):
    """Base class for decode_frame failures."""


class BadMagic(FrameDecodeError):
    pass


class TruncatedFrame(FrameDecodeError):
    pass


class ChecksumMismatch(FrameDecodeError):
    pass


class UnknownMsgId(FrameDecodeError):
    pass


class MalformedPayload(FrameDecodeError):
    """Payload bytes violate the message's field contracts."""


class SignatureInvalid(FrameDecodeError):
    pass


class SignatureMissing(FrameDecodeError):
    """decode_frame refuses a frame whose header says it is unsigned."""


class StaleTimestamp(FrameDecodeError):
    """Signature timestamp is not newer than the last accepted one."""


# ---------------------------------------------------------------------------
# CRC-16/X.25


# crc_hqx runs the same polynomial MSB-first, so the reflected register is
# computed on bit-reversed bytes and its result bit-reversed back (the
# initial value 0xFFFF is its own reverse).
_REV8 = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def crc16_x25(data: bytes | bytearray) -> int:
    """CRC-16/X.25: poly 0x1021 reflected, init 0xFFFF, final XOR 0xFFFF.

    Check value: crc16_x25(b"123456789") == 0x906E.
    """
    crc = binascii.crc_hqx(data.translate(_REV8), 0xFFFF)
    return (_REV8[crc & 0xFF] << 8 | _REV8[crc >> 8]) ^ 0xFFFF


def compute_checksum(header_and_payload: bytes | bytearray, crc_extra: int) -> int:
    """Frame checksum: CRC-16/X.25 over the input followed by crc_extra.

    The input excludes the magic byte.
    """
    return crc16_x25(header_and_payload + crc_extra.to_bytes(1, "little"))


def _seed_crc_extra(name: str, field_sig: Sequence[tuple[str, str]]) -> int:
    # Seed hashes the name and "ctype name" pairs in wire order, then folds
    # the 16-bit register (before its final XOR) to one byte. Matches the
    # published message-seed rule.
    text = name + " " + "".join(f"{ctype} {fname} " for ctype, fname in field_sig)
    crc = crc16_x25(text.encode("ascii")) ^ 0xFFFF
    return (crc & 0xFF) ^ (crc >> 8)


# ---------------------------------------------------------------------------
# Messages


class NodeState(IntEnum):
    """Mission-state codes shared by both state machines and the wire."""

    # Landing platform states
    IDLE = 0
    AWAITING_BOARDING = 1
    ALIGNING = 2
    SERVICING = 3
    RELEASING = 4
    # Aerial platform states
    OPERATING = 5
    REQUEST_PENDING = 6
    RESERVED_WAITING = 7
    BOARDING = 8
    LANDED = 9
    BEING_SERVICED = 10
    DEPARTING = 11
    # Protocol event markers carried in SystemStateUpdate
    SERVICE_COMPLETE = 12
    DEPARTED = 13


class ReservationAction(IntEnum):
    """Keep/cancel value carried by ApReservationDecision."""

    CANCEL = 0
    KEEP = 1


class VehicleType(IntEnum):
    GENERIC = 0
    AERIAL_PLATFORM = 1
    LANDING_PLATFORM = 2


class FlightStack(IntEnum):
    UNKNOWN = 0
    PX4 = 1
    ARDUPILOT = 2


# Every code bound once as a module global, for the per-tick modules to
# import: in a function, NodeState.X is a class attribute load that CPython
# 3.11 cannot specialise (EnumType defines __getattr__), about 150 ns
# against about 20 ns for a global.
(IDLE, AWAITING_BOARDING, ALIGNING, SERVICING, RELEASING, OPERATING, REQUEST_PENDING,
 RESERVED_WAITING, BOARDING, LANDED, BEING_SERVICED, DEPARTING, SERVICE_COMPLETE,
 DEPARTED) = NodeState
CANCEL, KEEP = ReservationAction
GENERIC, AERIAL_PLATFORM, LANDING_PLATFORM = VehicleType
UNKNOWN, PX4, ARDUPILOT = FlightStack


@dataclass(frozen=True)
class ExtendedHeartbeat:
    """Health beacon with battery, position and mission state.

    component_type and flight_mode are carried opaquely and never
    interpreted by the protocol.
    """

    vehicle_type: int
    flight_stack: int
    system_state: NodeState
    battery_pct: float
    pos_x: float
    pos_y: float
    component_type: int = 0
    flight_mode: int = 0


@dataclass(frozen=True)
class ServiceReservationRequest:
    priority: int
    target_lp_sys_id: int


@dataclass(frozen=True)
class LpReservationConfirmation:
    target_ap_sys_id: int
    queue_position: int


@dataclass(frozen=True)
class ApReservationDecision:
    target_lp_sys_id: int
    decision: ReservationAction


@dataclass(frozen=True)
class SystemStateUpdate:
    state: NodeState


Message = Union[
    ExtendedHeartbeat,
    ServiceReservationRequest,
    LpReservationConfirmation,
    ApReservationDecision,
    SystemStateUpdate,
]


# C type -> (struct code, lowest value, highest value)
_CTYPES = {
    "uint8_t": ("B", 0, 0xFF),
    "uint16_t": ("H", 0, 0xFFFF),
    "int32_t": ("i", -(2**31), 2**31 - 1),
}


class _Field(NamedTuple):
    """One payload field in wire order.

    seed_name is the field's name in the crc_extra seed when it differs
    from the attribute. lo and hi narrow the C type's range, in wire
    units. A scaled field travels as round(value * scale); an enum field
    must carry one of its enum's codes.
    """

    attr: str
    ctype: str
    seed_name: str | None = None
    lo: int | None = None
    hi: int | None = None
    scale: float | None = None
    enum: type[IntEnum] | None = None


class _MessageSpec:
    """One message's codec, generated entirely from its field table.

    pack(msg) and unpack(payload) are straight-line functions compiled
    once per message from the rows, as dataclasses builds its methods.

    field_names lists the message's fields in dataclass order, the order of
    its field dict and JSON text; json_template and json_values are the
    %-template of that JSON and the attrgetter that fills it (a bare value,
    not a tuple, for a one-field message). Scaled fields hold floats; every
    other field holds an int.

    last_sent and last_received hold one slot per sending sys_id: the last
    message encode_frame packed and its sent payload, and the last payload
    verify_frame unpacked and its message. A node whose reported fields are
    unchanged sends its previous message object again, so a repeat is
    caught by its own stream's slot, and the one-byte sys_id bounds them.
    """

    def __init__(self, msg_id: int, wire_name: str, cls: type, fields: Sequence[_Field]):
        self.msg_id = msg_id
        # The header carries msg_id as its low 16 and high 8 bits.
        self.msg_id_lo, self.msg_id_hi = msg_id & 0xFFFF, msg_id >> 16
        self.cls = cls
        self.fields = tuple(fields)
        self.struct = struct.Struct("<" + "".join(_CTYPES[f.ctype][0] for f in fields))
        self.size = self.struct.size
        if self.size > MAX_PAYLOAD_LEN:
            raise PayloadTooLarge(f"{self.size} byte payload exceeds {MAX_PAYLOAD_LEN}")
        self.crc_extra = _seed_crc_extra(
            wire_name, [(f.ctype, f.seed_name or f.attr) for f in fields]
        )
        self.field_names = tuple(f.name for f in dataclass_fields(cls))
        scaled = {f.attr for f in fields if f.scale is not None}
        self.json_template = "{" + ",".join(
            f'"{name}":%{"r" if name in scaled else "d"}' for name in self.field_names
        ) + "}"
        self.json_values = operator.attrgetter(*self.field_names)
        self.last_sent: dict[int, tuple[Message, bytes]] = {}
        self.last_received: dict[int, tuple[bytes, Message]] = {}
        self.pack, self.unpack = _compile_codec(self)


def _compile_codec(spec: _MessageSpec) -> tuple[Callable, Callable]:
    """Write and exec one message's pack(msg) and unpack(payload).

    pack converts each field once and range-checks it with one chained
    comparison; a scaled value is checked before round() so that infinity,
    NaN and an int too large for a float fail like any other value off the
    wire. unpack checks only the ranges narrower than the C type, and
    builds the frozen instance by filling its __dict__ in the order of
    the dataclass's fields, as the dataclass's __init__ does.
    """
    env = {"_pack": spec.struct.pack, "_unpack_from": spec.struct.unpack_from,
           "_new": object.__new__, "_cls": spec.cls, "MalformedPayload": MalformedPayload}
    raw = [f"v{i}" for i in range(len(spec.fields))]
    pack, unpack, values = "", "", {}
    for v, f in zip(raw, spec.fields):
        _, type_lo, type_hi = _CTYPES[f.ctype]
        lo, hi = type_lo if f.lo is None else f.lo, type_hi if f.hi is None else f.hi
        values[f.attr] = v if f.scale is None else f"{v} / {f.scale!r}"
        if f.enum is not None:
            lo, hi = 0, max(f.enum)
            # Members by code; raises unless the codes run 0, 1, 2, ...
            env[f"_{v}_members"] = tuple(map(f.enum, range(hi + 1)))
            values[f.attr] = f"_{v}_members[{v}]"
        off_wire = f'raise ValueError(f"{f.attr} out of range: {{msg.{f.attr}!r}}")'
        if f.scale is None:
            pack += f"\n    {v} = int(msg.{f.attr})"
        else:
            pack += f"\n    try: {v} = float(msg.{f.attr}) * {f.scale!r}"
            pack += f"\n    except OverflowError: {off_wire} from None"
            pack += f"\n    if not {lo - 1} < {v} < {hi + 1}: {off_wire}"
            pack += f"\n    {v} = round({v})"
        pack += f"\n    if not {lo} <= {v} <= {hi}: {off_wire}"
        if (lo, hi) != (type_lo, type_hi):
            unpack += f"\n    if not {lo} <= {v} <= {hi}: raise MalformedPayload("
            unpack += f'f"{f.attr} field out of range: {{{v}}}")'
    attrs = ", ".join(f"{name}={values[name]}" for name in spec.field_names)
    exec(f"""
def pack(msg):{pack}
    return _pack({", ".join(raw)})
def unpack(payload):
    if len(payload) < {spec.size}:
        payload += bytes({spec.size} - len(payload))
    {", ".join(raw)}, = _unpack_from(payload){unpack}
    msg = _new(_cls)
    msg.__dict__.update({attrs})
    return msg
""", env)
    return env["pack"], env["unpack"]


# The message table: each message's fields exactly once, in wire order.
_MESSAGE_SPECS: dict[int, _MessageSpec] = {
    spec.msg_id: spec
    for spec in (
        _MessageSpec(42000, "EXTENDED_HEARTBEAT", ExtendedHeartbeat, [
            _Field("vehicle_type", "uint8_t"),
            _Field("flight_stack", "uint8_t"),
            _Field("component_type", "uint8_t"),
            _Field("flight_mode", "uint8_t"),
            _Field("system_state", "uint8_t", enum=NodeState),
            _Field("battery_pct", "uint16_t", "battery_cpct", hi=10000, scale=100.0),
            _Field("pos_x", "int32_t", "pos_x_cm", scale=100.0),
            _Field("pos_y", "int32_t", "pos_y_cm", scale=100.0),
        ]),
        _MessageSpec(42001, "SERVICE_RESERVATION_REQUEST", ServiceReservationRequest, [
            _Field("priority", "uint8_t", hi=100),
            _Field("target_lp_sys_id", "uint8_t", lo=1),
        ]),
        _MessageSpec(42002, "LP_RESERVATION_CONFIRMATION", LpReservationConfirmation, [
            _Field("target_ap_sys_id", "uint8_t", lo=1),
            _Field("queue_position", "uint16_t"),
        ]),
        _MessageSpec(42003, "AP_RESERVATION_DECISION", ApReservationDecision, [
            _Field("target_lp_sys_id", "uint8_t", lo=1),
            _Field("decision", "uint8_t", enum=ReservationAction),
        ]),
        _MessageSpec(42004, "SYSTEM_STATE_UPDATE", SystemStateUpdate, [
            _Field("state", "uint8_t", enum=NodeState),
        ]),
    )
}

_SPEC_BY_TYPE: dict[type, _MessageSpec] = {
    spec.cls: spec for spec in _MESSAGE_SPECS.values()
}
_SPEC_BY_NAME: dict[str, _MessageSpec] = {
    spec.cls.__name__: spec for spec in _MESSAGE_SPECS.values()
}


def message_to_fields(msg: Message) -> dict:
    """Flatten a message into a JSON-friendly field dict."""
    out = {}
    for name in _SPEC_BY_TYPE[type(msg)].field_names:
        value = getattr(msg, name)
        out[name] = int(value) if isinstance(value, Enum) else value
    return out


# The trace's one JSON encoder: each trace line equals its text for the line's value.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":")).encode


def message_json(msg: Message) -> str:
    """The compact JSON text of message_to_fields(msg), rendered directly."""
    spec = _SPEC_BY_TYPE[type(msg)]
    text = spec.json_template % spec.json_values(msg)
    # %r spells a non-finite float inf or nan, which JSON spells otherwise.
    if "inf" in text or "nan" in text:
        return _COMPACT_JSON(message_to_fields(msg))
    return text


def message_from_fields(type_name: str, fields: Mapping) -> Message:
    """Rebuild a message from its class name and field dict."""
    spec = _SPEC_BY_NAME.get(type_name)
    if spec is None:
        raise ValueError(f"unknown message type {type_name!r}")
    kwargs = dict(fields)
    for f in spec.fields:
        if f.enum is not None and f.attr in kwargs:
            kwargs[f.attr] = f.enum(kwargs[f.attr])
    return spec.cls(**kwargs)


# ---------------------------------------------------------------------------
# Frame header and signature


class FrameHeader(NamedTuple):
    payload_len: int
    incompat_flags: int
    compat_flags: int
    seq: int
    sys_id: int
    comp_id: int
    msg_id: int
    magic: int = MAGIC_V2


class Signature(NamedTuple):
    link_id: int
    timestamp: int
    sig: bytes


class SigningContext:
    """Sender-side signing state: secret, link id and monotonic timestamps.

    Each (link_id, sys_id, comp_id) stream gets strictly increasing
    timestamps even when the clock source stalls.
    """

    def __init__(self, secret_key: bytes, link_id: int, timestamp_source: Callable[[], int]):
        if len(secret_key) != 32:
            raise ValueError("secret_key must be exactly 32 bytes")
        if not 0 <= link_id <= 255:
            raise ValueError("link_id must fit in one byte")
        # SHA-256 with the secret already absorbed; each signature copies it.
        self.keyed_sha256 = sha256(secret_key)
        self.link_id = link_id
        self._timestamp_source = timestamp_source
        # Each stream's last timestamp in a one-element list, updated in place.
        self._last: dict[tuple[int, int, int], list[int]] = {}

    def next_timestamp(self, sys_id: int, comp_id: int) -> int:
        ts = int(self._timestamp_source())
        last = self._last.get((self.link_id, sys_id, comp_id))
        if last is None:
            self._last[(self.link_id, sys_id, comp_id)] = [ts]
            return ts
        if ts <= last[0]:
            ts = last[0] + 1
        last[0] = ts
        return ts


class Keystore:
    """Receiver-side secrets plus per-stream replay protection.

    Timestamps must strictly increase per (link_id, sys_id, comp_id)
    stream; frames from a new stream are rejected when they lag the
    link's newest accepted timestamp by more than REPLAY_WINDOW_S.
    """

    def __init__(self, keys: Mapping[int, bytes] | None = None):
        # link_id -> SHA-256 with that link's secret already absorbed.
        self.keyed_sha256 = {}
        for link_id, secret_key in (keys or {}).items():
            if len(secret_key) != 32:
                raise ValueError("secret_key must be exactly 32 bytes")
            self.keyed_sha256[int(link_id)] = sha256(secret_key)
        # Each stream's last timestamp in a one-element list, updated in place.
        self._last: dict[tuple[int, int, int], list[int]] = {}
        self._link_max: dict[int, int] = {}

    def accept(self, link_id: int, sys_id: int, comp_id: int, ts: int) -> None:
        """Replay check of one verified frame; records ts only if it passes."""
        stream = (link_id, sys_id, comp_id)
        last = self._last.get(stream)
        link_max = self._link_max.get(link_id)
        if last is None:
            if link_max is not None and ts < link_max - REPLAY_WINDOW_S * TIMESTAMP_UNITS_PER_S:
                raise StaleTimestamp(
                    f"timestamp {ts} lags link maximum {link_max} beyond the replay window"
                )
            self._last[stream] = [ts]
        elif ts <= last[0]:
            raise StaleTimestamp(f"timestamp {ts} <= last accepted {last[0]}")
        else:
            last[0] = ts
        if link_max is None or ts > link_max:
            self._link_max[link_id] = ts


# ---------------------------------------------------------------------------
# Frame codec


# magic .. comp_id, then msg_id as its low 16 and high 8 bits.
_HEADER = struct.Struct("<7BHB")
_CHECKSUM = struct.Struct("<H")
# link_id, timestamp as its low 32 and high 16 bits, sig.
_SIGNATURE_BLOCK = struct.Struct("<BIH6s")
# The checksum, then the signature block up to sig: the end of the signed bytes.
_SIGNED_TAIL = struct.Struct("<HBIH")
# Signed bytes end after link_id and timestamp, 7 bytes past the checksum.
_SIGNED_TRAILER_LEN = SIGNATURE_LEN - 6
# Builds the named tuples without their Python-level __new__.
_new_tuple = tuple.__new__


def encode_frame(
    msg: Message,
    seq: int,
    sys_id: int,
    comp_id: int,
    signing: SigningContext | None = None,
) -> bytes:
    """Encode one message into a frame, optionally signed.

    seq wraps modulo 256. sys_id and comp_id must be 1-255; id 0 is the
    reserved broadcast placeholder and is never emitted. Sending the
    message object that sys_id last sent reuses that send's payload.
    """
    spec = _SPEC_BY_TYPE.get(type(msg))
    if spec is None:
        raise TypeError(f"not a wire message: {type(msg).__name__}")
    if not 1 <= sys_id <= 255:
        raise ValueError(f"sys_id must be 1-255, got {sys_id}")
    if not 1 <= comp_id <= 255:
        raise ValueError(f"comp_id must be 1-255, got {comp_id}")

    last = spec.last_sent.get(sys_id)
    if last is not None and last[0] is msg:
        payload = last[1]
    else:
        payload = spec.pack(msg)
        # Trailing zero bytes are implied; at least one payload byte is sent.
        payload = payload.rstrip(b"\x00") or payload[:1]
        # The slot keeps msg alive, so no new object can take its address.
        spec.last_sent[sys_id] = msg, payload

    incompat = INCOMPAT_SIGNED if signing is not None else 0
    body = _HEADER.pack(
        MAGIC_V2, len(payload), incompat, 0, seq & 0xFF, sys_id, comp_id,
        spec.msg_id_lo, spec.msg_id_hi,
    ) + payload
    checksum = compute_checksum(body[1:], spec.crc_extra)
    if signing is None:
        return body + _CHECKSUM.pack(checksum)
    ts = signing.next_timestamp(sys_id, comp_id)
    signed = body + _SIGNED_TAIL.pack(checksum, signing.link_id, ts & 0xFFFFFFFF, ts >> 32)
    hasher = signing.keyed_sha256.copy()
    hasher.update(signed)
    return signed + hasher.digest()[:6]


def _parse_frame(data: bytes) -> tuple[FrameHeader, bytes, int, Signature | None, int]:
    """Structural parse: header, payload bytes, stored checksum, signature.

    The one parse of a frame's layout, for verify_frame and dump_frame.
    Returns the end offset of the checksummed region as the final element.
    Raises BadMagic or TruncatedFrame only; no integrity checks here.
    """
    size = len(data)
    if size < HEADER_LEN or data[0] != MAGIC_V2:
        if size == 0:
            raise TruncatedFrame("empty byte sequence")
        if data[0] != MAGIC_V2:
            raise BadMagic(f"expected 0x{MAGIC_V2:02X}, got 0x{data[0]:02X}")
        raise TruncatedFrame(f"{size} bytes is shorter than the frame header")

    _, length, incompat, compat, seq, sys_id, comp_id, id_lo, id_hi = _HEADER.unpack_from(data)
    end = HEADER_LEN + length + CHECKSUM_LEN
    total = end + SIGNATURE_LEN if incompat & INCOMPAT_SIGNED else end
    if size < total:
        raise TruncatedFrame(f"need {total} bytes, got {size}")
    fields = (length, incompat, compat, seq, sys_id, comp_id, id_lo | id_hi << 16, MAGIC_V2)
    header = _new_tuple(FrameHeader, fields)
    payload = data[HEADER_LEN : end - CHECKSUM_LEN]
    stored_crc = data[end - 2] | data[end - 1] << 8
    signature = None
    if total > end:
        link_id, ts_lo, ts_hi, sig = _SIGNATURE_BLOCK.unpack_from(data, end)
        signature = _new_tuple(Signature, (link_id, ts_lo | ts_hi << 32, sig))
    return header, payload, stored_crc, signature, end


def verify_frame(
    data: bytes, keystore: Keystore | None = None
) -> tuple[FrameHeader, Message, Signature | None]:
    """Parse and verify one frame without touching any replay state.

    _parse_frame reads the header, payload, checksum and signature block,
    and raises BadMagic or TruncatedFrame. Then the msg_id, the checksum
    and, for a signed frame, the signature against the keystore's secret
    for its link_id are checked, and the payload is unpacked. The result
    depends only on the bytes and that secret; decode_frame adds the
    refusal of unsigned frames and the keystore's replay check. Bytes
    after the end of the frame are ignored.

    A frame whose payload bytes equal those of the last frame of its
    msg_id that passed every check from the same sys_id reuses that
    frame's message object: equal bytes unpack to equal messages.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    header, payload, stored_crc, signature, end = _parse_frame(data)
    spec = _MESSAGE_SPECS.get(header.msg_id)
    if spec is None:
        raise UnknownMsgId(f"msg_id {header.msg_id}")

    computed = compute_checksum(data[1 : end - CHECKSUM_LEN], spec.crc_extra)
    if computed != stored_crc:
        raise ChecksumMismatch(f"stored 0x{stored_crc:04X}, computed 0x{computed:04X}")

    if signature is not None:
        if keystore is None:
            raise SignatureInvalid("signed frame but no keystore supplied")
        keyed = keystore.keyed_sha256.get(signature.link_id)
        if keyed is None:
            raise SignatureInvalid(f"no key for link_id {signature.link_id}")
        hasher = keyed.copy()
        hasher.update(data[: end + _SIGNED_TRAILER_LEN])
        if not hmac.compare_digest(hasher.digest()[:6], signature.sig):
            raise SignatureInvalid("signature does not match frame contents")

    last = spec.last_received.get(header.sys_id)
    if last is not None and last[0] == payload:
        msg = last[1]
    else:
        msg = spec.unpack(payload)
        spec.last_received[header.sys_id] = payload, msg
    return header, msg, signature


def decode_frame(data: bytes, keystore: Keystore) -> tuple[FrameHeader, Message, Signature]:
    """Decode one frame as a receiver on a signed link.

    A frame whose header says it is unsigned is refused with
    SignatureMissing before any other check runs, so it never reaches a
    codec slot. Any other frame passes verify_frame against the keystore's
    secret and then its per-stream replay check. A frame that fails any
    check leaves the keystore unchanged.
    """
    if len(data) >= HEADER_LEN and data[0] == MAGIC_V2 and not data[2] & INCOMPAT_SIGNED:
        raise SignatureMissing("receiver policy requires signed frames")
    header, msg, signature = verify_frame(data, keystore)
    keystore.accept(signature.link_id, header.sys_id, header.comp_id, signature.timestamp)
    return header, msg, signature


def dump_frame(data: bytes) -> str:
    """Developer utility: render a frame as one `name=value` line per field.

    Performs structural parsing and checksum comparison but no signature
    verification (the secret is usually not at hand when debugging).
    """
    data = bytes(data)
    header, payload, stored_crc, signature, end = _parse_frame(data)
    lines = [
        f"magic=0x{header.magic:02x}",
        f"payload_len={header.payload_len}",
        f"incompat_flags=0x{header.incompat_flags:02x}",
        f"compat_flags=0x{header.compat_flags:02x}",
        f"seq={header.seq}",
        f"sys_id={header.sys_id}",
        f"comp_id={header.comp_id}",
        f"msg_id={header.msg_id}",
    ]
    spec = _MESSAGE_SPECS.get(header.msg_id)
    if spec is None:
        lines.append("msg_type=UNKNOWN")
        lines.append(f"payload=0x{payload.hex()}")
        lines.append(f"checksum=0x{stored_crc:04x}")
    else:
        lines.append(f"msg_type={spec.cls.__name__}")
        try:
            msg = spec.unpack(payload)
            for name, value in message_to_fields(msg).items():
                lines.append(f"{name}={value}")
        except MalformedPayload as exc:
            lines.append(f"payload_error={exc}")
        computed = compute_checksum(data[1 : end - CHECKSUM_LEN], spec.crc_extra)
        status = "ok" if computed == stored_crc else f"BAD, computed 0x{computed:04x}"
        lines.append(f"checksum=0x{stored_crc:04x} ({status})")
    if signature is not None:
        lines.append(f"signature.link_id={signature.link_id}")
        lines.append(f"signature.timestamp={signature.timestamp}")
        lines.append(f"signature.sig={signature.sig.hex()}")
    return "\n".join(lines)
