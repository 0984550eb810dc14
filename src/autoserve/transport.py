"""Injected transport between nodes.

Node state machines emit `Outbound` named tuples and never touch sockets or
frame bytes themselves; the transport owns per-endpoint frame sequence
numbers, the link's signing and each endpoint's keystore. `InMemoryBus` is
the simulation transport: lossless, fixed one-tick latency, deterministic
delivery order. A datagram transport can replace it without touching the
nodes.

The bus is one signed link, as in MAVLink v2 signing: one secret, one
link_id (LINK_ID) and one timestamp clock. Every sender signs with the
link's one `SigningContext`, which keeps timestamps per (link_id, sys_id,
comp_id) stream, and every endpoint holds a `Keystore` of that secret with
its own replay state. Every receiver decodes with `decode_frame`, which
refuses an unsigned frame.

Broadcast (dest_sys_id None) delivers to every registered node of the
other kind, in sys_id order. Only vehicle heartbeats are broadcast, to
every platform; platforms send none. A unicast to an unregistered
sys_id raises ValueError before it is framed.

All deliveries of one send share one frame object. `decode_for` decodes
a new frame with `decode_frame` at its first receiver and remembers the
frame and its result; a further receiver of that frame object runs only
its own replay check, the one part of decoding that depends on the
receiver.

`pop_due` returns the whole in-flight list at once when the latest
deadline queued is due, which is every tick under a fixed latency; with
mixed deadlines it filters, keeping send order.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .wire import Keystore, Message, SigningContext, decode_frame, encode_frame

# Every frame is delivered this long after it is sent: one simulation tick.
LATENCY_S = 1.0
# The link_id every frame on the bus is signed under.
LINK_ID = 0


class Outbound(NamedTuple):
    """A message addressed by system id; dest_sys_id None means broadcast."""

    dest_sys_id: int | None
    msg: Message


class Delivery(NamedTuple):
    src_sys_id: int
    dest_sys_id: int
    deliver_at: float
    frame: bytes


@dataclass
class _Endpoint:
    peers: list[int]  # sorted sys_ids of the other kind: broadcast targets
    tx_seq: int = 0


class InMemoryBus:
    def __init__(self, secret: bytes, timestamp_source: Callable[[], int]) -> None:
        self._secret = secret
        self._signing = SigningContext(secret, LINK_ID, timestamp_source)
        self._endpoints: dict[int, _Endpoint] = {}
        self._keystores: dict[int, Keystore] = {}
        self._in_flight: list[Delivery] = []
        self._by_kind: dict[str, list[int]] = {"AP": [], "LP": []}
        # The latest deliver_at in _in_flight; -inf when it is empty.
        self._due_by = -math.inf
        # The last frame decode_frame accepted, and its result.
        self._decoded: tuple = (None, None)

    def register(self, sys_id: int, kind: str) -> None:
        if kind not in self._by_kind:
            raise ValueError(f"kind must be 'AP' or 'LP', got {kind!r}")
        if sys_id in self._endpoints:
            raise ValueError(f"sys_id {sys_id} already registered")
        insort(self._by_kind[kind], sys_id)
        peers = self._by_kind["LP" if kind == "AP" else "AP"]
        self._endpoints[sys_id] = _Endpoint(peers=peers)
        self._keystores[sys_id] = Keystore({LINK_ID: self._secret})

    def send(self, src_sys_id: int, outbound: Outbound, now: float) -> list[Delivery]:
        """Frame, sign and queue a message; returns the queued deliveries."""
        dest_sys_id, msg = outbound
        endpoint = self._endpoints[src_sys_id]
        if dest_sys_id is None:
            dests = endpoint.peers
        elif dest_sys_id in self._endpoints:
            dests = (dest_sys_id,)
        else:
            raise ValueError(f"sys_id {dest_sys_id} is not registered")
        seq = endpoint.tx_seq
        endpoint.tx_seq = (seq + 1) & 0xFF
        frame = encode_frame(msg, seq, src_sys_id, 1, self._signing)  # comp_id 1
        deliver_at = now + LATENCY_S
        if deliver_at > self._due_by:
            self._due_by = deliver_at
        # tuple.__new__ builds the named tuples without their Python-level __new__.
        new = tuple.__new__
        queued = [new(Delivery, (src_sys_id, dest, deliver_at, frame)) for dest in dests]
        self._in_flight.extend(queued)
        return queued

    def pop_due(self, now: float) -> list[Delivery]:
        """Remove and return deliveries due by now, in send order."""
        if self._due_by <= now:
            due, self._in_flight = self._in_flight, []
            self._due_by = -math.inf
            return due
        due = [d for d in self._in_flight if d.deliver_at <= now]
        self._in_flight = [d for d in self._in_flight if d.deliver_at > now]
        return due

    def decode_for(self, dest_sys_id: int, frame: bytes):
        """Decode a signed frame with the destination endpoint's keystore.

        A further receiver of the last frame object decoded runs only its
        replay check. Failures are never remembered, so every receiver of
        a bad or unsigned frame raises.
        """
        keystore = self._keystores[dest_sys_id]
        decoded_frame, result = self._decoded
        if decoded_frame is not frame:
            result = decode_frame(frame, keystore)
            self._decoded = frame, result
            return result
        header, _, signature = result
        keystore.accept(signature.link_id, header.sys_id, header.comp_id, signature.timestamp)
        return result
