"""Injected transport between nodes.

Node state machines emit `Outbound` named tuples and never touch sockets or
frame bytes themselves; the transport owns per-endpoint frame sequence
numbers and the link's signing, and mints each endpoint's keystore.
`InMemoryBus` is the simulation transport: lossless, deterministic
delivery order. A datagram transport can replace it without touching the
nodes.

The bus is one signed link, as in MAVLink v2 signing: one secret and one
link_id (LINK_ID). Every sender signs with the link's one `SigningContext`
at the `now` its send is given, in 10 us units; the context keeps
timestamps per (sys_id, comp_id) stream. `register` returns the endpoint's
`Keystore` of that secret and link_id, with its own replay state.
Receivers verify what they receive: the bus carries frames and never
decodes them.

Broadcast (dest_sys_id None) delivers to every registered node of the
other kind, in sys_id order, and all deliveries of one send share one
frame object. Only vehicle heartbeats are broadcast, to every platform;
platforms send none. A unicast to an unregistered sys_id raises
ValueError before it is framed.

A `Delivery` is a receiver and a frame. The bus keeps no deadline: the
simulator drains it with `pop_due` at the start of each tick, before that
tick's sends, so every frame arrives one tick after it is sent. Nor does
it keep the sender: a receiver learns it from the frame's signed header
sys_id.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple

from .wire import TIMESTAMP_UNITS_PER_S, Keystore, Message, SigningContext, encode_frame

# The link_id every frame on the bus is signed under.
LINK_ID = 0


class Outbound(NamedTuple):
    """A message addressed by system id; dest_sys_id None means broadcast."""

    dest_sys_id: int | None
    msg: Message


class Delivery(NamedTuple):
    """One receiver of a sent frame; the sender is the frame's header sys_id."""

    dest_sys_id: int
    frame: bytes


@dataclass
class _Endpoint:
    peers: list[int]  # sorted sys_ids of the other kind: broadcast targets
    tx_seq: int = 0


class InMemoryBus:
    def __init__(self, secret: bytes) -> None:
        self._secret = secret
        self._signing = SigningContext(secret, LINK_ID)
        self._endpoints: dict[int, _Endpoint] = {}
        self._in_flight: list[Delivery] = []
        self._by_kind: dict[str, list[int]] = {"AP": [], "LP": []}

    def register(self, sys_id: int, kind: str) -> Keystore:
        """Add an endpoint; returns the keystore its receiver verifies with."""
        if kind not in self._by_kind:
            raise ValueError(f"kind must be 'AP' or 'LP', got {kind!r}")
        if sys_id in self._endpoints:
            raise ValueError(f"sys_id {sys_id} already registered")
        insort(self._by_kind[kind], sys_id)
        peers = self._by_kind["LP" if kind == "AP" else "AP"]
        self._endpoints[sys_id] = _Endpoint(peers)
        return Keystore(self._secret, LINK_ID)

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
        ts = int(now * TIMESTAMP_UNITS_PER_S)
        frame = encode_frame(msg, seq, src_sys_id, 1, self._signing, ts)  # comp_id 1
        # tuple.__new__ builds the named tuples without their Python-level __new__.
        new = tuple.__new__
        queued = [new(Delivery, (dest, frame)) for dest in dests]
        self._in_flight.extend(queued)
        return queued

    def pop_due(self, now: float) -> list[Delivery]:
        """Remove and return every delivery in flight, in send order.

        now is unread: the bus holds no deadlines, and a caller that drains
        it before each tick's sends delivers every frame one tick later.
        """
        due, self._in_flight = self._in_flight, []
        return due
