"""Injected transport between nodes.

Node state machines emit `Outbound` named tuples and never touch sockets or
frame bytes themselves; the transport owns per-endpoint frame sequence
numbers, signing contexts and keystores. `InMemoryBus` is the simulation
transport: lossless, fixed one-tick latency, deterministic delivery
order. A datagram transport can replace it without touching the nodes.

Broadcast (dest_sys_id None) delivers to every registered node of the
other kind, in sys_id order: heartbeats flow between aerial and landing
platforms, which are the only cross-kind consumers of them.

All deliveries of one send share one frame object. `decode_for` verifies
checksum and signature once per (frame, secret) and runs only the replay
check per receiver: in MAVLink v2 signing the replay state is the only
part of decoding that depends on the receiver. Its memo keeps the last
frame verified with the secret it was verified under and the arguments
of its replay check, so a further receiver of that frame pays one
identity test and one secret lookup before its replay check.

`pop_due` returns the whole in-flight list at once when the latest
deadline queued is due, which is every tick under a fixed latency; with
mixed deadlines it filters, keeping send order.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple

from .wire import Keystore, Message, SigningContext, encode_frame, verify_frame

# Every frame is delivered this long after it is sent: one simulation tick.
LATENCY_S = 1.0


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
    signing: SigningContext | None
    tx_seq: int = 0


class InMemoryBus:
    def __init__(self) -> None:
        self._endpoints: dict[int, _Endpoint] = {}
        self._keystores: dict[int, Keystore | None] = {}
        self._in_flight: list[Delivery] = []
        self._by_kind: dict[str, list[int]] = {"AP": [], "LP": []}
        # The latest deliver_at in _in_flight; -inf when it is empty.
        self._due_by = -math.inf
        # (frame, secret, verify_frame result, Keystore.accept arguments) of
        # the last frame verified; secret and arguments are None for an
        # unsigned frame.
        self._verified: tuple = (None, None, None, None)

    def register(
        self,
        sys_id: int,
        kind: str,
        signing: SigningContext | None = None,
        keystore: Keystore | None = None,
    ) -> None:
        if kind not in self._by_kind:
            raise ValueError(f"kind must be 'AP' or 'LP', got {kind!r}")
        if sys_id in self._endpoints:
            raise ValueError(f"sys_id {sys_id} already registered")
        insort(self._by_kind[kind], sys_id)
        peers = self._by_kind["LP" if kind == "AP" else "AP"]
        self._endpoints[sys_id] = _Endpoint(peers=peers, signing=signing)
        self._keystores[sys_id] = keystore

    def send(self, src_sys_id: int, outbound: Outbound, now: float) -> list[Delivery]:
        """Frame, sign and queue a message; returns the queued deliveries."""
        dest_sys_id, msg = outbound
        endpoint = self._endpoints[src_sys_id]
        seq = endpoint.tx_seq
        endpoint.tx_seq = (seq + 1) & 0xFF
        frame = encode_frame(msg, seq, src_sys_id, 1, endpoint.signing)  # comp_id 1
        deliver_at = now + LATENCY_S
        if deliver_at > self._due_by:
            self._due_by = deliver_at
        if dest_sys_id is None:
            dests = endpoint.peers
        else:
            dests = (dest_sys_id,) if dest_sys_id in self._endpoints else ()
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
        """Decode a frame with the destination endpoint's keystore.

        Reuses the last verification when it was of this frame object and,
        for a signed frame, the receiver holds the same secret for its
        link_id. Failures are never reused, so every receiver of a bad
        frame raises; every receiver of a signed frame runs its replay
        check.
        """
        keystore = self._keystores[dest_sys_id]
        verified_frame, secret, result, accept_args = self._verified
        if verified_frame is not frame or (
            accept_args is not None
            and (keystore is None or keystore.secrets.get(accept_args[0]) != secret)
        ):
            result = verify_frame(frame, keystore)
            header, _, signature = result
            if signature is None:
                secret = accept_args = None
            else:
                link_id = signature.link_id
                secret = keystore.secrets[link_id]
                accept_args = (link_id, header.sys_id, header.comp_id, signature.timestamp)
            self._verified = (frame, secret, result, accept_args)
        if accept_args is not None:
            keystore.accept(*accept_args)
        return result
