"""Injected transport between nodes.

Node state machines emit `Outbound` values and never touch sockets or
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
part of decoding that depends on the receiver.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import NamedTuple

from .wire import Keystore, Message, SigningContext, encode_frame, verify_frame


@dataclass(frozen=True)
class Outbound:
    """A message addressed by system id; dest_sys_id None means broadcast."""

    dest_sys_id: int | None
    msg: Message


class Delivery(NamedTuple):
    src_sys_id: int
    dest_sys_id: int
    sent_at: float
    deliver_at: float
    frame: bytes


@dataclass
class _Endpoint:
    peers: list[int]  # sorted sys_ids of the other kind: broadcast targets
    signing: SigningContext | None
    keystore: Keystore | None
    tx_seq: int = 0

    def next_seq(self) -> int:
        seq = self.tx_seq
        self.tx_seq = (seq + 1) & 0xFF
        return seq


@dataclass
class InMemoryBus:
    latency_s: float = 1.0
    _endpoints: dict[int, _Endpoint] = field(default_factory=dict)
    _in_flight: list[Delivery] = field(default_factory=list)
    _by_kind: dict[str, list[int]] = field(default_factory=lambda: {"AP": [], "LP": []})
    # (frame, secret, verify_frame result) of the last frame verified.
    _verified: tuple | None = None

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
        self._endpoints[sys_id] = _Endpoint(peers=peers, signing=signing, keystore=keystore)

    def _destinations(self, src_sys_id: int, dest: int | None) -> list[int]:
        if dest is not None:
            return [dest] if dest in self._endpoints else []
        return self._endpoints[src_sys_id].peers

    def send(self, src_sys_id: int, outbound: Outbound, now: float) -> list[Delivery]:
        """Frame, sign and queue a message; returns the queued deliveries."""
        endpoint = self._endpoints[src_sys_id]
        frame = encode_frame(
            outbound.msg,
            seq=endpoint.next_seq(),
            sys_id=src_sys_id,
            comp_id=1,
            signing=endpoint.signing,
        )
        deliver_at = now + self.latency_s
        queued = [
            Delivery(src_sys_id, dest, now, deliver_at, frame)
            for dest in self._destinations(src_sys_id, outbound.dest_sys_id)
        ]
        self._in_flight.extend(queued)
        return queued

    def pop_due(self, now: float) -> list[Delivery]:
        """Remove and return deliveries due by now, in send order."""
        due = [d for d in self._in_flight if d.deliver_at <= now]
        self._in_flight = [d for d in self._in_flight if d.deliver_at > now]
        return due

    def pending(self) -> int:
        return len(self._in_flight)

    def decode_for(self, dest_sys_id: int, frame: bytes):
        """Decode a frame with the destination endpoint's keystore.

        Reuses the last verification when it was of this frame object under
        the receiver's secret (None for an unsigned frame). Failures are
        never reused, so every receiver of a bad frame raises.
        """
        keystore = self._endpoints[dest_sys_id].keystore
        memo = self._verified
        if memo is not None and memo[0] is frame and memo[1] == _secret(keystore, memo[2][2]):
            header, _, signature = result = memo[2]
        else:
            header, _, signature = result = verify_frame(frame, keystore)
            self._verified = (frame, _secret(keystore, signature), result)
        if signature is not None:
            keystore.accept(signature.link_id, header.sys_id, header.comp_id, signature.timestamp)
        return result


def _secret(keystore: Keystore | None, signature) -> bytes | None:
    """The receiver's secret for a frame's signature; None if unsigned."""
    if signature is None or keystore is None:
        return None
    return keystore.secret_for(signature.link_id)
