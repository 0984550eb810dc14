import pytest

import autoserve.transport as transport
from autoserve.transport import InMemoryBus, Outbound
from autoserve.wire import (
    HEADER_LEN,
    ChecksumMismatch,
    ExtendedHeartbeat,
    FlightStack,
    Keystore,
    NodeState,
    SignatureInvalid,
    SigningContext,
    StaleTimestamp,
    SystemStateUpdate,
    VehicleType,
)

SECRET = bytes(range(32))
OTHER_SECRET = bytes(range(1, 33))
HEARTBEAT = ExtendedHeartbeat(
    VehicleType.LANDING_PLATFORM, FlightStack.UNKNOWN, NodeState.IDLE, 100.0, 0.0, 0.0
)


def signing(ts=1_000_000):
    return SigningContext(SECRET, 0, lambda: ts)


def make_bus(n_aps=3, ap_secret=SECRET):
    """One signing LP (sys 1) and n_aps APs (sys 2..) holding ap_secret."""
    bus = InMemoryBus()
    bus.register(1, "LP", signing=signing(), keystore=Keystore({0: SECRET}))
    for ap_id in range(2, 2 + n_aps):
        bus.register(ap_id, "AP", signing=signing(), keystore=Keystore({0: ap_secret}))
    return bus


def count_verify_calls(monkeypatch):
    calls = []
    original = transport.verify_frame

    def counting(frame, keystore):
        calls.append(frame)
        return original(frame, keystore)

    monkeypatch.setattr(transport, "verify_frame", counting)
    return calls


def count_accept_calls(monkeypatch):
    calls = []
    original = Keystore.accept

    def counting(self, *stream_and_ts):
        calls.append(stream_and_ts)
        return original(self, *stream_and_ts)

    monkeypatch.setattr(Keystore, "accept", counting)
    return calls


def test_broadcast_goes_to_other_kind_in_sys_id_order():
    bus = InMemoryBus()
    for sys_id, kind in ((5, "AP"), (2, "LP"), (9, "AP"), (3, "AP"), (7, "LP")):
        bus.register(sys_id, kind)
    sent = bus.send(7, Outbound(None, HEARTBEAT), now=0.0)
    assert [d.dest_sys_id for d in sent] == [3, 5, 9]
    sent = bus.send(3, Outbound(None, HEARTBEAT), now=0.0)
    assert [d.dest_sys_id for d in sent] == [2, 7]


def test_broadcast_verifies_once_and_replay_checks_each_receiver(monkeypatch):
    bus = make_bus(n_aps=4)
    verify_calls = count_verify_calls(monkeypatch)
    accept_calls = count_accept_calls(monkeypatch)
    bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    due = bus.pop_due(1.0)
    assert len(due) == 4 and len({id(d.frame) for d in due}) == 1
    results = [bus.decode_for(d.dest_sys_id, d.frame) for d in due]
    assert len(verify_calls) == 1
    assert len(accept_calls) == 4
    assert all(msg == HEARTBEAT and header.sys_id == 1 for header, msg, _ in results)


def test_same_frame_twice_to_one_receiver_is_stale():
    bus = make_bus(n_aps=1)
    (delivery,) = bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    bus.decode_for(2, delivery.frame)
    with pytest.raises(StaleTimestamp):
        bus.decode_for(2, delivery.frame)


def test_receiver_with_other_secret_rejects_after_another_accepted():
    bus = make_bus(n_aps=1)
    bus.register(3, "AP", keystore=Keystore({0: OTHER_SECRET}))
    bus.register(4, "AP")  # no keystore at all
    first, second, third = bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    bus.decode_for(first.dest_sys_id, first.frame)
    with pytest.raises(SignatureInvalid):
        bus.decode_for(second.dest_sys_id, second.frame)
    with pytest.raises(SignatureInvalid):
        bus.decode_for(third.dest_sys_id, third.frame)


def test_corrupted_frame_raises_for_every_receiver_and_commits_nothing(monkeypatch):
    bus = make_bus(n_aps=3)
    accept_calls = count_accept_calls(monkeypatch)
    frame = bytearray(bus.send(1, Outbound(None, HEARTBEAT), now=0.0)[0].frame)
    frame[HEADER_LEN] ^= 0x01
    corrupted = bytes(frame)
    for ap_id in (2, 3, 4):
        with pytest.raises(ChecksumMismatch):
            bus.decode_for(ap_id, corrupted)
    assert accept_calls == []
    # The intact frame still passes the replay check everywhere.
    for delivery in bus.pop_due(1.0):
        bus.decode_for(delivery.dest_sys_id, delivery.frame)


def test_unsigned_frame_shared_by_receivers_without_keystores(monkeypatch):
    bus = InMemoryBus()
    bus.register(1, "LP")
    bus.register(2, "AP")
    bus.register(3, "AP", keystore=Keystore({0: SECRET}))
    verify_calls = count_verify_calls(monkeypatch)
    update = SystemStateUpdate(state=NodeState.IDLE)
    for delivery in bus.send(1, Outbound(None, update), now=0.0):
        _, msg, sig = bus.decode_for(delivery.dest_sys_id, delivery.frame)
        assert msg == update and sig is None
    assert len(verify_calls) == 1


def unsigned_bus(n_aps=2):
    bus = InMemoryBus()
    bus.register(1, "LP")
    for ap_id in range(2, 2 + n_aps):
        bus.register(ap_id, "AP")
    return bus


def test_pop_due_with_mixed_deadlines_keeps_later_sends_in_flight():
    bus = unsigned_bus()
    first = bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    first += bus.send(3, Outbound(1, HEARTBEAT), now=0.0)
    later = bus.send(1, Outbound(None, HEARTBEAT), now=3.0)
    assert bus.pop_due(1.0) == first
    assert bus.pop_due(3.0) == []
    assert bus.pop_due(4.0) == later and len(later) == 2
    assert bus.pop_due(5.0) == []


def test_send_with_earlier_now_pops_at_its_own_deadline():
    bus = unsigned_bus()
    late = bus.send(1, Outbound(None, HEARTBEAT), now=5.0)
    early = bus.send(1, Outbound(None, HEARTBEAT), now=2.0)
    assert bus.pop_due(3.0) == early
    assert bus.pop_due(5.0) == []
    assert bus.pop_due(6.0) == late
