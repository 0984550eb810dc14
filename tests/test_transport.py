import pytest

import autoserve.transport as transport
import autoserve.wire as wire
from autoserve.transport import InMemoryBus, Outbound
from autoserve.wire import (
    ExtendedHeartbeat,
    FlightStack,
    FrameDecodeError,
    Keystore,
    NodeState,
    SignatureMissing,
    StaleTimestamp,
    SystemStateUpdate,
    VehicleType,
    encode_frame,
)
from test_wire import FRAME_FAULTS

SECRET = bytes(range(32))
HEARTBEAT = ExtendedHeartbeat(
    VehicleType.LANDING_PLATFORM, FlightStack.UNKNOWN, NodeState.IDLE, 100.0, 0.0, 0.0
)


def make_bus(n_aps=3, clock=lambda: 1_000_000):
    """One LP (sys 1) and n_aps APs (sys 2..) on one link signed with SECRET."""
    bus = InMemoryBus(SECRET, clock)
    bus.register(1, "LP")
    for ap_id in range(2, 2 + n_aps):
        bus.register(ap_id, "AP")
    return bus


def count_decode_calls(monkeypatch):
    calls = []
    original = transport.decode_frame

    def counting(frame, keystore):
        calls.append(frame)
        return original(frame, keystore)

    monkeypatch.setattr(transport, "decode_frame", counting)
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
    bus = InMemoryBus(SECRET, lambda: 0)
    for sys_id, kind in ((5, "AP"), (2, "LP"), (9, "AP"), (3, "AP"), (7, "LP")):
        bus.register(sys_id, kind)
    sent = bus.send(7, Outbound(None, HEARTBEAT), now=0.0)
    assert [d.dest_sys_id for d in sent] == [3, 5, 9]
    sent = bus.send(3, Outbound(None, HEARTBEAT), now=0.0)
    assert [d.dest_sys_id for d in sent] == [2, 7]


def test_broadcast_verifies_once_and_replay_checks_each_receiver(monkeypatch):
    bus = make_bus(n_aps=4)
    decode_calls = count_decode_calls(monkeypatch)
    accept_calls = count_accept_calls(monkeypatch)
    bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    due = bus.pop_due(1.0)
    assert len(due) == 4 and len({id(d.frame) for d in due}) == 1
    results = [bus.decode_for(d.dest_sys_id, d.frame) for d in due]
    assert len(decode_calls) == 1
    assert len(accept_calls) == 4
    assert all(msg == HEARTBEAT and header.sys_id == 1 for header, msg, _ in results)


def test_same_frame_twice_to_one_receiver_is_stale():
    bus = make_bus(n_aps=1)
    (delivery,) = bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    bus.decode_for(2, delivery.frame)
    with pytest.raises(StaleTimestamp):
        bus.decode_for(2, delivery.frame)


def test_shared_signer_keeps_each_senders_stream_apart():
    """On a stalled clock the link's one signer still stamps each sender's
    stream 5000, 5001, 5002, and every frame passes every receiver's
    replay check."""
    bus = make_bus(n_aps=2, clock=lambda: 5_000)
    stamps = {1: [], 2: []}
    for _ in range(3):
        for src in (1, 2):
            for delivery in bus.send(src, Outbound(None, HEARTBEAT), now=0.0):
                header, _, signature = bus.decode_for(delivery.dest_sys_id, delivery.frame)
                stamps[header.sys_id].append((delivery.dest_sys_id, signature.timestamp))
    # The LP broadcasts to both APs; AP 2 broadcasts to the LP.
    assert stamps[1] == [(ap, ts) for ts in (5_000, 5_001, 5_002) for ap in (2, 3)]
    assert stamps[2] == [(1, ts) for ts in (5_000, 5_001, 5_002)]


def codec_slots():
    """Every codec slot as (msg_id, sys_id, slot); a slot write stores a new tuple."""
    return [
        (spec.msg_id, sys_id, slot)
        for spec in wire._MESSAGE_SPECS.values()
        for slots in (spec.last_sent, spec.last_received)
        for sys_id, slot in slots.items()
    ]


def same_slots(before, after):
    return len(before) == len(after) and all(
        b[:2] == a[:2] and b[2] is a[2] for b, a in zip(before, after)
    )


@pytest.mark.parametrize("frame, expected", FRAME_FAULTS.values(), ids=FRAME_FAULTS.keys())
def test_corrupted_frame_raises_for_every_receiver_and_commits_nothing(
    monkeypatch, frame, expected
):
    """Each fault a frame can carry raises at every receiver the class
    decode_frame raises for it, and touches no replay state or codec slot."""
    bus = make_bus(n_aps=3)
    bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    accept_calls = count_accept_calls(monkeypatch)
    slots = codec_slots()
    for ap_id in (2, 3, 4):
        with pytest.raises(FrameDecodeError) as raised:
            bus.decode_for(ap_id, frame)
        assert type(raised.value) is expected
    assert accept_calls == []
    assert same_slots(slots, codec_slots())
    # The intact frame still passes the replay check everywhere.
    for delivery in bus.pop_due(1.0):
        bus.decode_for(delivery.dest_sys_id, delivery.frame)


def test_unsigned_frame_is_refused_by_every_receiver(monkeypatch):
    """A frame without a signature, here a forged DEPARTED claiming AP 2,
    fails at each receiver, again on a repeat, and touches no replay state."""
    bus = make_bus(n_aps=2)
    accept_calls = count_accept_calls(monkeypatch)
    forged = encode_frame(SystemStateUpdate(state=NodeState.DEPARTED), 0, 2, 1)
    for dest in (1, 2, 3, 1):
        with pytest.raises(SignatureMissing):
            bus.decode_for(dest, forged)
    assert accept_calls == []


def test_unicast_to_unregistered_sys_id_raises_before_framing():
    """The failed send spends no seq number, signing timestamp or codec slot."""
    bus = make_bus(n_aps=1)
    slots = codec_slots()
    with pytest.raises(ValueError, match="sys_id 9 is not registered"):
        bus.send(1, Outbound(9, SystemStateUpdate(state=NodeState.SERVICING)), now=0.0)
    assert same_slots(slots, codec_slots())
    assert bus.pop_due(1.0) == []
    (delivery,) = bus.send(1, Outbound(2, HEARTBEAT), now=1.0)
    header, _, signature = bus.decode_for(2, delivery.frame)
    assert (header.seq, signature.timestamp) == (0, 1_000_000)


def test_pop_due_with_mixed_deadlines_keeps_later_sends_in_flight():
    bus = make_bus(n_aps=2)
    first = bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    first += bus.send(3, Outbound(1, HEARTBEAT), now=0.0)
    later = bus.send(1, Outbound(None, HEARTBEAT), now=3.0)
    assert bus.pop_due(1.0) == first
    assert bus.pop_due(3.0) == []
    assert bus.pop_due(4.0) == later and len(later) == 2
    assert bus.pop_due(5.0) == []


def test_send_with_earlier_now_pops_at_its_own_deadline():
    bus = make_bus(n_aps=2)
    late = bus.send(1, Outbound(None, HEARTBEAT), now=5.0)
    early = bus.send(1, Outbound(None, HEARTBEAT), now=2.0)
    assert bus.pop_due(3.0) == early
    assert bus.pop_due(5.0) == []
    assert bus.pop_due(6.0) == late
