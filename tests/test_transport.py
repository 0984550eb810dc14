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
    decode_frame,
    encode_frame,
)
from test_wire import FRAME_FAULTS

SECRET = bytes(range(32))
HEARTBEAT = ExtendedHeartbeat(
    VehicleType.LANDING_PLATFORM, FlightStack.UNKNOWN, NodeState.IDLE, 100.0, 0.0, 0.0
)


def make_bus(n_aps=3):
    """One LP (sys 1) and n_aps APs (sys 2..) on one link signed with SECRET;
    returns the bus and each endpoint's keystore by sys_id."""
    bus = InMemoryBus(SECRET)
    keystores = {1: bus.register(1, "LP")}
    for ap_id in range(2, 2 + n_aps):
        keystores[ap_id] = bus.register(ap_id, "AP")
    return bus, keystores


def count_accept_calls(monkeypatch):
    calls = []
    original = Keystore.accept

    def counting(self, *stream_and_ts):
        calls.append(stream_and_ts)
        return original(self, *stream_and_ts)

    monkeypatch.setattr(Keystore, "accept", counting)
    return calls


def test_bus_is_a_signed_carrier_only():
    """The bus frames, signs, queues and drains; receivers decode."""
    public = {name for name in vars(InMemoryBus) if not name.startswith("_")}
    assert public == {"register", "send", "pop_due"}
    assert not hasattr(transport, "decode_frame")


def test_register_returns_each_endpoint_its_own_keystore_of_the_link():
    bus = InMemoryBus(SECRET)
    lp, ap = bus.register(1, "LP"), bus.register(2, "AP")
    assert isinstance(lp, Keystore) and isinstance(ap, Keystore) and lp is not ap
    assert lp.link_id == ap.link_id == transport.LINK_ID
    (delivery,) = bus.send(1, Outbound(2, HEARTBEAT), now=0.0)
    # A keystore of another secret refuses what the link signed.
    with pytest.raises(wire.SignatureInvalid):
        decode_frame(delivery.frame, Keystore(bytes(32), transport.LINK_ID))
    # The receiver's keystore accepts it, and the other keystore, whose
    # replay state is its own, accepts it as well.
    decode_frame(delivery.frame, ap)
    decode_frame(delivery.frame, lp)


def test_register_refuses_an_unknown_kind_and_a_repeated_sys_id():
    bus = InMemoryBus(SECRET)
    with pytest.raises(ValueError, match="kind must be 'AP' or 'LP', got 'GS'"):
        bus.register(1, "GS")
    bus.register(1, "LP")
    with pytest.raises(ValueError, match="sys_id 1 already registered"):
        bus.register(1, "AP")


def test_broadcast_goes_to_other_kind_in_sys_id_order():
    bus = InMemoryBus(SECRET)
    for sys_id, kind in ((5, "AP"), (2, "LP"), (9, "AP"), (3, "AP"), (7, "LP")):
        bus.register(sys_id, kind)
    sent = bus.send(7, Outbound(None, HEARTBEAT), now=0.0)
    assert [d.dest_sys_id for d in sent] == [3, 5, 9]
    sent = bus.send(3, Outbound(None, HEARTBEAT), now=0.0)
    assert [d.dest_sys_id for d in sent] == [2, 7]


def test_broadcast_shares_one_frame_that_each_receivers_keystore_accepts(monkeypatch):
    """The bus runs no replay check; each receiver's keystore accepts the
    one frame of a broadcast once."""
    bus, keystores = make_bus(n_aps=4)
    accept_calls = count_accept_calls(monkeypatch)
    bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    due = bus.pop_due(1.0)
    assert len(due) == 4 and len({id(d.frame) for d in due}) == 1
    assert accept_calls == []
    results = [decode_frame(d.frame, keystores[d.dest_sys_id]) for d in due]
    assert accept_calls == [(1, 1, 0)] * 4
    assert all(msg == HEARTBEAT and header.sys_id == 1 for header, msg, _ in results)


def test_same_frame_twice_to_one_receiver_is_stale():
    bus, keystores = make_bus(n_aps=1)
    (delivery,) = bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    decode_frame(delivery.frame, keystores[2])
    with pytest.raises(StaleTimestamp):
        decode_frame(delivery.frame, keystores[2])


def test_shared_signer_keeps_each_senders_stream_apart():
    """Sent three times each at one now, 0.05 s, each sender's stream is
    stamped 5000, 5001, 5002 by the link's one signer, and every frame
    passes every receiver's replay check."""
    bus, keystores = make_bus(n_aps=2)
    stamps = {1: [], 2: []}
    for _ in range(3):
        for src in (1, 2):
            for dest, frame in bus.send(src, Outbound(None, HEARTBEAT), now=0.05):
                header, _, signature = decode_frame(frame, keystores[dest])
                stamps[header.sys_id].append((dest, signature.timestamp))
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
    """Each fault a frame can carry raises, at every receiver's own keystore,
    the class decode_frame raises for it, and touches no replay state or
    codec slot."""
    bus, keystores = make_bus(n_aps=3)
    bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    accept_calls = count_accept_calls(monkeypatch)
    slots = codec_slots()
    for keystore in keystores.values():
        with pytest.raises(FrameDecodeError) as raised:
            decode_frame(frame, keystore)
        assert type(raised.value) is expected
    assert accept_calls == []
    assert same_slots(slots, codec_slots())
    # The intact frame still passes the replay check everywhere.
    for dest, intact in bus.pop_due(1.0):
        decode_frame(intact, keystores[dest])


def test_unsigned_frame_is_refused_by_every_receiver(monkeypatch):
    """A frame without a signature, here a forged DEPARTED claiming AP 2,
    fails at each receiver's keystore, again on a repeat, and touches no
    replay state."""
    _, keystores = make_bus(n_aps=2)
    accept_calls = count_accept_calls(monkeypatch)
    forged = encode_frame(SystemStateUpdate(state=NodeState.DEPARTED), 0, 2, 1)
    for dest in (1, 2, 3, 1):
        with pytest.raises(SignatureMissing):
            decode_frame(forged, keystores[dest])
    assert accept_calls == []


def test_unicast_to_unregistered_sys_id_raises_before_framing():
    """The failed send spends no seq number, signing timestamp or codec slot."""
    bus, keystores = make_bus(n_aps=1)
    slots = codec_slots()
    with pytest.raises(ValueError, match="sys_id 9 is not registered"):
        bus.send(1, Outbound(9, SystemStateUpdate(state=NodeState.SERVICING)), now=10.0)
    assert same_slots(slots, codec_slots())
    assert bus.pop_due(11.0) == []
    (delivery,) = bus.send(1, Outbound(2, HEARTBEAT), now=10.0)
    header, _, signature = decode_frame(delivery.frame, keystores[2])
    assert (header.seq, signature.timestamp) == (0, 1_000_000)


def test_a_frame_is_signed_with_the_time_of_its_send():
    """A send at now is stamped int(now * 100_000), in 10 us units; a
    second frame of that stream at the same now one more, and another
    sender's first frame at that now int(now * 100_000) again."""
    bus, keystores = make_bus(n_aps=1)
    now = 12.345
    stamps = []
    for src in (1, 1, 2):
        ((dest, frame),) = bus.send(src, Outbound(None, HEARTBEAT), now)
        _, _, signature = decode_frame(frame, keystores[dest])
        stamps.append(signature.timestamp)
    assert stamps == [int(now * 100_000), int(now * 100_000) + 1, int(now * 100_000)]


def test_pop_due_returns_every_delivery_in_send_order_whatever_its_now():
    """The bus keeps no deadlines: one pop_due returns each send's
    (dest_sys_id, frame) pairs in send order, whatever now each send and
    the pop were given, and each frame's header names its sender."""
    bus, keystores = make_bus(n_aps=2)
    sent = bus.send(1, Outbound(None, HEARTBEAT), now=0.0)
    sent += bus.send(3, Outbound(1, HEARTBEAT), now=5.0)
    sent += bus.send(2, Outbound(1, HEARTBEAT), now=2.0)
    due = bus.pop_due(1.0)
    assert due == sent
    assert transport.Delivery._fields == ("dest_sys_id", "frame")
    assert [d.dest_sys_id for d in due] == [2, 3, 1, 1]
    senders = [decode_frame(frame, keystores[dest])[0].sys_id for dest, frame in due]
    assert senders == [1, 1, 3, 2]
    assert bus.pop_due(2.0) == []
