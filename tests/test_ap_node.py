import pytest

from autoserve.ap_node import AP_TRANSITIONS, ApNode
from autoserve.lp_node import LpNode, ProtocolStateError
from autoserve.reservation import priority_from_battery
from autoserve.transport import InMemoryBus
from autoserve.wire import (
    ApReservationDecision,
    ExtendedHeartbeat,
    LpReservationConfirmation,
    NodeState,
    ReservationAction,
    ServiceReservationRequest,
    SystemStateUpdate,
    VehicleType,
    decode_frame,
)

ROSTER = [(1, (0.0, 0.0)), (2, (100.0, 0.0))]


def make_ap(ap_id=7, roster=ROSTER, **kwargs):
    return ApNode(ap_id, roster, **kwargs)


def conf(position, ap=7):
    return LpReservationConfirmation(target_ap_sys_id=ap, queue_position=position)


def update(state):
    return SystemStateUpdate(state=state)


def tick(ap, now, battery, pos=(0.0, 0.0)):
    return ap.tick(now, battery, pos)


def requests_in(outbound):
    return [o for o in outbound if isinstance(o.msg, ServiceReservationRequest)]


def cancels_in(outbound):
    return [
        o
        for o in outbound
        if isinstance(o.msg, ApReservationDecision)
        and o.msg.decision is ReservationAction.CANCEL
    ]


def check_reservation_invariant(ap):
    holding = ap.state in (
        NodeState.RESERVED_WAITING,
        NodeState.BOARDING,
        NodeState.LANDED,
        NodeState.BEING_SERVICED,
    )
    assert (ap.current_reservation is not None) == holding


# --- request policy -------------------------------------------------------------


def test_below_threshold_requests_nearest_platform():
    ap = make_ap()
    out = tick(ap, 0.0, battery=49.9, pos=(10.0, 0.0))
    reqs = requests_in(out)
    assert len(reqs) == 1
    assert reqs[0].dest_sys_id == 1  # nearest of the two
    assert reqs[0].msg == ServiceReservationRequest(priority=50, target_lp_sys_id=1)
    assert ap.state is NodeState.REQUEST_PENDING


def test_above_threshold_heartbeat_only():
    ap = make_ap()
    out = tick(ap, 0.0, battery=80.0)
    assert ap.state is NodeState.OPERATING
    assert len(out) == 1 and isinstance(out[0].msg, ExtendedHeartbeat)


def test_priority_formula_at_thirty_percent():
    ap = make_ap()
    out = tick(ap, 0.0, battery=30.0)
    assert requests_in(out)[0].msg.priority == 70


def test_exact_threshold_does_not_request():
    ap = make_ap()
    tick(ap, 0.0, battery=50.0)
    assert ap.state is NodeState.OPERATING


def test_one_heartbeat_per_tick_call():
    """The node keeps no heartbeat clock: each tick broadcasts one, first in
    its list, and the simulator's 1 s tick makes the cadence 1 Hz. The
    message storm below checks the same in every state it reaches."""
    ap = make_ap()
    beats = []
    for now in (0.0, 0.4, 1.0, 2.0):
        out = tick(ap, now, battery=90.0)
        assert isinstance(out[0].msg, ExtendedHeartbeat)
        beats.extend(o for o in out if isinstance(o.msg, ExtendedHeartbeat))
    assert len(beats) == 4
    assert all(o.dest_sys_id is None for o in beats)  # broadcast


def test_reused_heartbeat_frames_get_fresh_seq_and_timestamp():
    """An unchanged heartbeat is one message object, but each send of it is a
    new frame that verifies and passes every receiver's replay check."""
    secret = bytes(range(32))
    ap = make_ap()
    bus = InMemoryBus(secret)
    bus.register(ap.sys_id, "AP")
    keystores = {lp_id: bus.register(lp_id, "LP") for lp_id, _ in ROSTER}
    # Every send at one time, 5_000 units: the sender still stamps each
    # frame later than the last.
    sent_at = 0.05
    beats, received = [], {lp_id: [] for lp_id, _ in ROSTER}
    for now in (0.0, 1.0, 2.0):
        for outbound in tick(ap, now, battery=90.0, pos=(3.0, 4.0)):
            beats.append(outbound.msg)
            bus.send(ap.sys_id, outbound, sent_at)
        for dest, frame in bus.pop_due(sent_at + 1.0):
            header, msg, signature = decode_frame(frame, keystores[dest])
            received[dest].append((header.seq, signature.timestamp, msg))
    assert len(beats) == 3 and beats[0] is beats[1] is beats[2]
    for got in received.values():
        assert [(seq, ts) for seq, ts, _ in got] == [(0, 5_000), (1, 5_001), (2, 5_002)]
        assert all(msg == beats[0] for _, _, msg in got)


@pytest.mark.parametrize("field", ["state", "battery_pct", "pos_x", "pos_y"])
def test_heartbeat_is_new_when_any_field_changes(field):
    ap = make_ap()
    ap.battery_pct, ap.position = 80.0, (1.0, 2.0)
    first = ap.heartbeat()
    assert ap.heartbeat() is first
    if field == "state":
        ap.state = NodeState.REQUEST_PENDING
    elif field == "battery_pct":
        ap.battery_pct = 79.5
    elif field == "pos_x":
        ap.position = (1.5, 2.0)
    else:
        ap.position = (1.0, 2.5)
    second = ap.heartbeat()
    assert second is not first
    assert (second.system_state, second.battery_pct, second.pos_x, second.pos_y) == (
        ap.state, ap.battery_pct, *ap.position
    )
    assert ap.heartbeat() is second


def test_priority_monotone_non_increasing_in_battery():
    values = [priority_from_battery(b / 10) for b in range(0, 1001)]
    assert values == sorted(values, reverse=True)


# --- confirmation evaluation --------------------------------------------------------


def test_position_zero_adjacent_keeps_and_boards():
    ap = make_ap()
    tick(ap, 0.0, battery=49.0, pos=(0.0, 0.0))
    assert ap.evaluate_confirmation(1, 0) is None
    out = ap.handle_message(conf(0), 1, 1.0)
    assert out == []
    assert ap.state is NodeState.BOARDING
    assert ap.current_reservation == 1
    check_reservation_invariant(ap)


def test_integer_roster_boards_toward_a_float_target():
    ap = make_ap(roster=[(1, (3, 4)), (2, (100, 0))])
    assert ap.known_lps == {1: (3.0, 4.0), 2: (100.0, 0.0)}
    tick(ap, 0.0, battery=49.0, pos=(3.0, 4.0))
    ap.handle_message(conf(0), 1, 1.0)
    assert ap.state is NodeState.BOARDING
    # The simulator snaps a boarding vehicle onto this target, and the
    # trace renders it, so 3 and 3.0 would differ there.
    target = ap.known_lps[ap.current_reservation]
    assert repr(target) == "(3.0, 4.0)"
    (heartbeat,) = [o.msg for o in tick(ap, 2.0, 49.0, target) if isinstance(o.msg, ExtendedHeartbeat)]
    assert (type(heartbeat.pos_x), type(heartbeat.pos_y)) == (float, float)


def test_deep_queue_position_exceeds_margin_and_retries():
    ap = make_ap()
    tick(ap, 0.0, battery=49.5, pos=(0.0, 0.0))
    ap.battery_pct = 50.0  # position 4 needs 480 s; budget is 175 s
    assert ap.evaluate_confirmation(1, 4) == 2


def test_full_battery_accepts_position_one():
    ap = make_ap()
    tick(ap, 0.0, battery=49.0, pos=(0.0, 0.0))
    ap.battery_pct = 100.0
    assert ap.evaluate_confirmation(1, 1) is None


def test_travel_time_counts_against_margin():
    ap = make_ap()
    tick(ap, 0.0, battery=20.0, pos=(50.0, 0.0))
    # position 0 but 50 m away at 0.3 m/s is 167 s > (20-15)/0.2 = 25 s
    assert ap.evaluate_confirmation(1, 0) == 2


def test_vehicle_that_cannot_fly_affords_only_the_platform_it_is_on():
    ap = make_ap(cruise_speed_m_per_s=0)
    tick(ap, 0.0, battery=100.0, pos=(0.0, 0.0))
    assert ap.evaluate_confirmation(1, 0) is None
    # Platform 2 is 100 m away: no battery covers an infinite flight.
    assert ap.evaluate_confirmation(2, 0) == 1


def test_confirmation_for_wrong_vehicle_dropped_by_handler():
    ap = make_ap()
    tick(ap, 0.0, battery=49.0)
    assert ap.handle_message(conf(0, ap=9), 1, 1.0) == []
    assert ap.state is NodeState.REQUEST_PENDING
    assert ap.drops == {"ap_confirmation_for_other_ap": 1}


def test_keep_is_monotone_in_queue_position():
    ap = make_ap()
    tick(ap, 0.0, battery=49.0, pos=(0.0, 0.0))
    ap.battery_pct = 49.0
    keeps = [ap.evaluate_confirmation(1, p) is None for p in range(6)]
    # Once a position is rejected, every deeper position is rejected too.
    assert keeps == sorted(keeps, reverse=True)


def test_cancel_emitted_before_replacement_request():
    ap = make_ap()
    tick(ap, 0.0, battery=49.5, pos=(0.0, 0.0))
    ap.battery_pct = 50.0
    out = ap.handle_message(conf(4), 1, 1.0)
    assert len(out) == 2
    assert cancels_in(out[:1]) and out[0].dest_sys_id == 1
    assert requests_in(out[1:]) and out[1].dest_sys_id == 2
    assert ap.state is NodeState.REQUEST_PENDING
    check_reservation_invariant(ap)


def test_accepting_nonzero_position_sends_keep_and_waits():
    ap = make_ap()
    tick(ap, 0.0, battery=49.0, pos=(0.0, 0.0))
    out = ap.handle_message(conf(1), 1, 1.0)
    assert ap.state is NodeState.RESERVED_WAITING
    assert ap.current_reservation == 1
    assert len(out) == 1
    assert out[0].msg.decision is ReservationAction.KEEP
    # Later clearance boards.
    ap.handle_message(conf(0), 1, 5.0)
    assert ap.state is NodeState.BOARDING


def test_exhausted_alternatives_keeps_single_platform_offer():
    ap = make_ap(roster=[(1, (0.0, 0.0))])
    tick(ap, 0.0, battery=49.5, pos=(0.0, 0.0))
    ap.battery_pct = 50.0
    out = ap.handle_message(conf(4), 1, 1.0)
    assert out == [] or not cancels_in(out)
    assert ap.state is NodeState.RESERVED_WAITING
    assert ap.current_reservation == 1


def test_exhausted_alternatives_settles_on_best_offer():
    ap = make_ap()
    tick(ap, 0.0, battery=49.5, pos=(0.0, 0.0))
    ap.battery_pct = 50.0
    first = ap.handle_message(conf(4), 1, 1.0)  # reject, retry LP 2
    assert requests_in(first)[0].dest_sys_id == 2
    second = ap.handle_message(conf(6), 2, 2.0)  # worse; both tried, LP1 was best
    assert cancels_in(second)[0].dest_sys_id == 2
    assert requests_in(second)[0].dest_sys_id == 1
    final = ap.handle_message(conf(5), 1, 3.0)  # settling: accepted regardless
    assert ap.state is NodeState.RESERVED_WAITING
    assert ap.current_reservation == 1
    assert final[0].msg.decision is ReservationAction.KEEP


@pytest.mark.parametrize(
    "roster, offers, settle",
    [
        # The two-platform sequence above: LP 1's offer of 4 was best.
        (ROSTER, [(1, 4), (2, 6)], (1, 5)),
        # Three platforms, the best offer from LP 2, the second one tried.
        (ROSTER + [(3, (200.0, 0.0))], [(1, 6), (2, 1), (3, 2)], (2, 3)),
    ],
    ids=["two-platforms", "best-of-three-second-tried"],
)
def test_settled_episode_does_not_carry_into_the_next(roster, offers, settle):
    ap = make_ap(roster=roster)
    tick(ap, 0.0, battery=49.5, pos=(0.0, 0.0))
    ap.battery_pct = 50.0  # budget 175 s: every offer here is rejected
    now = 1.0
    for lp, position in offers:
        out = ap.handle_message(conf(position), lp, now)
        assert cancels_in(out)[0].dest_sys_id == lp
        now += 1.0
    settled, position = settle
    assert requests_in(out)[0].dest_sys_id == settled
    ap.handle_message(conf(position), settled, now)  # settling: accepted regardless
    assert (ap.state, ap.current_reservation) == (NodeState.RESERVED_WAITING, settled)

    # Serviced at the settled platform, then departs.
    ap.handle_message(conf(0), settled, now + 1)
    assert ap.notify_arrival(now + 2)[0].dest_sys_id == settled
    ap.handle_message(update(NodeState.SERVICING), settled, now + 3)
    ap.handle_message(update(NodeState.SERVICE_COMPLETE), settled, now + 4)
    out = tick(ap, now + 5, battery=100.0)
    assert [o.dest_sys_id for o in out if o.msg == update(NodeState.DEPARTED)] == [settled]
    assert ap.state is NodeState.OPERATING

    # The next episode judges LP 1's offer afresh: rejected, LP 2 asked next.
    out = tick(ap, now + 6, battery=49.5, pos=(0.0, 0.0))
    assert requests_in(out)[0].dest_sys_id == 1
    ap.battery_pct = 50.0
    out = ap.handle_message(conf(4), 1, now + 7)
    assert cancels_in(out)[0].dest_sys_id == 1
    assert requests_in(out)[0].dest_sys_id == 2
    assert ap.state is NodeState.REQUEST_PENDING
    check_reservation_invariant(ap)


def test_stale_clearance_from_cancelled_platform_ignored():
    ap = make_ap()
    tick(ap, 0.0, battery=49.5, pos=(0.0, 0.0))
    ap.battery_pct = 50.0
    ap.handle_message(conf(4), 1, 1.0)  # cancelled LP 1, now pending at LP 2
    assert ap.handle_message(conf(0), 1, 2.0) == []
    assert ap.state is NodeState.REQUEST_PENDING


def test_unsolicited_clearance_from_fresh_platform_is_ignored():
    ap = make_ap()
    tick(ap, 0.0, battery=49.0, pos=(0.0, 0.0))  # requested at LP 1
    assert ap.state is NodeState.REQUEST_PENDING
    assert ap.handle_message(conf(0), 2, 1.0) == []  # LP 2 was never asked
    assert ap.state is NodeState.REQUEST_PENDING
    assert ap.current_reservation is None
    ap.handle_message(conf(1), 1, 2.0)  # reserved at LP 1
    assert ap.state is NodeState.RESERVED_WAITING
    assert ap.handle_message(conf(0), 2, 3.0) == []
    assert ap.state is NodeState.RESERVED_WAITING
    assert ap.current_reservation == 1


def test_clearance_while_operating_is_ignored():
    ap = make_ap()
    assert ap.handle_message(conf(0), 1, 0.0) == []
    assert ap.state is NodeState.OPERATING
    assert ap.drops == {"ap_confirmation_unexpected": 1}


@pytest.mark.parametrize(
    "msg, sender, reason",
    [
        (ServiceReservationRequest(priority=90, target_lp_sys_id=1), 1, "ap_unexpected_message"),
        (
            ApReservationDecision(target_lp_sys_id=1, decision=ReservationAction.CANCEL),
            1,
            "ap_unexpected_message",
        ),
        # Platforms send no heartbeat, so one is unexpected at a vehicle.
        (
            ExtendedHeartbeat(
                vehicle_type=VehicleType.LANDING_PLATFORM,
                flight_stack=0,
                system_state=NodeState.IDLE,
                battery_pct=100.0,
                pos_x=0.0,
                pos_y=0.0,
            ),
            1,
            "ap_unexpected_message",
        ),
        (conf(0, ap=9), 1, "ap_confirmation_for_other_ap"),
        (conf(0), 2, "ap_confirmation_unexpected"),
        (update(NodeState.SERVICING), 2, "ap_state_update_from_other_lp"),
        (update(NodeState.SERVICE_COMPLETE), 1, "ap_state_update_unexpected"),
        (update(NodeState.IDLE), 1, "ap_state_update_unexpected"),
    ],
    ids=[
        "request",
        "decision",
        "platform-heartbeat",
        "confirmation-for-other-ap",
        "clearance-from-other-lp",
        "update-from-other-lp",
        "service-complete-while-waiting",
        "release-notice-while-waiting",
    ],
)
def test_message_the_vehicle_does_not_act_on_changes_nothing(msg, sender, reason):
    ap = make_ap()
    tick(ap, 0.0, battery=49.0)
    ap.handle_message(conf(1), 1, 1.0)
    assert ap.state is NodeState.RESERVED_WAITING
    ap.drain_transitions()
    before = (ap.state, ap.current_reservation)
    assert ap.handle_message(msg, sender, 2.0) == []
    assert (ap.state, ap.current_reservation) == before
    assert ap.transitions == []
    # Each drop raises its own counter by one.
    assert ap.drops == {reason: 1}


# --- state updates ---------------------------------------------------------------------


def _reserve_and_land(ap, now=0.0):
    tick(ap, now, battery=49.0, pos=(0.0, 0.0))
    ap.handle_message(conf(0), 1, now + 1)
    out = ap.notify_arrival(now + 2)
    assert out[0].msg == update(NodeState.LANDED)
    ap.handle_message(update(NodeState.SERVICING), 1, now + 3)
    assert ap.state is NodeState.BEING_SERVICED


def test_service_complete_starts_departure():
    ap = make_ap()
    _reserve_and_land(ap)
    ap.handle_message(update(NodeState.SERVICE_COMPLETE), 1, 10.0)
    assert ap.state is NodeState.DEPARTING
    assert ap.current_reservation is None
    check_reservation_invariant(ap)


def test_service_complete_while_operating_ignored():
    ap = make_ap()
    assert ap.handle_message(update(NodeState.SERVICE_COMPLETE), 1, 0.0) == []
    assert ap.state is NodeState.OPERATING
    assert ap.drops == {"ap_state_update_from_other_lp": 1}


def test_release_notice_returns_a_boarding_vehicle_to_its_request_policy():
    ap = make_ap()
    tick(ap, 0.0, battery=49.0)
    ap.handle_message(conf(0), 1, 1.0)
    assert ap.state is NodeState.BOARDING
    assert ap.handle_message(update(NodeState.IDLE), 1, 181.0) == []
    assert ap.state is NodeState.OPERATING
    check_reservation_invariant(ap)
    # The next tick asks again, nearest platform first.
    assert [o.dest_sys_id for o in requests_in(tick(ap, 182.0, battery=40.0))] == [1]
    assert ap.state is NodeState.REQUEST_PENDING


def test_release_notice_after_touchdown_is_dropped():
    # The platform's timeout crossed the vehicle's LANDED on the link: the
    # vehicle is on the deck, and only BOARDING returns to OPERATING.
    ap = make_ap()
    tick(ap, 0.0, battery=49.0)
    ap.handle_message(conf(0), 1, 1.0)
    ap.notify_arrival(180.0)
    assert ap.handle_message(update(NodeState.IDLE), 1, 181.0) == []
    assert ap.state is NodeState.LANDED
    assert ap.drops == {"ap_state_update_unexpected": 1}


def test_departure_notifies_platform_after_clearing():
    ap = make_ap(departure_clear_s=1.0)
    _reserve_and_land(ap)
    ap.handle_message(update(NodeState.SERVICE_COMPLETE), 1, 10.0)
    out = tick(ap, 11.0, battery=100.0)
    departed = [
        o for o in out if isinstance(o.msg, SystemStateUpdate) and o.msg.state is NodeState.DEPARTED
    ]
    assert departed and departed[0].dest_sys_id == 1
    assert ap.state is NodeState.OPERATING


def test_arrival_outside_boarding_raises():
    ap = make_ap()
    with pytest.raises(ProtocolStateError, match="AP 7: OPERATING -> LANDED"):
        ap.notify_arrival(0.0)


def test_illegal_transition_rejected():
    ap = make_ap()
    with pytest.raises(ProtocolStateError):
        ap._transition(NodeState.LANDED, 0.0)


def test_transition_table_has_no_dead_ends():
    for targets in AP_TRANSITIONS.values():
        assert targets


def test_random_message_storm_never_faults_the_vehicle():
    import random

    rng = random.Random(17)
    ap = make_ap()
    now = 0.0
    battery = 100.0
    serviced_by = None  # the sender of the SERVICE_COMPLETE that began departure
    departures = 0
    for _ in range(3000):
        now += rng.random()
        roll = rng.randrange(6)
        sender = rng.choice((1, 2, 9))
        out = []
        if roll == 0:
            out = ap.handle_message(conf(rng.randrange(4), ap=rng.choice((7, 9))), sender, now)
        elif roll == 1:
            was_serviced = ap.state is NodeState.BEING_SERVICED
            ap.handle_message(update(NodeState(rng.randrange(14))), sender, now)
            if was_serviced and ap.state is NodeState.DEPARTING:
                serviced_by = sender
        elif roll == 2 and ap.state is NodeState.BOARDING:
            out = ap.notify_arrival(now)
        elif roll == 3:
            battery = max(0.0, battery - rng.uniform(0, 2))
            out = tick(ap, now, battery=battery)
        else:
            out = tick(ap, now, battery=battery)
        if roll >= 3:
            # One heartbeat per tick, first in its list, in whatever state the
            # storm left the vehicle and however little time has passed.
            beats = [o for o in out if isinstance(o.msg, ExtendedHeartbeat)]
            assert beats == out[:1]
        for o in out:
            if o.msg == update(NodeState.DEPARTED):
                assert o.dest_sys_id == serviced_by
                departures += 1
            elif isinstance(o.msg, ApReservationDecision) and o.msg.decision is ReservationAction.KEEP:
                assert o.dest_sys_id == ap.current_reservation
        check_reservation_invariant(ap)
    assert departures  # the storm reaches the departure it checks


# --- full exchange against a real landing platform ---------------------------------------


def test_full_service_cycle_returns_both_machines_to_initial_states():
    lp = LpNode(
        1,
        service_duration_s=5.0,
        alignment_duration_s=2.0,
    )
    ap = make_ap(roster=[(1, (0.0, 0.0))])
    inbox: list = []  # (dest, src, msg)

    def post(src, outbound):
        for o in outbound:
            if o.dest_sys_id is not None:
                inbox.append((o.dest_sys_id, src, o.msg))

    now = 0.0
    battery = 49.5
    post(ap.sys_id, tick(ap, now, battery=battery, pos=(0.0, 0.0)))
    transitions = []
    for _ in range(200):
        now += 1.0
        while inbox:
            dest, src, msg = inbox.pop(0)
            node = lp if dest == lp.sys_id else ap
            post(dest, node.handle_message(msg, src, now))
        if ap.state is NodeState.BOARDING:
            post(ap.sys_id, ap.notify_arrival(now))
        post(ap.sys_id, ap.tick(now, battery, (0.0, 0.0)))
        post(lp.sys_id, lp.tick(now))
        transitions.extend(ap.drain_transitions())
        transitions.extend(lp.drain_transitions())
        if (NodeState.BEING_SERVICED, NodeState.DEPARTING) in transitions:
            battery = 100.0  # pod swapped
        if ap.state is NodeState.OPERATING and lp.state is NodeState.IDLE and transitions:
            break
    assert ap.state is NodeState.OPERATING
    assert lp.state is NodeState.IDLE
    assert lp.services_completed == 1
    assert len(lp.queue) == 0
    assert ap.current_reservation is None
    # Both machines walked the full loop.
    assert (NodeState.SERVICING, NodeState.RELEASING) in transitions
    assert (NodeState.BEING_SERVICED, NodeState.DEPARTING) in transitions
