import pytest

from autoserve.lp_node import LP_TRANSITIONS, LpNode, ProtocolStateError
from autoserve.reservation import Reservation
from autoserve.wire import (
    ApReservationDecision,
    ExtendedHeartbeat,
    LpReservationConfirmation,
    NodeState,
    ReservationAction,
    ServiceReservationRequest,
    SystemStateUpdate,
    VehicleType,
)


def make_lp(**kwargs):
    defaults = dict(
        service_duration_s=120.0,
        alignment_duration_s=10.0,
        boarding_timeout_s=180.0,
        critical_threshold_pct=15.0,
    )
    defaults.update(kwargs)
    return LpNode(1, (0.0, 0.0), **defaults)


def request(priority, lp=1):
    return ServiceReservationRequest(priority=priority, target_lp_sys_id=lp)


def cancel(lp=1):
    return ApReservationDecision(target_lp_sys_id=lp, decision=ReservationAction.CANCEL)


def update(state):
    return SystemStateUpdate(state=state)


def ap_heartbeat(battery, pos=(0.0, 0.0), state=NodeState.OPERATING):
    return ExtendedHeartbeat(
        vehicle_type=VehicleType.AERIAL_PLATFORM,
        flight_stack=0,
        system_state=state,
        battery_pct=battery,
        pos_x=pos[0],
        pos_y=pos[1],
    )


def confirmations(outbound):
    return [o for o in outbound if isinstance(o.msg, LpReservationConfirmation)]


def check_occupancy_invariant(lp):
    assert (lp.current_ap is not None) == (lp.state is not NodeState.IDLE)


def drive_to_servicing(lp, ap=7, t0=0.0):
    """IDLE -> request -> land -> align until the platform is SERVICING."""
    lp.handle_message(request(60), ap, t0)
    lp.handle_message(update(NodeState.LANDED), ap, t0 + 1)
    lp.tick(t0 + 1 + lp.alignment_duration_s)
    assert lp.state is NodeState.SERVICING
    return t0 + 1 + lp.alignment_duration_s


# --- request handling -----------------------------------------------------------


def test_idle_request_confirmed_at_zero_and_awaits_boarding():
    lp = make_lp()
    out = lp.handle_message(request(60), 7, now=0.0)
    confs = confirmations(out)
    assert len(confs) == 1
    assert confs[0].dest_sys_id == 7
    assert confs[0].msg == LpReservationConfirmation(target_ap_sys_id=7, queue_position=0)
    assert lp.state is NodeState.AWAITING_BOARDING
    assert lp.current_ap == 7
    check_occupancy_invariant(lp)


def test_request_while_servicing_enqueues_and_counts_deck():
    lp = make_lp()
    drive_to_servicing(lp, ap=7)
    out = lp.handle_message(request(80), 9, now=20.0)
    confs = confirmations(out)
    assert len(confs) == 1
    # The vehicle on deck occupies slot zero; first waiter hears one.
    assert confs[0].msg.queue_position == 1
    assert lp.state is NodeState.SERVICING
    assert lp.queue.position_of(9) == 0


def test_request_addressed_elsewhere_ignored():
    lp = make_lp()
    assert lp.handle_message(request(60, lp=2), 7, now=0.0) == []
    assert lp.state is NodeState.IDLE


def test_duplicate_request_gets_exactly_one_reply_and_no_second_entry():
    lp = make_lp()
    drive_to_servicing(lp, ap=7)
    lp.handle_message(request(80), 9, now=20.0)
    out = lp.handle_message(request(80), 9, now=21.0)
    assert len(confirmations(out)) == 1
    assert len(lp.queue) == 1


def test_request_from_boarding_vehicle_repeats_clearance():
    lp = make_lp()
    lp.handle_message(request(60), 7, now=0.0)
    out = lp.handle_message(request(60), 7, now=1.0)
    assert confirmations(out)[0].msg.queue_position == 0


# --- cancel ------------------------------------------------------------------------


def test_cancel_of_boarding_vehicle_reverts_then_clears_next():
    lp = make_lp()
    lp.handle_message(request(60), 7, now=0.0)
    lp.handle_message(request(50), 9, now=1.0)
    out = lp.handle_message(cancel(), 7, now=2.0)
    confs = confirmations(out)
    assert len(confs) == 1
    assert confs[0].dest_sys_id == 9
    assert confs[0].msg.queue_position == 0
    assert lp.current_ap == 9
    assert lp.state is NodeState.AWAITING_BOARDING


def test_cancel_of_boarding_vehicle_with_empty_queue_goes_idle():
    lp = make_lp()
    lp.handle_message(request(60), 7, now=0.0)
    assert lp.handle_message(cancel(), 7, now=1.0) == []
    assert lp.state is NodeState.IDLE
    check_occupancy_invariant(lp)


def test_cancel_of_waiting_reservation_shifts_queue():
    lp = make_lp()
    drive_to_servicing(lp, ap=7)
    lp.handle_message(request(80), 9, now=20.0)
    lp.handle_message(request(70), 10, now=21.0)
    lp.handle_message(cancel(), 9, now=22.0)
    assert lp.queue.position_of(10) == 0


def test_cancel_mid_service_is_ignored():
    lp = make_lp()
    drive_to_servicing(lp, ap=7)
    lp.handle_message(cancel(), 7, now=30.0)
    assert lp.state is NodeState.SERVICING
    assert lp.current_ap == 7


def test_keep_decision_is_a_noop():
    lp = make_lp()
    drive_to_servicing(lp, ap=7)
    lp.handle_message(request(80), 9, now=20.0)
    keep = ApReservationDecision(target_lp_sys_id=1, decision=ReservationAction.KEEP)
    assert lp.handle_message(keep, 9, now=21.0) == []
    assert lp.queue.position_of(9) == 0


# --- phase timing ---------------------------------------------------------------------


def test_landed_starts_alignment_then_service():
    lp = make_lp(alignment_duration_s=10.0)
    lp.handle_message(request(60), 7, now=0.0)
    lp.handle_message(update(NodeState.LANDED), 7, now=5.0)
    assert lp.state is NodeState.ALIGNING
    lp.tick(14.0)
    assert lp.state is NodeState.ALIGNING
    out = lp.tick(15.0)
    assert lp.state is NodeState.SERVICING
    notifications = [o for o in out if isinstance(o.msg, SystemStateUpdate)]
    assert notifications and notifications[0].msg.state is NodeState.SERVICING
    assert notifications[0].dest_sys_id == 7


def test_service_completes_after_service_duration():
    lp = make_lp(alignment_duration_s=0.0)
    lp.handle_message(request(60), 7, now=99.0)
    lp.handle_message(update(NodeState.LANDED), 7, now=100.0)
    lp.tick(100.0)
    assert lp.state is NodeState.SERVICING
    lp.tick(219.0)
    assert lp.state is NodeState.SERVICING
    out = lp.tick(220.0)
    assert lp.state is NodeState.RELEASING
    completions = [
        o
        for o in out
        if isinstance(o.msg, SystemStateUpdate) and o.msg.state is NodeState.SERVICE_COMPLETE
    ]
    assert len(completions) == 1 and completions[0].dest_sys_id == 7
    assert lp.services_completed == 1


def test_tick_twice_at_same_time_emits_nothing_new():
    lp = make_lp()
    lp.handle_message(request(60), 7, now=0.0)
    first = lp.tick(50.0)
    assert first  # at least the heartbeat
    assert lp.tick(50.0) == []


def test_departed_releases_and_clears_next():
    lp = make_lp(alignment_duration_s=0.0, service_duration_s=10.0)
    lp.handle_message(request(60), 7, now=0.0)
    lp.handle_message(request(40), 9, now=0.5)
    lp.handle_message(update(NodeState.LANDED), 7, now=1.0)
    lp.tick(1.0)
    lp.tick(11.0)
    assert lp.state is NodeState.RELEASING
    out = lp.handle_message(update(NodeState.DEPARTED), 7, now=12.0)
    assert lp.current_ap == 9
    assert lp.state is NodeState.AWAITING_BOARDING
    assert confirmations(out)[0].msg.queue_position == 0


def test_boarding_timeout_drops_reservation_and_clears_next():
    lp = make_lp(boarding_timeout_s=180.0)
    lp.handle_message(request(60), 7, now=0.0)
    lp.handle_message(request(50), 9, now=1.0)
    lp.tick(179.0)
    assert lp.current_ap == 7
    out = lp.tick(180.0)
    assert lp.current_ap == 9
    confs = confirmations(out)
    assert confs and confs[0].dest_sys_id == 9


def test_heartbeat_emitted_at_one_hertz():
    lp = make_lp()
    beats = 0
    for now in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
        out = lp.tick(now)
        beats += sum(1 for o in out if isinstance(o.msg, ExtendedHeartbeat))
    assert beats == 3  # t=0, t=1, t=2


# --- robustness --------------------------------------------------------------------


def test_landed_while_idle_is_ignored():
    lp = make_lp()
    assert lp.handle_message(update(NodeState.LANDED), 7, now=0.0) == []
    assert lp.state is NodeState.IDLE


def test_landed_from_wrong_vehicle_is_ignored():
    lp = make_lp()
    lp.handle_message(request(60), 7, now=0.0)
    lp.handle_message(update(NodeState.LANDED), 9, now=1.0)
    assert lp.state is NodeState.AWAITING_BOARDING


def test_illegal_transition_raises():
    lp = make_lp()
    with pytest.raises(ProtocolStateError):
        lp._transition(NodeState.SERVICING)


def test_transition_table_is_complete():
    for state, targets in LP_TRANSITIONS.items():
        assert targets  # no dead ends


# --- auto-reservation -----------------------------------------------------------------


def test_auto_reserve_for_critical_battery():
    lp = make_lp()
    reservation = lp.consider_auto_reserve(ap_heartbeat(10.0, pos=(5.0, 5.0)), 7, now=4.0)
    assert reservation == Reservation(ap_sys_id=7, priority=100, requested_at=4.0)
    assert lp.queue.position_of(7) == 0


def test_auto_reserve_not_triggered_above_threshold():
    lp = make_lp()
    assert lp.consider_auto_reserve(ap_heartbeat(60.0), 7, now=0.0) is None
    assert len(lp.queue) == 0


def test_auto_reserve_defers_to_nearer_platform():
    roster = [(1, (0.0, 0.0)), (2, (10.0, 0.0))]
    lp = make_lp(lp_roster=roster)
    assert lp.consider_auto_reserve(ap_heartbeat(10.0, pos=(9.0, 0.0)), 7, now=0.0) is None


def test_auto_reserve_skips_vehicles_already_reserved_here():
    lp = make_lp()
    lp.handle_message(request(90), 7, now=0.0)  # now boarding
    assert lp.consider_auto_reserve(ap_heartbeat(5.0), 7, now=1.0) is None


def test_critical_heartbeat_confirms_immediately_when_idle():
    lp = make_lp()
    out = lp.handle_message(ap_heartbeat(9.0, pos=(1.0, 1.0)), 7, now=0.0)
    confs = confirmations(out)
    assert confs and confs[0].msg.queue_position == 0
    assert lp.current_ap == 7


def test_random_message_storm_never_faults_the_platform():
    # An unreliable link may deliver anything at any phase; the platform
    # logs and drops what does not fit and keeps its occupancy invariant.
    import random

    rng = random.Random(31)
    lp = make_lp(alignment_duration_s=2.0, service_duration_s=5.0, boarding_timeout_s=20.0)
    now = 0.0
    for _ in range(3000):
        now += rng.random()
        roll = rng.randrange(6)
        sender = rng.randint(2, 12)
        if roll == 0:
            lp.handle_message(request(rng.randint(0, 100), lp=rng.choice((1, 2))), sender, now)
        elif roll == 1:
            lp.handle_message(cancel(lp=rng.choice((1, 2))), sender, now)
        elif roll == 2:
            lp.handle_message(update(NodeState(rng.randrange(14))), sender, now)
        elif roll == 3:
            lp.handle_message(ap_heartbeat(rng.uniform(0, 100)), sender, now)
        else:
            lp.tick(now)
        check_occupancy_invariant(lp)
        ids = [r.ap_sys_id for r in lp.queue.reservations()]
        assert len(ids) == len(set(ids))


def test_priority_order_over_busy_platform():
    # While one vehicle is serviced, a lower-battery (higher-priority)
    # newcomer overtakes an earlier, healthier requester.
    lp = make_lp()
    drive_to_servicing(lp, ap=7)
    lp.handle_message(request(60), 8, now=20.0)  # battery 40
    lp.handle_message(request(75), 9, now=21.0)  # battery 25
    assert lp.queue.position_of(9) == 0
    assert lp.queue.position_of(8) == 1
