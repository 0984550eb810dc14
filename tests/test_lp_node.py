import pytest

from autoserve.ap_node import AP_TRANSITIONS, ApNode
from autoserve.lp_node import LP_TRANSITIONS, LpNode, ProtocolStateError
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
    )
    defaults.update(kwargs)
    return LpNode(1, **defaults)


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
    # Every return to IDLE promotes the queue's head.
    assert lp.state is not NodeState.IDLE or len(lp.queue) == 0


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
    assert lp.drops == {"lp_request_for_other_lp": 1}


def test_duplicate_request_gets_exactly_one_reply_and_no_second_entry():
    lp = make_lp()
    drive_to_servicing(lp, ap=7)
    first = lp.handle_message(request(80), 9, now=20.0)
    assert lp.drops == {}
    out = lp.handle_message(request(80), 9, now=21.0)
    assert len(confirmations(out)) == 1
    assert out == first  # counted, and answered as before
    assert len(lp.queue) == 1
    assert lp.drops == {"lp_duplicate_request": 1}


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
    assert lp.handle_message(cancel(), 7, now=30.0) == []
    assert lp.state is NodeState.SERVICING
    assert lp.current_ap == 7
    assert lp.drops == {"lp_cancel_on_deck": 1}


def test_keep_decision_is_a_noop():
    lp = make_lp()
    drive_to_servicing(lp, ap=7)
    lp.handle_message(request(80), 9, now=20.0)
    keep = ApReservationDecision(target_lp_sys_id=1, decision=ReservationAction.KEEP)
    assert lp.handle_message(keep, 9, now=21.0) == []
    assert lp.queue.position_of(9) == 0
    assert lp.drops == {}


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
    lp.handle_message(update(NodeState.LANDED), 7, now=1.0)
    first = lp.tick(11.0)  # alignment done: the platform announces SERVICING
    assert [o.msg for o in first] == [update(NodeState.SERVICING)]
    assert lp.tick(11.0) == []


def phase_snapshot(lp):
    return lp.state, lp.state_since, lp.queue.reservations(), list(lp.transitions)


def assert_second_tick_is_a_noop(lp, now):
    before = phase_snapshot(lp)
    assert lp.tick(now) == []
    assert phase_snapshot(lp) == before


@pytest.mark.parametrize("alignment", [0.0, 10.0])
@pytest.mark.parametrize("service", [0.0, 30.0])
def test_a_second_tick_at_the_same_time_is_a_noop_in_every_timed_phase(alignment, service):
    lp = make_lp(alignment_duration_s=alignment, service_duration_s=service)
    lp.handle_message(request(60), 7, now=0.0)
    lp.handle_message(update(NodeState.LANDED), 7, now=1.0)
    for now in (1.0, 1.0 + alignment, 1.0 + alignment + service):
        lp.tick(now)
        assert_second_tick_is_a_noop(lp, now)
    assert lp.state is NodeState.RELEASING
    assert lp.state_since == 1.0 + alignment + service


def test_a_second_tick_after_a_timeout_release_and_promotion_is_a_noop():
    lp = make_lp(boarding_timeout_s=180.0)
    lp.handle_message(request(60), 7, now=0.0)
    lp.handle_message(request(50), 9, now=1.0)
    lp.tick(180.0)
    assert lp.current_ap == 9
    assert (lp.state, lp.state_since) == (NodeState.AWAITING_BOARDING, 180.0)
    assert_second_tick_is_a_noop(lp, 180.0)


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
    assert lp.drops == {}
    out = lp.tick(180.0)
    assert lp.current_ap == 9
    confs = confirmations(out)
    assert confs and confs[0].dest_sys_id == 9
    assert lp.drops == {"lp_boarding_timeout": 1}


def test_platform_sends_no_heartbeat_through_a_full_cycle():
    lp = make_lp(alignment_duration_s=2.0, service_duration_s=5.0)
    sent = lp.tick(0.0)
    sent += lp.handle_message(request(60), 7, now=0.0)
    sent += lp.tick(1.0)
    sent += lp.handle_message(update(NodeState.LANDED), 7, now=1.0)
    for now in range(2, 10):
        sent += lp.tick(float(now))
    assert lp.state is NodeState.RELEASING
    sent += lp.handle_message(update(NodeState.DEPARTED), 7, now=10.0)
    sent += lp.tick(11.0)
    assert lp.state is NodeState.IDLE and lp.services_completed == 1
    assert [to for _, to in lp.drain_transitions()] == [
        NodeState.AWAITING_BOARDING,
        NodeState.ALIGNING,
        NodeState.SERVICING,
        NodeState.RELEASING,
        NodeState.IDLE,
    ]
    assert not any(isinstance(o.msg, ExtendedHeartbeat) for o in sent)
    assert sent == [
        (7, LpReservationConfirmation(target_ap_sys_id=7, queue_position=0)),
        (7, update(NodeState.SERVICING)),
        (7, update(NodeState.SERVICE_COMPLETE)),
    ]


# --- robustness --------------------------------------------------------------------


def test_landed_while_idle_is_ignored():
    lp = make_lp()
    assert lp.handle_message(update(NodeState.LANDED), 7, now=0.0) == []
    assert lp.state is NodeState.IDLE
    assert lp.drops == {"lp_state_update_from_other_ap": 1}


def test_landed_from_wrong_vehicle_is_ignored():
    lp = make_lp()
    lp.handle_message(request(60), 7, now=0.0)
    assert lp.handle_message(update(NodeState.LANDED), 9, now=1.0) == []
    assert lp.state is NodeState.AWAITING_BOARDING
    assert lp.drops == {"lp_state_update_from_other_ap": 1}


def test_illegal_transition_raises():
    lp = make_lp()
    with pytest.raises(ProtocolStateError):
        lp._transition(NodeState.SERVICING, 0.0)


def test_transition_table_is_complete():
    for state, targets in LP_TRANSITIONS.items():
        assert targets  # no dead ends


MACHINES = {
    "AP": (AP_TRANSITIONS, lambda: ApNode(7, [(1, (0.0, 0.0))])),
    "LP": (LP_TRANSITIONS, lambda: LpNode(7)),
}
ILLEGAL_EDGES = [
    pytest.param(kind, from_state, to_state, id=f"{kind}-{from_state.name}-{to_state.name}")
    for kind, (table, _) in MACHINES.items()
    for from_state, targets in table.items()
    for to_state in NodeState
    if to_state not in targets
]


@pytest.mark.parametrize("kind, from_state, to_state", ILLEGAL_EDGES)
def test_every_illegal_edge_raises_and_leaves_the_machine_unchanged(kind, from_state, to_state):
    node = MACHINES[kind][1]()
    node.state = from_state
    with pytest.raises(ProtocolStateError) as raised:
        node._transition(to_state, 5.0)
    assert str(raised.value) == f"{kind} 7: {from_state.name} -> {to_state.name}"
    assert node.state is from_state
    assert node.transitions == []
    assert node.state_since == 0.0


@pytest.mark.parametrize("kind, actor", [("AP", "AP7"), ("LP", "LP7")])
def test_a_machine_is_named_by_its_kind_and_sys_id(kind, actor):
    node = MACHINES[kind][1]()
    assert node.actor == actor
    assert node.state_since == 0.0


# --- heartbeats ---------------------------------------------------------------------


@pytest.mark.parametrize("state", [NodeState.IDLE, NodeState.SERVICING], ids=lambda s: s.name)
@pytest.mark.parametrize("battery", [80.0, 5.0])
def test_vehicle_heartbeat_leaves_the_platform_alone(battery, state):
    """A vehicle heartbeat, however low its battery, is dropped unread."""
    lp = make_lp()
    if state is NodeState.SERVICING:
        drive_to_servicing(lp, ap=7)
        lp.handle_message(request(60), 8, now=20.0)
        lp.drain_transitions()
    before = lp.queue.reservations()
    assert lp.handle_message(ap_heartbeat(battery, pos=(1.0, 1.0)), 9, now=21.0) == []
    assert lp.state is state and lp.transitions == []
    assert lp.queue.reservations() == before
    assert lp.drops == {}  # heartbeats are not counted


@pytest.mark.parametrize(
    "msg, sender, reason",
    [
        (LpReservationConfirmation(target_ap_sys_id=9, queue_position=0), 9, "lp_unexpected_message"),
        (
            ExtendedHeartbeat(
                vehicle_type=VehicleType.LANDING_PLATFORM,
                flight_stack=0,
                system_state=NodeState.IDLE,
                battery_pct=5.0,
                pos_x=0.0,
                pos_y=0.0,
            ),
            9,
            None,
        ),
        (request(60, lp=2), 9, "lp_request_for_other_lp"),
        (cancel(lp=2), 8, "lp_decision_for_other_lp"),
        (cancel(lp=2), 7, "lp_decision_for_other_lp"),
        (cancel(), 9, "lp_cancel_unknown"),
        (update(NodeState.LANDED), 9, "lp_state_update_from_other_ap"),
        (update(NodeState.DEPARTED), 7, "lp_state_update_unexpected"),
    ],
    ids=[
        "confirmation",
        "platform-heartbeat",
        "request-for-other-lp",
        "queued-cancel-for-other-lp",
        "boarding-cancel-for-other-lp",
        "cancel-unknown",
        "landed-from-other-ap",
        "departed-while-awaiting-boarding",
    ],
)
def test_message_the_platform_does_not_act_on_changes_nothing(msg, sender, reason):
    lp = make_lp()
    lp.handle_message(request(60), 7, now=0.0)  # cleared to board
    lp.handle_message(request(50), 8, now=1.0)  # queued
    lp.drain_transitions()
    before = (lp.state, lp.current_ap, lp.queue.reservations())
    assert lp.handle_message(msg, sender, now=2.0) == []
    assert (lp.state, lp.current_ap, lp.queue.reservations()) == before
    assert lp.transitions == []
    # Each drop raises its own counter by one; heartbeats are not counted.
    assert lp.drops == ({reason: 1} if reason else {})


def test_random_message_storm_never_faults_the_platform():
    # An unreliable link may deliver anything at any phase; the platform
    # counts and drops what does not fit and keeps its occupancy invariant.
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


def test_boarding_timeout_tells_the_released_vehicle():
    lp = LpNode(1, boarding_timeout_s=180.0)
    ap = ApNode(2, [(1, (0.0, 0.0))])
    (req,) = [o for o in ap.tick(0.0, 40.0, (0.0, 0.0)) if o.dest_sys_id == 1]
    (conf,) = lp.handle_message(req.msg, 2, 0.0)
    assert conf.msg.queue_position == 0
    assert ap.handle_message(conf.msg, 1, 0.0) == []
    assert ap.state is NodeState.BOARDING

    out = lp.tick(181.0)
    assert lp.drops == {"lp_boarding_timeout": 1}
    to_vehicle = [o.msg for o in out if o.dest_sys_id == 2]
    assert to_vehicle
    for msg in to_vehicle:
        ap.handle_message(msg, 1, 181.0)
    assert ap.current_reservation != 1
