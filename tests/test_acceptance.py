"""Acceptance suite: one test per release criterion.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion. Criteria 7 and 9 run full-scale simulations and take around
a minute together.
"""

import hashlib
import json
import random
import time

import pytest

import autoserve.wire as wire
from autoserve.ap_node import AP_TRANSITIONS, ApNode
from autoserve.lp_node import LP_TRANSITIONS, LpNode
from autoserve.reservation import Reservation, ServiceQueue
from autoserve.sim import SimConfig, run_sim, sweep
from autoserve.transport import Outbound
from autoserve.wire import (
    ApReservationDecision,
    ExtendedHeartbeat,
    FrameDecodeError,
    Keystore,
    LpReservationConfirmation,
    NodeState,
    ReservationAction,
    ServiceReservationRequest,
    SignatureInvalid,
    SigningContext,
    SystemStateUpdate,
    crc16_x25,
    decode_frame,
    encode_frame,
    verify_frame,
)
from oracles import OracleQueue, crc16_x25_oracle

SECRET = bytes(range(32))


def report(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {name}: PASS{suffix}")


def random_message(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return ExtendedHeartbeat(
            vehicle_type=rng.randrange(256),
            flight_stack=rng.randrange(256),
            system_state=NodeState(rng.randrange(14)),
            battery_pct=rng.randrange(10001) / 100,
            pos_x=rng.randrange(-2_000_000, 2_000_001) / 100,
            pos_y=rng.randrange(-2_000_000, 2_000_001) / 100,
            component_type=rng.randrange(256),
            flight_mode=rng.randrange(256),
        )
    if kind == 1:
        return ServiceReservationRequest(
            priority=rng.randrange(101), target_lp_sys_id=rng.randrange(1, 256)
        )
    if kind == 2:
        return LpReservationConfirmation(
            target_ap_sys_id=rng.randrange(1, 256), queue_position=rng.randrange(65536)
        )
    if kind == 3:
        return ApReservationDecision(
            target_lp_sys_id=rng.randrange(1, 256),
            decision=ReservationAction(rng.randrange(2)),
        )
    return SystemStateUpdate(state=NodeState(rng.randrange(14)))


def test_criterion_1_codec_round_trip():
    """10,000 randomized messages across all variants round-trip in < 5 s."""
    rng = random.Random(1)
    messages = [random_message(rng) for _ in range(10_000)]
    started = time.perf_counter()
    for index, msg in enumerate(messages):
        seq, sys_id, comp_id = index & 0xFF, 1 + (index % 255), 1 + (index % 7)
        header, decoded, _ = verify_frame(encode_frame(msg, seq, sys_id, comp_id))
        assert decoded == msg
        assert (header.seq, header.sys_id, header.comp_id) == (seq, sys_id, comp_id)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, "codec round-trip", f"10000 messages in {elapsed:.2f}s")


def test_criterion_2_checksum_oracle():
    """Published X.25 check value plus bit-for-bit agreement with the oracle."""
    assert crc16_x25(b"123456789") == 0x906E
    rng = random.Random(2)
    for _ in range(100):
        msg = random_message(rng)
        frame = encode_frame(msg, rng.randrange(256), rng.randrange(1, 256), 1)
        payload_len = frame[1]
        crc_extra = wire._MESSAGE_SPECS[int.from_bytes(frame[7:10], "little")].crc_extra
        expected = crc16_x25_oracle(frame[1 : 10 + payload_len] + bytes([crc_extra]))
        stored = int.from_bytes(frame[10 + payload_len : 12 + payload_len], "little")
        assert stored == expected
    report(2, "checksum oracle", "check value 0x906E and 100 frames vs table oracle")


def test_criterion_3_tamper_detection():
    """1,000 signed frames: every payload bit flip and wrong key rejected."""
    rng = random.Random(3)
    ticker = iter(range(1, 10_000_000))
    ctx = SigningContext(SECRET, 0, lambda: next(ticker) * 1000)
    mutations = 0
    for _ in range(1000):
        msg = random_message(rng)
        frame = encode_frame(msg, rng.randrange(256), rng.randrange(1, 256), 1, signing=ctx)
        payload_len = frame[1]
        for bit in range(payload_len * 8):
            mutated = bytearray(frame)
            mutated[10 + bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameDecodeError):
                decode_frame(bytes(mutated), keystore=Keystore({0: SECRET}))
            mutations += 1
        wrong = bytes(rng.randrange(256) for _ in range(32))
        if wrong != SECRET:
            with pytest.raises(SignatureInvalid):
                decode_frame(frame, keystore=Keystore({0: wrong}))
    report(3, "tamper detection", f"{mutations} bit flips and 1000 wrong keys rejected")


def test_criterion_4_queue_oracle_equivalence():
    """10,000 random queue operations match the sorted-list oracle throughout."""
    rng = random.Random(4)
    queue = ServiceQueue()
    oracle = OracleQueue()
    live_cap = 50
    for step in range(10_000):
        action = rng.randrange(3)
        if action == 0 and len(queue) < live_cap:
            ap = rng.randrange(1, 256)
            if oracle.position_of(ap) is None:
                priority, t = rng.randrange(101), float(step)
                assert queue.enqueue(Reservation(ap, priority, t)) == oracle.enqueue(
                    ap, priority, t
                )
        elif action == 1:
            ap = rng.randrange(1, 256)
            assert queue.cancel(ap) == oracle.cancel(ap)
        elif len(queue) > 0:
            assert queue.pop_next().ap_sys_id == oracle.pop_next()[0]
        ordered = oracle.ordered_ids()
        assert [r.ap_sys_id for r in queue.reservations()] == ordered
        for position, ap in enumerate(ordered):
            assert queue.position_of(ap) == position
    report(4, "queue-oracle equivalence", "10000 operations, all positions checked")


def test_criterion_5_lower_battery_is_prioritized():
    """The emptier of two requesters is confirmed earlier and served first."""
    lp = LpNode(1, (0.0, 0.0), alignment_duration_s=0.0, service_duration_s=10.0)
    service_order = []

    def serve_current():
        # Walk the platform through one full service of its current vehicle.
        ap = lp.current_ap
        service_order.append(ap)
        now = serve_current.clock
        lp.handle_message(SystemStateUpdate(state=NodeState.LANDED), ap, now + 1)
        lp.tick(now + 1)  # alignment is instant
        lp.tick(now + 11)  # service complete
        out = lp.handle_message(SystemStateUpdate(state=NodeState.DEPARTED), ap, now + 12)
        serve_current.clock = now + 12
        return out

    serve_current.clock = 0.0

    # Occupy the platform, then line up a mid-priority waiter.
    lp.handle_message(ServiceReservationRequest(priority=10, target_lp_sys_id=1), 9, 0.0)
    lp.handle_message(ServiceReservationRequest(priority=65, target_lp_sys_id=1), 8, 0.5)

    # AP-A at 40% battery requests first, AP-B at 25% battery second.
    out_a = lp.handle_message(ServiceReservationRequest(priority=60, target_lp_sys_id=1), 6, 1.0)
    out_b = lp.handle_message(ServiceReservationRequest(priority=75, target_lp_sys_id=1), 7, 2.0)
    conf_a = [o.msg for o in out_a if isinstance(o.msg, LpReservationConfirmation)][0]
    conf_b = [o.msg for o in out_b if isinstance(o.msg, LpReservationConfirmation)][0]
    assert conf_b.queue_position < conf_a.queue_position
    assert lp.queue.position_of(7) < lp.queue.position_of(6)

    while lp.current_ap is not None:
        serve_current()
    assert service_order.index(7) < service_order.index(6)
    report(
        5,
        "priority behavior",
        f"confirmed positions B={conf_b.queue_position} < A={conf_a.queue_position}, "
        f"service order {service_order}",
    )


class ChaosNetwork:
    """3 aerial and 2 landing platforms driven by a random interleaving."""

    DRAIN = (NodeState.OPERATING, NodeState.BOARDING, NodeState.DEPARTING)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.now = 0.0
        roster = [(1, (0.0, 0.0)), (2, (80.0, 0.0))]
        self.lps = {
            sys_id: LpNode(
                sys_id,
                position,
                alignment_duration_s=5.0,
                service_duration_s=20.0,
                boarding_timeout_s=60.0,
            )
            for sys_id, position in roster
        }
        self.aps = {
            sys_id: ApNode(sys_id, roster, departure_clear_s=1.0) for sys_id in (3, 4, 5)
        }
        self.batteries = {sys_id: 100.0 for sys_id in self.aps}
        self.positions = {
            sys_id: (self.rng.uniform(0, 80), self.rng.uniform(0, 40))
            for sys_id in self.aps
        }
        self.in_flight: list[tuple[int, int, object]] = []
        self.transitions = 0

    def post(self, src: int, outbound_list: list[Outbound]) -> None:
        # Broadcasts are vehicle heartbeats, which platforms drop unread;
        # skipping them keeps the backlog bounded so protocol messages
        # actually flow through the random delivery order.
        for out in outbound_list:
            if out.dest_sys_id is not None:
                self.in_flight.append((out.dest_sys_id, src, out.msg))

    def after(self, sys_id: int) -> None:
        node = self.aps.get(sys_id) or self.lps[sys_id]
        for from_state, to_state in node.drain_transitions():
            self.transitions += 1
            if (from_state, to_state) == (NodeState.BEING_SERVICED, NodeState.DEPARTING):
                self.batteries[sys_id] = 100.0

    def deliver(self, index: int) -> None:
        dest, src, msg = self.in_flight.pop(index)
        node = self.aps.get(dest) or self.lps[dest]
        self.post(dest, node.handle_message(msg, src, self.now))
        self.after(dest)

    def tick_all(self) -> None:
        self.now += 1.0
        for sys_id, ap in sorted(self.aps.items()):
            if ap.state in self.DRAIN:
                self.batteries[sys_id] = max(
                    0.0, self.batteries[sys_id] - self.rng.uniform(0.1, 0.8)
                )
            self.post(sys_id, ap.tick(self.now, self.batteries[sys_id], self.positions[sys_id]))
            self.after(sys_id)
        for sys_id, lp in sorted(self.lps.items()):
            self.post(sys_id, lp.tick(self.now))
            self.after(sys_id)

    def arrivals(self, always: bool = False) -> None:
        for sys_id, ap in sorted(self.aps.items()):
            if ap.state is NodeState.BOARDING and (always or self.rng.random() < 0.5):
                self.positions[sys_id] = ap.known_lps[ap.current_reservation[0]]
                self.post(sys_id, ap.notify_arrival(self.now))
                self.after(sys_id)

    def step(self) -> None:
        roll = self.rng.random()
        if roll < 0.55 and self.in_flight:
            for _ in range(self.rng.randint(1, 4)):
                if not self.in_flight:
                    break
                self.deliver(self.rng.randrange(len(self.in_flight)))
        elif roll < 0.65:
            self.arrivals()
        else:
            self.tick_all()

    def reservations_held(self, ap_sys_id: int) -> int:
        held = 0
        for lp in self.lps.values():
            if lp.queue.position_of(ap_sys_id) is not None:
                held += 1
            if lp.current_ap == ap_sys_id:
                held += 1
        return held

    def settle(self, ticks: int = 600) -> None:
        for sys_id in self.batteries:
            self.batteries[sys_id] = 100.0
        for _ in range(ticks):
            while self.in_flight:
                self.deliver(0)
            self.arrivals(always=True)
            self.tick_all()
            for sys_id in self.batteries:
                self.batteries[sys_id] = 100.0


def test_criterion_6_fsm_safety_under_random_interleavings():
    """10,000 chaotic steps: no illegal transition, no double reservation,
    and no platform left IDLE with a non-empty queue."""
    net = ChaosNetwork(seed=6)
    for _ in range(10_000):
        net.step()  # illegal transitions raise ProtocolStateError
        for lp in net.lps.values():
            assert lp.state is not NodeState.IDLE or len(lp.queue) == 0
    chaotic_transitions = net.transitions
    net.settle()
    for ap_sys_id in net.aps:
        assert net.reservations_held(ap_sys_id) <= 1
    for ap in net.aps.values():
        assert ap.state in AP_TRANSITIONS
    for lp in net.lps.values():
        assert lp.state in LP_TRANSITIONS
        positions = [lp.queue.position_of(r.ap_sys_id) for r in lp.queue.reservations()]
        assert positions == list(range(len(positions)))
    assert chaotic_transitions > 200  # the machines must actually cycle
    report(
        6,
        "FSM safety",
        f"{chaotic_transitions} transitions over 10000 steps, all legal",
    )


def test_criterion_7_single_platform_capacity():
    """Five vehicles on one platform pass 18/20 seeds; one vehicle 20/20."""
    five = sweep(SimConfig(n_uavs=5, n_lps=1, seed=0), 20)
    one = sweep(SimConfig(n_uavs=1, n_lps=1, seed=0), 20)
    print("\n  parameters:", json.dumps(SimConfig(n_uavs=5, n_lps=1).to_dict(), sort_keys=True))
    for label, result in (("n_uavs=5", five), ("n_uavs=1", one)):
        outcomes = " ".join(
            f"{run.seed}:{'P' if run.outcome == 'PASS' else 'F'}" for run in result.runs
        )
        print(f"  {label}: pass {result.pass_count}/20, min-battery "
              f"{min(result.min_battery_values()):.1f}..{max(result.min_battery_values()):.1f} "
              f"[{outcomes}]")
    assert five.pass_count >= 18
    assert one.pass_count == 20
    report(
        7,
        "single-platform capacity",
        f"5 UAVs {five.pass_count}/20, 1 UAV {one.pass_count}/20",
    )


def test_criterion_9_determinism_and_speed(tmp_path):
    """Byte-identical traces for equal configs; a full run in < 5 s."""
    cfg = SimConfig(n_uavs=5, n_lps=1, duration_s=7200, seed=0)
    digests = []
    for name in ("a", "b"):
        path = tmp_path / f"trace_{name}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            run_sim(cfg, trace=handle)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]

    started = time.perf_counter()
    report_obj = run_sim(cfg)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert report_obj.outcome in ("PASS", "FAIL")
    assert report_obj.drops == {}  # a lossless one-platform run drops nothing
    report(
        9,
        "determinism and speed",
        f"digest {digests[0][:12]}.. twice, full run in {elapsed:.2f}s",
    )
