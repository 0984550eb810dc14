import hashlib
import io
import json
import math
import operator
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from autoserve.ap_node import ApNode
from autoserve.lp_node import LpNode
from autoserve.sim import (
    InvalidConfig,
    SimConfig,
    Simulation,
    TraceWriter,
    run_sim,
    sample_consumption,
    sample_displacement,
    sweep,
    uav_rng,
)
from autoserve.transport import Delivery, Outbound
from autoserve.wire import (
    _COMPACT_JSON,
    HEADER_LEN,
    ChecksumMismatch,
    ExtendedHeartbeat,
    FlightStack,
    Keystore,
    NodeState,
    SignatureInvalid,
    StaleTimestamp,
    VehicleType,
    message_from_fields,
)
from test_acceptance import ChaosNetwork


def small_cfg(**kwargs):
    defaults = dict(
        n_uavs=3,
        n_lps=1,
        duration_s=400,
        seed=7,
        spawn_radius_m=10.0,
        area_m=(1000.0, 1000.0),
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


def run_traced(cfg):
    buf = io.StringIO()
    report = run_sim(cfg, trace=buf)
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[0])["header"]
    records = [json.loads(line) for line in lines[1:]]
    return report, header, records


@pytest.fixture(scope="module")
def traced_run():
    cfg = small_cfg()
    report, header, records = run_traced(cfg)
    return cfg, report, header, records


# --- sampling -------------------------------------------------------------------


def test_consumption_degenerate_interval_is_exact():
    rng = uav_rng(0, 0)
    assert sample_consumption(rng, 0.18, 0.18) == 0.18


def test_consumption_respects_bounds_and_mean():
    rng = uav_rng(123, 0)
    draws = [sample_consumption(rng, 0.15, 0.20) for _ in range(100_000)]
    assert all(0.15 <= d <= 0.20 for d in draws)
    assert abs(sum(draws) / len(draws) - 0.175) < 0.001


def test_consumption_invalid_interval():
    with pytest.raises(ValueError):
        sample_consumption(uav_rng(0, 0), 0.3, 0.2)


def test_displacement_zero_step():
    assert sample_displacement(uav_rng(0, 0), 0.0) == (0.0, 0.0)


def test_displacement_bounds_and_centering():
    rng = uav_rng(9, 0)
    draws = [sample_displacement(rng, 0.3) for _ in range(100_000)]
    assert all(abs(dx) <= 0.3 and abs(dy) <= 0.3 for dx, dy in draws)
    assert abs(sum(dx for dx, _ in draws) / len(draws)) < 0.005
    assert abs(sum(dy for _, dy in draws) / len(draws)) < 0.005


def test_displacement_negative_step_rejected():
    with pytest.raises(ValueError):
        sample_displacement(uav_rng(0, 0), -0.1)


# Consumption and displacement ranges interleaved as a run draws them,
# then a zero-width range and ranges with a negative low.
DRAW_RANGES = [
    (0.15, 0.20), (-0.3, 0.3), (-0.3, 0.3), (0.18, 0.18), (-5.0, -2.5), (-1e-3, 7.0),
]
SPAWN_RANGES = [(0.0, 1.0), (0.0, 1.0), (60.0, 100.0)]


def numpy_rng(seed, index):
    """The oracle: numpy's legacy Mersenne Twister, seeded as CPython seeds
    random.Random from a string: the integer of the text's bytes followed
    by their SHA-512 digest, split into 32-bit words, least significant
    first."""
    text = f"{seed} {index}".encode()
    key = int.from_bytes(text + hashlib.sha512(text).digest(), "big")
    words = [key >> shift & 0xFFFFFFFF for shift in range(0, key.bit_length(), 32)]
    return np.random.RandomState(np.array(words, dtype=np.uint32))


# Seeds and indices of one and two 32-bit words, at the word edges.
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 3, 2**33])
def test_uav_rng_draws_equal_numpy_mt19937(seed, index):
    reference, stream = numpy_rng(seed, index), uav_rng(seed, index)
    # The three spawn draws, then 1,200 draws as a run's ticks interleave them.
    for i, (low, high) in enumerate(SPAWN_RANGES + DRAW_RANGES * 200):
        expected = reference.uniform(low, high)
        got = stream.uniform(low, high)
        assert type(got) is float
        assert got == expected, (i, low, high)


def test_samplers_draw_as_from_numpy_mt19937():
    reference, stream = numpy_rng(5, 1), uav_rng(5, 1)
    for _ in range(1000):
        assert sample_consumption(stream, 0.15, 0.2) == sample_consumption(reference, 0.15, 0.2)
        assert sample_displacement(stream, 0.3) == sample_displacement(reference, 0.3)


def test_vehicle_streams_are_independent_of_fleet_size():
    # Vehicle k's draws do not change when vehicle k+1 joins.
    first = [uav_rng(42, i).uniform(0, 1) for i in range(3)]
    again = [uav_rng(42, i).uniform(0, 1) for i in range(4)][:3]
    assert first == again


# Pairs whose seed and index digits run together without the separator.
@pytest.mark.parametrize("a, b", [((1, 23), (12, 3)), ((11, 1), (1, 11))])
def test_seed_and_index_stay_apart_in_the_seeding_text(a, b):
    assert uav_rng(*a).random() != uav_rng(*b).random()


def test_run_rejects_a_negative_seed_before_drawing():
    # uav_rng seeds from text and accepts any int; the config check guards it.
    with pytest.raises(InvalidConfig, match="seed must be an unsigned 64-bit integer"):
        run_sim(small_cfg(seed=-1))


def test_added_vehicle_does_not_disturb_existing_spawns():
    base = run_sim(small_cfg(n_uavs=2, duration_s=1))
    grown = run_sim(small_cfg(n_uavs=3, duration_s=1))
    for actor in base.min_battery_pct:
        assert base.min_battery_pct[actor] == grown.min_battery_pct[actor]


# --- config ---------------------------------------------------------------------


# liveness_window_s and critical_threshold_pct: keys that older config files
# still carry fail by name too, whatever their value.
@pytest.mark.parametrize(
    "data",
    [
        {"n_uav": 3},
        {"liveness_window_s": 5.0},
        {"critical_threshold_pct": 25.0},
        {"critical_threshold_pct": None},
    ],
    ids=["n_uav", "liveness_window_s", "critical_threshold_pct", "critical_threshold_pct_null"],
)
def test_config_rejects_unknown_keys(data):
    (key,) = data
    with pytest.raises(InvalidConfig, match=key):
        SimConfig.from_dict(data)


def test_readme_config_block_lists_the_defaults_in_field_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    assert SimConfig.from_dict(block) == SimConfig()
    assert list(block) == list(SimConfig.__dataclass_fields__)


def test_config_auto_positions_accepted():
    cfg = SimConfig.from_dict({"n_uavs": 1, "n_lps": 1, "lp_positions": "AUTO"})
    assert cfg.lp_positions is None
    assert cfg.resolved_lp_positions() == [(500.0, 500.0)]


def test_config_tuple_coercion_and_roundtrip(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(
        json.dumps(
            {
                "n_uavs": 2,
                "n_lps": 2,
                "lp_positions": [[100.0, 100.0], [900.0, 900.0]],
                "consumption_pct_per_s": [0.15, 0.2],
                "seed": 3,
            }
        )
    )
    cfg = SimConfig.from_file(path)
    assert cfg.consumption_pct_per_s == (0.15, 0.2)
    assert cfg.lp_positions == [(100.0, 100.0), (900.0, 900.0)]
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_uavs": 0},
        {"n_lps": 0},
        {"n_uavs": 200, "n_lps": 100},
        {"consumption_pct_per_s": (0.0, 0.2)},
        {"consumption_pct_per_s": (0.3, 0.2)},
        {"fail_threshold_pct": 60.0},
        {"request_threshold_pct": 120.0},
        {"initial_battery_pct": (80.0, 60.0)},
        {"duration_s": -5},
        {"seed": -1},
        {"lp_positions": [(2000.0, 0.0)], "n_lps": 1},
        {"lp_positions": [(1.0, 1.0), (2.0, 2.0)], "n_lps": 1},
        {"boarding_timeout_s": 0.0},
        {"service_duration_s": math.nan},
        {"alignment_duration_s": math.inf},
        {"spawn_radius_m": math.nan},
        {"boarding_timeout_s": math.inf},
        {"max_step_m_per_s": math.inf},
        {"duration_s": math.inf},
        {"area_m": (math.inf, 1000.0)},
        {"consumption_pct_per_s": (0.15, math.inf)},
        {"lp_positions": [(math.nan, 500.0)], "n_lps": 1},
        {"fail_threshold_pct": -1.0},
        {"spawn_radius_m": -1.0},
        {"service_duration_s": -1.0},
        {"departure_clear_s": -5.0},
        {"departure_clear_s": math.inf},
        {"n_uavs": 2.5},
        {"seed": 1.5},
        {"n_uavs": "3"},
        {"request_threshold_pct": "50"},
        {"duration_s": 10.7},
        {"n_uavs": True},
        {"spawn_radius_m": False},
        {"seed": 2**64},
        {"area_m": (1000.0,)},
        {"consumption_pct_per_s": (0.15, "0.2")},
        {"initial_battery_pct": 80.0},
        {"lp_positions": [(1.0,)], "n_lps": 1},
        {"lp_positions": [(1.0, 2.0, 3.0)], "n_lps": 1},
        {"lp_positions": [(1.0, None)], "n_lps": 1},
    ],
)
def test_config_validation_rejects(overrides):
    cfg = small_cfg(**overrides)
    with pytest.raises(InvalidConfig):
        cfg.validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"fail_threshold_pct": 0.0, "request_threshold_pct": 100.0},
        {"seed": 2**64 - 1},
        {"departure_clear_s": 0.0},
        {"service_duration_s": 0.0, "alignment_duration_s": 0.0},
    ],
)
def test_config_validation_accepts_range_edges(overrides):
    small_cfg(**overrides).validate()


def test_config_file_spelling_nan_fails_before_the_run(tmp_path):
    # json.load accepts the NaN literal; such a run stalled yet read PASS.
    path = tmp_path / "stall.json"
    path.write_text('{"n_uavs": 2, "duration_s": 900, "service_duration_s": NaN}')
    cfg = SimConfig.from_file(path)
    with pytest.raises(InvalidConfig, match="service_duration_s"):
        run_sim(cfg)


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda tmp: SimConfig.from_dict({"lp_positions": "GRID"}),
         "lp_positions: expected coordinates or 'AUTO'"),
        (lambda tmp: SimConfig.from_file(tmp / "list.json"), "list.json: expected a JSON object"),
        (lambda tmp: small_cfg(area_m=(1000.0, 0.0)).validate(),
         "area_m dimensions must be positive"),
        (lambda tmp: sweep(small_cfg(), 0), "n_seeds must be at least 1"),
    ],
    ids=["lp-positions-word", "file-not-object", "area-zero", "sweep-no-seeds"],
)
def test_config_input_checks_name_the_fault(tmp_path, check, message):
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(InvalidConfig, match=re.escape(message)):
        check(tmp_path)


def test_auto_grid_positions_stay_inside_area():
    cfg = small_cfg(n_lps=5)
    positions = cfg.resolved_lp_positions()
    assert len(positions) == 5
    width, height = cfg.area_m
    assert all(0 <= x <= width and 0 <= y <= height for x, y in positions)


# --- determinism -----------------------------------------------------------------


def test_identical_config_gives_identical_trace_and_report():
    cfg = small_cfg(n_uavs=2, duration_s=300)
    first, second = io.StringIO(), io.StringIO()
    report_a = run_sim(cfg, trace=first)
    report_b = run_sim(cfg, trace=second)
    digest_a = hashlib.sha256(first.getvalue().encode()).hexdigest()
    digest_b = hashlib.sha256(second.getvalue().encode()).hexdigest()
    assert digest_a == digest_b
    assert report_a.to_dict() == report_b.to_dict()


def test_different_seed_changes_the_trace():
    a = io.StringIO()
    b = io.StringIO()
    run_sim(small_cfg(n_uavs=1, duration_s=120, seed=1), trace=a)
    run_sim(small_cfg(n_uavs=1, duration_s=120, seed=2), trace=b)
    assert a.getvalue() != b.getvalue()


# --- behavior ----------------------------------------------------------------------


def test_single_vehicle_on_free_platform_gets_serviced():
    cfg = small_cfg(n_uavs=1, duration_s=1200, spawn_radius_m=0.0, seed=3)
    report = run_sim(cfg)
    assert report.outcome == "PASS"
    assert sum(report.services_completed.values()) >= 1
    assert report.queue_wait_count >= 1


def test_single_vehicle_spawned_on_platform_full_duration():
    # A lone vehicle with a free platform cannot starve: it is always
    # confirmed at position 0 (settling on the only offer if need be).
    cfg = SimConfig(n_uavs=1, n_lps=1, duration_s=7200, spawn_radius_m=0.0, seed=0)
    report = run_sim(cfg)
    assert report.outcome == "PASS"
    assert sum(report.services_completed.values()) >= 1


def test_failure_recorded_and_vehicle_goes_inactive():
    cfg = small_cfg(
        n_uavs=1,
        duration_s=30,
        consumption_pct_per_s=(4.9, 5.0),
        initial_battery_pct=(16.0, 16.0),
        spawn_radius_m=0.0,
    )
    report, _, records = run_traced(cfg)
    assert report.outcome == "FAIL"
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure["battery_pct"] < 15.0
    ticks_after = [
        r
        for r in records
        if r["kind"] == "TICK" and r["actor"] == failure["uav"] and r["t"] > failure["t"]
    ]
    assert ticks_after and all(r["detail"]["failed"] for r in ticks_after)
    batteries = [
        r["detail"]["battery_pct"]
        for r in records
        if r["kind"] == "TICK" and r["actor"] == failure["uav"]
    ]
    assert all(b >= 0.0 for b in batteries)


def test_a_failed_vehicle_only_ticks_after_its_failure():
    """A failed vehicle receives nothing, so no handler changes its state:
    in this run both vehicles cleared to board fail before they land, and
    the platform's later boarding-timeout release reaches neither."""
    cfg = SimConfig(duration_s=900, consumption_pct_per_s=(0.35, 0.45))
    _, _, records = run_traced(cfg)
    failed, late, states = set(), [], {}
    for r in records:
        if r["kind"] == "FAILURE":
            failed.add(r["actor"])
        elif r["actor"] in failed:
            if r["kind"] == "TICK":
                states.setdefault(r["actor"], set()).add(r["detail"]["state"])
            else:
                late.append(r)
    assert len(failed) == 2
    assert late == []
    assert states == {actor: {"BOARDING"} for actor in failed}


def test_multi_platform_fleet_shares_the_load():
    cfg = SimConfig(
        n_uavs=4,
        n_lps=2,
        duration_s=2400,
        seed=11,
        lp_positions=[(300.0, 500.0), (700.0, 500.0)],
        spawn_radius_m=30.0,
    )
    report = run_sim(cfg)
    assert report.outcome == "PASS"
    assert report.services_completed["LP1"] >= 1
    assert report.services_completed["LP2"] >= 1


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: probing vehicles hop to platforms anywhere on the map, "
    "and LpNode._promote clears vehicles that already left, which then drop the "
    "clearance as ap_confirmation_unexpected",
)
def test_large_fleet_drops_no_unexpected_clearance():
    report = run_sim(SimConfig(n_uavs=200, n_lps=50, duration_s=120))
    assert "ap_confirmation_unexpected" not in report.drops


def test_sweep_runs_consecutive_seeds():
    cfg = small_cfg(n_uavs=1, duration_s=60, seed=5)
    reports = sweep(cfg, 3)
    assert [report.config["seed"] for report in reports] == [5, 6, 7]
    assert sum(report.passed for report in reports) == 3
    # Each report is exactly the one run_sim gives for that seed's config.
    assert [report.to_json() for report in reports] == [
        run_sim(replace(cfg, seed=seed)).to_json() for seed in (5, 6, 7)
    ]


def test_sweep_checks_the_whole_seed_range_before_any_run(monkeypatch):
    import autoserve.sim as sim_module

    runs = []
    monkeypatch.setattr(sim_module, "run_sim", runs.append)
    with pytest.raises(InvalidConfig, match="seed must be an unsigned 64-bit integer"):
        sweep(small_cfg(seed=2**64 - 1), 2)
    assert runs == []


# --- trace invariants -----------------------------------------------------------------


def test_each_record_is_one_record_call_and_one_line_and_each_tick_one_write(monkeypatch):
    calls = []
    record = TraceWriter.record

    def counting_record(self, t, actor, kind, detail):
        calls.append(kind)
        return record(self, t, actor, kind, detail)

    class Sink:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    monkeypatch.setattr(TraceWriter, "record", counting_record)
    sink = Sink()
    # Fails twice, so every record kind occurs.
    run_sim(SimConfig(duration_s=600, consumption_pct_per_s=(0.35, 0.45)), trace=sink)
    assert all(text.endswith("\n") for text in sink.writes)
    lines = "".join(sink.writes).splitlines()
    assert len(calls) == len(lines) - 1
    assert set(calls) == {"TICK", "MSG_SENT", "MSG_RECV", "STATE_CHANGE", "BATTERY", "FAILURE"}
    for line, kind in zip(lines[1:], calls):
        record_obj = json.loads(line)
        assert list(record_obj) == ["t", "actor", "kind", "detail"]
        assert record_obj["kind"] == kind
    # The %-templates, the f-strings and the encoder write the same bytes.
    for line in lines:
        assert _COMPACT_JSON(json.loads(line)) == line
    # The header is one write, then each tick's records are one write.
    assert "header" in json.loads(sink.writes[0]) and sink.writes[0].count("\n") == 1
    tick_times = [{json.loads(line)["t"] for line in text.splitlines()} for text in sink.writes[1:]]
    assert tick_times == [{float(step)} for step in range(600)]


def test_a_run_that_raises_keeps_every_record_made_before_the_raise(monkeypatch):
    cfg = SimConfig(duration_s=300)
    full = io.StringIO()
    run_sim(cfg, trace=full)

    class Halt(Exception):
        pass

    made = []
    record, lp_tick = TraceWriter.record, LpNode.tick

    def counting_record(self, t, actor, kind, detail):
        made.append(kind)
        return record(self, t, actor, kind, detail)

    def halting_tick(self, now):
        if now == 150.0:
            raise Halt
        return lp_tick(self, now)

    monkeypatch.setattr(TraceWriter, "record", counting_record)
    monkeypatch.setattr(LpNode, "tick", halting_tick)
    partial = io.StringIO()
    with pytest.raises(Halt):
        run_sim(cfg, trace=partial)
    # A run that writes each record as it is made holds the header and
    # exactly these records when the raise comes.
    expected = full.getvalue().splitlines(keepends=True)[: 1 + len(made)]
    assert partial.getvalue() == "".join(expected)
    # Including records of the tick that raised, which were still buffered.
    assert json.loads(expected[-1])["t"] == 150.0


def test_each_decoded_message_object_gets_one_received_text(monkeypatch):
    import autoserve.sim as sim_module

    rendered, decoded, handled = [], [], []
    message_head, decode_frame = sim_module._message_head, sim_module.decode_frame

    def counting_head(msg, peer_key):
        if peer_key == "src":
            rendered.append(msg)
        return message_head(msg, peer_key)

    def recording_decode_frame(frame, keystore):
        result = decode_frame(frame, keystore)
        decoded.append(result[1])
        return result

    def recording_handler(cls):
        handle_message = cls.handle_message

        def recording(node, msg, src, now):
            handled.append(msg)
            return handle_message(node, msg, src, now)

        monkeypatch.setattr(cls, "handle_message", recording)

    monkeypatch.setattr(sim_module, "_message_head", counting_head)
    monkeypatch.setattr(sim_module, "decode_frame", recording_decode_frame)
    recording_handler(ApNode)
    recording_handler(LpNode)
    report, _, records = run_traced(SimConfig(n_uavs=1, n_lps=5, duration_s=600))
    assert sum(report.services_completed.values()) >= 1
    assert sum(r["kind"] == "MSG_RECV" for r in records) == len(handled)
    # Every delivered message is an object a decode returned.
    assert {id(msg) for msg in handled} <= {id(msg) for msg in decoded}
    # The lists hold their messages, so no two distinct objects share an id.
    distinct = list({id(msg): msg for msg in handled}.values())
    assert len(rendered) == len(distinct) and all(map(operator.is_, rendered, distinct))
    # Each heartbeat reaches five platforms but is decoded and rendered once.
    assert len(handled) > 4 * len(decoded) >= 4 * len(rendered)


def deliver_exactly(monkeypatch, sim, deliveries, t=1.0):
    """Run sim._deliver with InMemoryBus.pop_due returning deliveries."""
    import autoserve.transport as transport

    monkeypatch.setattr(transport.InMemoryBus, "pop_due", lambda bus, now: list(deliveries))
    sim._deliver(t)


@pytest.fixture
def five_platforms(monkeypatch):
    """A 1x5 simulation, one heartbeat frame its vehicle broadcast to the five
    platforms, and the decode_frame and Keystore.accept calls made after it."""
    import autoserve.sim as sim_module

    sim = Simulation(SimConfig(n_uavs=1, n_lps=5, duration_s=1), None)
    ap_id = sim._uavs[0].node.sys_id
    beat = ExtendedHeartbeat(
        VehicleType.AERIAL_PLATFORM, FlightStack.PX4, NodeState.OPERATING, 80.0, 0.0, 5.0
    )
    sent = sim._bus.send(ap_id, Outbound(None, beat), 0.0)
    assert [dest for dest, _ in sent] == [1, 2, 3, 4, 5]
    decodes, accepts = [], []
    decode_frame, accept = sim_module.decode_frame, Keystore.accept

    def counting_decode(frame, keystore):
        decodes.append(frame)
        return decode_frame(frame, keystore)

    def counting_accept(keystore, *stream_and_ts):
        accepts.append(stream_and_ts)
        return accept(keystore, *stream_and_ts)

    monkeypatch.setattr(sim_module, "decode_frame", counting_decode)
    monkeypatch.setattr(Keystore, "accept", counting_accept)
    return sim, sent, decodes, accepts


def test_a_broadcast_frame_is_decoded_once_and_replay_checked_per_receiver(
    monkeypatch, five_platforms
):
    sim, sent, decodes, accepts = five_platforms
    ap_id = sim._uavs[0].node.sys_id
    deliver_exactly(monkeypatch, sim, sent)
    assert decodes == [sent[0].frame]
    # The decode's own replay check, then one for each further platform.
    assert accepts == [(ap_id, 1, 0)] * 5


def test_one_frame_twice_in_a_row_to_one_receiver_is_stale(monkeypatch, five_platforms):
    sim, sent, decodes, accepts = five_platforms
    with pytest.raises(StaleTimestamp):
        deliver_exactly(monkeypatch, sim, [sent[0], sent[0]])
    assert len(decodes) == 1 and len(accepts) == 2


@pytest.mark.parametrize(
    "index, expected",
    [(HEADER_LEN, ChecksumMismatch), (-8, SignatureInvalid), (-1, SignatureInvalid)],
    ids=["payload-bit", "timestamp-bit", "signature-bit"],
)
def test_an_altered_copy_after_its_frame_is_decoded_in_full_and_commits_nothing(
    monkeypatch, five_platforms, index, expected
):
    sim, sent, decodes, accepts = five_platforms
    frame = sent[0].frame
    altered = bytearray(frame)
    altered[index] ^= 1
    altered = bytes(altered)
    with pytest.raises(expected):
        deliver_exactly(monkeypatch, sim, [*sent[:2], Delivery(3, altered)])
    assert decodes == [frame, altered]
    assert len(accepts) == 2
    # Platform 3's replay state did not advance: the intact frame still
    # passes there and at the platforms after it.
    deliver_exactly(monkeypatch, sim, sent[2:])
    assert decodes == [frame, altered, frame] and len(accepts) == 5


def test_distinct_messages_that_compare_equal_get_their_own_sent_text():
    sink = io.StringIO()
    sim = Simulation(SimConfig(n_uavs=1, duration_s=1), sink)
    body = sim._uavs[0]
    beat = ExtendedHeartbeat(
        VehicleType.AERIAL_PLATFORM, FlightStack.PX4, NodeState.OPERATING, 80.0, 0.0, 5.0
    )
    negative_zero = ExtendedHeartbeat(
        VehicleType.AERIAL_PLATFORM, FlightStack.PX4, NodeState.OPERATING, 80.0, -0.0, 5.0
    )
    assert beat == negative_zero
    for msg in (beat, beat, negative_zero, beat):
        sim._send(body.node, body, [Outbound(None, msg)], 0.0)
    sim._tracer._flush()
    records = sink.getvalue().splitlines()[1:]
    assert [json.loads(line)["kind"] for line in records] == ["MSG_SENT"] * 4
    assert ['"pos_x":-0.0,' in line for line in records] == [False, False, True, False]
    assert ['"pos_x":0.0,' in line for line in records] == [True, True, False, True]


def test_tick_records_show_each_actor_at_the_end_of_its_tick():
    # A five-second departure drains the battery while the position stays
    # the same object; a platform's queue changes while its state does not.
    cfg = small_cfg(duration_s=600, departure_clear_s=5.0)
    sink = io.StringIO()
    sim = Simulation(cfg, sink)
    departing_ticks = 0
    for step in range(cfg.duration_s):
        t = float(step)
        sink.seek(0)
        sink.truncate()
        sim._deliver(t)
        sim._physics(t)
        sim._tick_aps(t)
        sim._tick_lps(t)
        sim._trace_ticks(t)
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        ticks = {r["actor"]: r["detail"] for r in records if r["kind"] == "TICK"}
        for lp in sim._lps:
            assert ticks[f"LP{lp.sys_id}"] == {
                "state": lp.state.name, "queue_len": len(lp.queue), "current_ap": lp.current_ap
            }
        for body in sim._uavs:
            x, y = body.position
            assert ticks[body.node.actor] == {
                "state": body.node.state.name,
                "battery_pct": body.battery,
                "x": x,
                "y": y,
                "failed": body.failed,
            }
            departing_ticks += body.node.state is NodeState.DEPARTING
    assert departing_ticks >= 10


def assert_platforms_within_their_bounds(lps, t):
    """Every platform in a timed phase has been in it for less than the
    phase's bound; returns a (phase, time in it) pair for each of them."""
    timed = []
    for lp in lps:
        bound = {
            NodeState.AWAITING_BOARDING: lp.boarding_timeout_s,
            NodeState.ALIGNING: lp.alignment_duration_s,
            NodeState.SERVICING: lp.service_duration_s,
        }.get(lp.state)
        if bound is not None:
            assert t - lp.state_since < bound, (lp.actor, lp.state.name, lp.state_since, t)
            timed.append((lp.state, t - lp.state_since))
    return timed


class StateChangeTimes:
    """A trace stream that keeps the t of each actor's last STATE_CHANGE."""

    def __init__(self):
        self.last = {}

    def write(self, text):
        for line in text.splitlines():
            if '"kind":"STATE_CHANGE"' in line:
                record = json.loads(line)
                self.last[record["actor"]] = record["t"]


@pytest.mark.parametrize(
    "cfg, longest_wait",
    [
        (SimConfig(n_uavs=20, n_lps=5, duration_s=1800), None),
        # The hungry run fails vehicles that were cleared to board, and
        # their platforms wait out the whole boarding timeout: the longest
        # wait left standing after a tick is one tick short of it.
        (SimConfig(duration_s=900, consumption_pct_per_s=(0.35, 0.45)), 179.0),
    ],
    ids=["20x5x1800", "hungry-5x1x900"],
)
def test_no_node_outstays_its_timed_phase_and_each_clock_is_its_last_state_change(
    cfg, longest_wait
):
    sink = StateChangeTimes()
    sim = Simulation(cfg, sink)
    waits = [0.0]
    for step in range(cfg.duration_s):
        t = float(step)
        sim._deliver(t)
        sim._physics(t)
        sim._tick_aps(t)
        sim._tick_lps(t)
        sim._trace_ticks(t)
        for state, elapsed in assert_platforms_within_their_bounds(sim._lps, t):
            if state is NodeState.AWAITING_BOARDING:
                waits.append(elapsed)
        for body in sim._uavs:
            node = body.node
            if not body.failed and node.state is NodeState.DEPARTING:
                assert t - node.state_since < node.departure_clear_s, (node.actor, t)
    if longest_wait is not None:
        assert max(waits) == longest_wait
    nodes = [*sim._lps, *(body.node for body in sim._uavs)]
    assert {node.actor: node.state_since for node in nodes} == {
        node.actor: sink.last.get(node.actor, 0.0) for node in nodes
    }
    assert sink.last  # the nodes changed state


@pytest.mark.parametrize("seed", [1, 2, 3, 6])
def test_no_platform_outstays_its_timed_phase_under_random_interleavings(seed):
    net = ChaosNetwork(seed)
    tick_all = net.tick_all
    timed = []

    def checked_tick_all():
        tick_all()
        timed.append(assert_platforms_within_their_bounds(net.lps.values(), net.now))

    net.tick_all = checked_tick_all
    for _ in range(10_000):
        net.step()
    net.settle()
    assert sum(map(len, timed)) > 1000  # platforms were checked in timed phases


def test_trace_header_records_config_and_generator(traced_run):
    cfg, _, header, _ = traced_run
    assert header["config"] == cfg.to_dict()
    assert "random.Random" in header["rng"]


def test_trace_times_are_non_decreasing(traced_run):
    _, _, _, records = traced_run
    times = [r["t"] for r in records]
    assert times == sorted(times)


def test_battery_never_increases_except_at_restore(traced_run):
    _, _, _, records = traced_run
    last: dict[str, float] = {}
    restores = {
        (r["actor"], r["t"])
        for r in records
        if r["kind"] == "BATTERY" and r["detail"]["event"] == "service_complete_restore"
    }
    for r in records:
        if r["kind"] != "TICK" or not r["actor"].startswith("AP"):
            continue
        battery = r["detail"]["battery_pct"]
        if r["actor"] in last and battery > last[r["actor"]] + 1e-9:
            assert (r["actor"], r["t"]) in restores
        last[r["actor"]] = battery


def test_positions_stay_inside_area(traced_run):
    cfg, _, _, records = traced_run
    width, height = cfg.area_m
    for r in records:
        if r["kind"] == "TICK" and r["actor"].startswith("AP"):
            assert 0.0 <= r["detail"]["x"] <= width
            assert 0.0 <= r["detail"]["y"] <= height


def check_sent_messages_received_one_tick_later(cfg, records):
    """Every message sent before the last tick is received exactly once one
    tick later, except one to a vehicle whose FAILURE record precedes its
    delivery tick: a failed vehicle receives nothing. Returns those
    exemptions as (sent t, src, dst, msg) in send order."""
    # Field payloads are quantized by the wire (centi-percent batteries,
    # centimeter positions), so conservation matches on endpoints and type.
    last_tick = cfg.duration_s - 1

    def actor_id(actor):
        return int(actor[2:])

    failed_at = {actor_id(r["actor"]): r["t"] for r in records if r["kind"] == "FAILURE"}
    sent, exempt = Counter(), []
    for r in records:
        if r["kind"] == "MSG_SENT" and r["t"] < last_tick:
            src, dst, msg = actor_id(r["actor"]), r["detail"]["dst"], r["detail"]["msg"]
            if failed_at.get(dst, math.inf) < r["t"] + 1.0:
                exempt.append((r["t"], src, dst, msg))
            else:
                sent[(r["t"] + 1.0, src, dst, msg)] += 1
    received = Counter()
    for r in records:
        if r["kind"] == "MSG_RECV":
            received[(r["t"], r["detail"]["src"], actor_id(r["actor"]), r["detail"]["msg"])] += 1
    assert sent == received
    return exempt


def test_every_sent_message_is_received_exactly_once_one_tick_later(traced_run):
    cfg, _, _, records = traced_run
    assert check_sent_messages_received_one_tick_later(cfg, records) == []


def test_every_fleet_message_is_received_exactly_once_one_tick_later():
    """20x5x300 carries what one platform does not: heartbeats fanned out
    to five platforms, requests probing several platforms, and cancels."""
    cfg = SimConfig(n_uavs=20, n_lps=5, duration_s=300, seed=0)
    _, _, records = run_traced(cfg)
    assert check_sent_messages_received_one_tick_later(cfg, records) == []


def test_a_message_sent_to_a_failed_vehicle_is_never_received():
    """The platform still frames and queues its boarding-timeout release to
    each of the two vehicles that failed while boarding; neither receives
    it. Every other message arrives one tick after its send."""
    cfg = SimConfig(duration_s=900, consumption_pct_per_s=(0.35, 0.45), seed=0)
    _, _, records = run_traced(cfg)
    assert check_sent_messages_received_one_tick_later(cfg, records) == [
        (413.0, 1, 5, "SystemStateUpdate"),
        (593.0, 1, 6, "SystemStateUpdate"),
    ]


def test_only_vehicles_send_heartbeats_one_per_live_tick_to_every_platform(monkeypatch):
    import autoserve.transport as transport

    beat_frames = Counter()
    send = transport.InMemoryBus.send

    def counting_send(bus, src_sys_id, outbound, now):
        if isinstance(outbound.msg, ExtendedHeartbeat):
            beat_frames[f"{'LP' if src_sys_id <= cfg.n_lps else 'AP'}{src_sys_id}"] += 1
        return send(bus, src_sys_id, outbound, now)

    monkeypatch.setattr(transport.InMemoryBus, "send", counting_send)
    cfg = SimConfig(n_uavs=20, n_lps=5, duration_s=300)
    _, _, records = run_traced(cfg)
    beat_records = Counter(
        r["actor"]
        for r in records
        if r["kind"] == "MSG_SENT" and r["detail"]["msg"] == "ExtendedHeartbeat"
    )
    live_ticks = Counter(
        r["actor"]
        for r in records
        if r["kind"] == "TICK" and r["actor"].startswith("AP") and not r["detail"]["failed"]
    )
    assert not any(actor.startswith("LP") for actor in beat_records | beat_frames)
    assert len(live_ticks) == cfg.n_uavs
    assert beat_records == {actor: cfg.n_lps * n for actor, n in live_ticks.items()}
    assert beat_frames == live_ticks


def test_services_match_restores(traced_run):
    _, report, _, records = traced_run
    restores = [r for r in records if r["kind"] == "BATTERY"]
    assert len(restores) == sum(report.services_completed.values())


def test_state_changes_from_handlers_that_reply_nothing_follow_their_message(traced_run):
    # LANDED at the platform and SERVICE_COMPLETE at the vehicle each get
    # no reply, yet their transition (and the vehicle's restore) must be
    # recorded right after the MSG_RECV of that tick.
    cfg, _, _, records = traced_run
    expected = {
        NodeState.LANDED: ("AWAITING_BOARDING", "ALIGNING"),
        NodeState.SERVICE_COMPLETE: ("BEING_SERVICED", "DEPARTING"),
    }
    seen = Counter()
    for i, r in enumerate(records):
        if r["kind"] != "MSG_RECV" or r["detail"]["msg"] != "SystemStateUpdate":
            continue
        state = NodeState(r["detail"]["fields"]["state"])
        if state not in expected:
            continue
        seen[state] += 1
        change = records[i + 1]
        assert (change["t"], change["actor"], change["kind"]) == (r["t"], r["actor"], "STATE_CHANGE")
        assert (change["detail"]["from"], change["detail"]["to"]) == expected[state]
        if state is NodeState.SERVICE_COMPLETE:
            restore = records[i + 2]
            assert (restore["t"], restore["actor"], restore["kind"]) == (r["t"], r["actor"], "BATTERY")
            assert restore["detail"]["battery_pct"] == 100.0
            # The departure leg then burns at most one tick's consumption.
            tick = next(
                x for x in records[i:] if x["kind"] == "TICK" and x["actor"] == r["actor"]
            )
            assert tick["t"] == r["t"]
            assert tick["detail"]["battery_pct"] >= 100.0 - cfg.consumption_pct_per_s[1]
    assert seen[NodeState.LANDED] >= 1 and seen[NodeState.SERVICE_COMPLETE] >= 1


def test_replaying_messages_reproduces_state_changes(traced_run):
    cfg, _, _, records = traced_run
    lp_positions = cfg.resolved_lp_positions()
    roster = list(zip(range(1, cfg.n_lps + 1), lp_positions))
    lp_pos = dict(roster)

    lps = {
        lp_id: LpNode(
            lp_id,
            service_duration_s=cfg.service_duration_s,
            alignment_duration_s=cfg.alignment_duration_s,
            boarding_timeout_s=cfg.boarding_timeout_s,
        )
        for lp_id, _ in roster
    }
    aps = {
        ap_id: ApNode(
            ap_id,
            roster,
            request_threshold_pct=cfg.request_threshold_pct,
            reserve_floor_pct=cfg.fail_threshold_pct,
            cruise_speed_m_per_s=cfg.max_step_m_per_s,
            max_consumption_pct_per_s=cfg.consumption_pct_per_s[1],
            service_duration_estimate_s=cfg.service_duration_s,
            departure_clear_s=cfg.departure_clear_s,
        )
        for ap_id in range(cfg.n_lps + 1, cfg.n_lps + 1 + cfg.n_uavs)
    }
    nodes = {**lps, **aps}

    by_tick: dict[float, dict] = {}
    for r in records:
        slot = by_tick.setdefault(r["t"], {"msgs": [], "ticks": {}, "changes": {}})
        if r["kind"] == "MSG_RECV":
            slot["msgs"].append(r)
        elif r["kind"] == "TICK":
            slot["ticks"][r["actor"]] = r["detail"]
        elif r["kind"] == "STATE_CHANGE":
            slot["changes"].setdefault(r["actor"], []).append(
                (r["detail"]["from"], r["detail"]["to"])
            )

    observed: dict[str, list] = {}

    def collect(actor, node):
        for frm, to in node.drain_transitions():
            observed.setdefault(actor, []).append((frm.name, to.name))

    for t in sorted(by_tick):
        slot = by_tick[t]
        for r in slot["msgs"]:
            dest = int(r["actor"][2:])
            msg = message_from_fields(r["detail"]["msg"], r["detail"]["fields"])
            nodes[dest].handle_message(msg, r["detail"]["src"], t)
            collect(r["actor"], nodes[dest])
        for ap_id in sorted(aps):
            actor = f"AP{ap_id}"
            detail = slot["ticks"].get(actor)
            if detail is None or detail["failed"]:
                continue
            node = aps[ap_id]
            if node.state is NodeState.BOARDING:
                target = lp_pos[node.current_reservation]
                if (detail["x"], detail["y"]) == target:
                    node.notify_arrival(t)
                    collect(actor, node)
            node.tick(t, detail["battery_pct"], (detail["x"], detail["y"]))
            collect(actor, node)
        for lp_id in sorted(lps):
            lps[lp_id].tick(t)
            collect(f"LP{lp_id}", lps[lp_id])

    expected: dict[str, list] = {}
    for t in sorted(by_tick):
        for actor, changes in by_tick[t]["changes"].items():
            expected.setdefault(actor, []).extend(changes)
    assert observed == expected
    assert sum(len(v) for v in observed.values()) > 10


def test_report_contains_configuration_echo(traced_run):
    cfg, report, _, _ = traced_run
    assert report.config == cfg.to_dict()
    assert set(report.min_battery_pct) == {f"AP{i}" for i in range(2, 5)}


# --- bench contract ------------------------------------------------------------


def wrap_every_binding(monkeypatch, module_name, name):
    """Wrap a function at every module-level binding in the package, as the
    benchmark's span recorder does; returns call counts per binding."""
    original = getattr(sys.modules[module_name], name)
    counts = Counter()
    for bound_in, module in list(sys.modules.items()):
        if bound_in.split(".")[0] != "autoserve":
            continue
        for attr, obj in list(vars(module).items()):
            if obj is original:

                def counting(*args, _binding=f"{bound_in}.{attr}", **kwargs):
                    counts[_binding] += 1
                    return original(*args, **kwargs)

                monkeypatch.setattr(module, attr, counting)
    return counts


def test_codec_calls_are_visible_at_their_module_bindings(monkeypatch):
    import autoserve.transport as transport

    checksums = wrap_every_binding(monkeypatch, "autoserve.wire", "compute_checksum")
    encodes = wrap_every_binding(monkeypatch, "autoserve.wire", "encode_frame")
    verifies = wrap_every_binding(monkeypatch, "autoserve.wire", "verify_frame")
    decodes = wrap_every_binding(monkeypatch, "autoserve.wire", "decode_frame")
    delivered_frames = {}  # id -> frame, kept alive so that ids stay unique
    pop_due = transport.InMemoryBus.pop_due

    def recording_pop_due(bus, now):
        due = pop_due(bus, now)
        delivered_frames.update((id(d.frame), d.frame) for d in due)
        return due

    monkeypatch.setattr(transport.InMemoryBus, "pop_due", recording_pop_due)
    run_sim(SimConfig(duration_s=600))

    n_encodes = sum(encodes.values())
    n_verifies = sum(verifies.values())
    assert set(encodes) == {"autoserve.transport.encode_frame"}
    # One decode, and so one verification, per delivered send, however
    # many receivers it has.
    assert decodes == {"autoserve.sim.decode_frame": len(delivered_frames)}
    assert set(verifies) == {"autoserve.wire.verify_frame"}
    assert 0 < n_verifies <= n_encodes
    assert n_verifies == len(delivered_frames)
    # One checksum per encode plus one per verified send, looked up in wire.
    assert checksums == {"autoserve.wire.compute_checksum": n_encodes + n_verifies}


def test_function_bodies_read_no_enum_member_through_its_class():
    """On CPython 3.11 a NodeState.X load in a function is not specialised
    (EnumType defines __getattr__), so the per-tick modules read members
    from module-level bindings. Module-level tables are exempt."""
    import ast

    import autoserve

    enums = {"NodeState", "VehicleType", "FlightStack", "ReservationAction"}
    package = Path(autoserve.__file__).parent
    reads = []
    for module in ("ap_node.py", "lp_node.py", "sim.py", "transport.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for statement in function.body:
                for node in ast.walk(statement):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in enums
                    ):
                        reads.append(f"{module}:{node.lineno} {node.value.id}.{node.attr}")
    assert reads == []


def test_bench_span_recorder_splits_run_sim_into_its_tick_phases(monkeypatch):
    """The benchmark's phase split needs run_sim as the only root span, the
    phase markers directly under it, and one pop_due call per tick."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from spans import SpanRecorder

    import autoserve.sim as sim_module

    with SpanRecorder() as recorder:
        sim_module.run_sim(SimConfig(duration_s=300), trace=io.StringIO())
    stats = recorder.analyse()
    roots = [i for i, parent in enumerate(stats.parents) if parent < 0]
    assert [stats.names[stats.codes[i]] for i in roots] == ["sim.run_sim"]
    assert stats.nested()
    assert stats.calls("transport.InMemoryBus.pop_due") == 300
    phases = stats.phases_s()
    assert set(phases) == {"deliver", "physics", "ap_tick", "lp_tick", "trace"}
    assert all(seconds > 0 for seconds in phases.values())


def test_readme_library_example_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS {'LP1': 45}")
    assert lines[1:] == ["{}", "3/3 seeds pass"]
