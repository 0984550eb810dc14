"""Golden pins: exact wire bytes and seeded run digests.

The values were recorded from the codec and simulator before the wire
codec became table driven. A refactor that keeps behaviour leaves every
one of them unchanged; a change that moves one must say why.
"""

import hashlib
import io

import pytest

import autoserve.wire as wire
from autoserve.sim import SimConfig, run_sim
from autoserve.wire import (
    ApReservationDecision,
    ExtendedHeartbeat,
    LpReservationConfirmation,
    NodeState,
    ReservationAction,
    ServiceReservationRequest,
    SigningContext,
    SystemStateUpdate,
    encode_frame,
)

CRC_EXTRA = {42000: 0x9D, 42001: 0xC1, 42002: 0x88, 42003: 0x0E, 42004: 0xB3}

# (message, unsigned hex, signed hex); seq 17, sys 21, comp 1, link 3,
# timestamp source fixed at 123,456,789 and secret bytes 0..31.
FRAMES = [
    (
        ExtendedHeartbeat(1, 2, NodeState.BOARDING, 64.31, 123.45, -67.89, 3, 4),
        "fd0f000011150110a40001020304081f19393000007be5ffff27c9",
        "fd0f010011150110a40001020304081f19393000007be5ffff63920315cd5b070000239d02e46a2d",
    ),
    (
        ServiceReservationRequest(priority=42, target_lp_sys_id=3),
        "fd02000011150111a4002a03238f",
        "fd02010011150111a4002a03b2da0315cd5b070000b45df4cbdeed",
    ),
    (
        LpReservationConfirmation(target_ap_sys_id=9, queue_position=513),
        "fd03000011150112a40009010209b9",
        "fd03010011150112a4000901025c3c0315cd5b070000a7c5fad9d302",
    ),
    (
        ApReservationDecision(target_lp_sys_id=2, decision=ReservationAction.KEEP),
        "fd02000011150113a4000201c74f",
        "fd02010011150113a4000201561a0315cd5b070000e3d84493655d",
    ),
    (
        SystemStateUpdate(state=NodeState.SERVICE_COMPLETE),
        "fd01000011150114a4000cf2a6",
        "fd01010011150114a4000cd58a0315cd5b07000049496e983973",
    ),
]

# (config, report drops, report SHA-256, trace SHA-256) at seed 0. Re-pinned
# when the liveness_window_s and liveness_min_count fields left SimConfig,
# and again when critical_threshold_pct left it with the platform
# auto-reservation it configured: each time only the config echo in the
# trace header and the report changed. The report digests were re-pinned
# once more when the report gained its drops counts; the traces did not
# change. The trace digests were re-pinned when platforms stopped sending
# heartbeats: each trace is its predecessor minus the platforms'
# ExtendedHeartbeat MSG_SENT records and the vehicles' ExtendedHeartbeat
# MSG_RECV records, and the reports did not change. Every report and trace
# digest was re-pinned when each vehicle's stream became a random.Random
# seeded with f"{seed} {index}" in place of a copy of numpy's PCG64: the
# draws, and so every seeded run, changed.
RUNS = [
    (
        SimConfig(duration_s=1800),
        {},
        "c779dc94d29477d9dbaab54c48defa92f80406e5af4c11103d76863933306d00",
        "99f1aef33b165c6366d54d4e8c837ece42babb1dc058146b1caeb9ad4c555c8f",
    ),
    (
        SimConfig(n_uavs=20, n_lps=5, duration_s=300),
        {},
        "80734e54df61d3f162a45840f4d9fb86d7fea0c31da6620464cb0039064c5c79",
        "8dd5c389e4ba624e710064c0a7f022ebd5069c6cc5e9d6e313548eade9a54bbd",
    ),
    # Fails: 2 FAILURE records and 978 TICKs with "failed":true; both
    # vehicles cleared to board fail before they land. Its trace was
    # re-pinned when a platform began telling the vehicle it releases on
    # its boarding timeout: each release adds the SystemStateUpdate(IDLE)
    # MSG_SENT and MSG_RECV records and the failed vehicle's BOARDING ->
    # OPERATING STATE_CHANGE, and that vehicle's remaining TICKs (792 in
    # all) read OPERATING in place of BOARDING. The report did not change.
    (
        SimConfig(duration_s=900, consumption_pct_per_s=(0.35, 0.45)),
        {"lp_boarding_timeout": 2},
        "b34686e1b99f5863c2e73cee60c904c72732cefe3136fd3e713faa4e4536aeac",
        "dc2f89b92421ec407fc936a177b26e0f4a0ffaf085d3c6330e5d7eae47340966",
    ),
]


def test_crc_extra_values():
    assert {k: spec.crc_extra for k, spec in wire._MESSAGE_SPECS.items()} == CRC_EXTRA


def test_readme_reference_frame():
    frame = encode_frame(SystemStateUpdate(state=NodeState.IDLE), seq=0, sys_id=1, comp_id=1)
    assert frame.hex() == "fd01000000010114a400002a0f"


@pytest.mark.parametrize(
    "msg, unsigned_hex, signed_hex", FRAMES, ids=[type(f[0]).__name__ for f in FRAMES]
)
def test_frame_bytes(msg, unsigned_hex, signed_hex):
    signing = SigningContext(bytes(range(32)), 3, lambda: 123_456_789)
    assert encode_frame(msg, 17, 21, 1).hex() == unsigned_hex
    assert encode_frame(msg, 17, 21, 1, signing=signing).hex() == signed_hex


@pytest.mark.parametrize(
    "cfg, drops, report_sha, trace_sha",
    RUNS,
    ids=[f"{cfg.n_uavs}x{cfg.n_lps}x{cfg.duration_s}" for cfg, *_ in RUNS],
)
def test_run_digests(cfg, drops, report_sha, trace_sha):
    buf = io.StringIO()
    report = run_sim(cfg, trace=buf)
    assert report.drops == drops
    assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == report_sha
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == trace_sha


# (config, report drops, report SHA-256) for the configs bench/run.py
# runs: capacity-5x1 and capacity-5x1-traced share the default config, and
# fleet-20x5 is 20x5x1800. Reports only: the traced workload writes its
# trace to a discard sink, so no trace digest is pinned here. Re-pinned,
# with RUNS, when the vehicle streams became random.Random.
BENCH_RUNS = [
    (SimConfig(), {}, "5911c65d9ea5f1ee5cfd719d04f4e22b9fe326500141d84f4ade143531a27041"),
    (
        SimConfig(n_uavs=20, n_lps=5, duration_s=1800),
        {},
        "6931ba767f6ffa7e6a4bbdccd2aeed30659568ee0ac5dc1590ca1e08091374fa",
    ),
]


@pytest.mark.parametrize(
    "cfg, drops, report_sha",
    BENCH_RUNS,
    ids=[f"{cfg.n_uavs}x{cfg.n_lps}x{cfg.duration_s}" for cfg, *_ in BENCH_RUNS],
)
def test_bench_config_reports(cfg, drops, report_sha):
    report = run_sim(cfg)
    assert report.drops == drops
    assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == report_sha
