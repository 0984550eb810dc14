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
# MSG_RECV records, and the reports did not change.
RUNS = [
    (
        SimConfig(duration_s=1800),
        {},
        "8eb22230d514ed9ead22277c4e7ef3c93684dc876f5eaf5cda3cd820052f1a86",
        "ec74f9d9e102c2648ca1960c0227c30af8de372e72d165235ff492a173ca9891",
    ),
    # One vehicle hears a clearance from a platform it is not waiting on.
    (
        SimConfig(n_uavs=20, n_lps=5, duration_s=300),
        {"ap_confirmation_unexpected": 1},
        "7ed836f666a0904a0f4ce0f3abc872d9028ae0d0d3a302d7a399534523df063d",
        "0ab58a0ba4f3041fd63ae73119f8be9bec31ea3384dd022929c050fb186e51a3",
    ),
    # Fails: 4 FAILURE records and 1,371 TICKs with "failed":true; three
    # vehicles cleared to board fail before they land.
    (
        SimConfig(duration_s=900, consumption_pct_per_s=(0.35, 0.45)),
        {"lp_boarding_timeout": 3},
        "c92d2c94748ea751917dd858837aff7211729037b8b7421822399da5166ecc3a",
        "f02dc104762fe5cc65fe872fa0a9521362e927fa5006cf0fee14c82ad72e7c55",
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
# trace to a discard sink, so no trace digest is pinned here.
BENCH_RUNS = [
    (SimConfig(), {}, "ef1802d8607de8f85e6c5c018d441a11590b1cacb7a85757b1d19952b95a143a"),
    (
        SimConfig(n_uavs=20, n_lps=5, duration_s=1800),
        {"ap_confirmation_unexpected": 1},
        "9e76aed4889e2597c9312f0c0cc3c076e98c135a3cc7448b068eed94c5395713",
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
