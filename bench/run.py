#!/usr/bin/env python3
"""autoserve benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]

With --workload, runs one workload and prints, as its last line, one JSON
object {correct, attempted, failed, metrics}. With --trace 0 the metrics
are the end-to-end metrics, measured with no wrapper but a timestamp at
each tick; with --trace 1 they are the per-layer metrics from a separate
run under the span recorder (bench/spans.py). Without --workload, runs
every workload in its own process, prints a table of the metrics, and
rewrites BENCHMARK.json from the definitions below.

The seed picks the simulation seed; the program receives only the
generated SimConfig. The simulation runs in this one process, single
threaded, closed loop: each tick completes before the next starts; only
the set-up and import timings start fresh processes, one at a time. The
autoserve sources are imported from src/ next to this directory; the
benchmark exits with an error when they are missing. See bench/NOTES.md
for what each metric should move and the noise behind the bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
RUN_SECONDS = 30
SETUP_REPEATS = 5
# Per-layer self times plus sim.self_s must add up to the traced wall time
# within this share of it.
SELF_SUM_TOLERANCE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    n_uavs: int
    n_lps: int
    duration_s: int
    json_trace: bool
    why: str


WORKLOADS = [
    Workload(
        "capacity-5x1", 5, 1, 7200, False,
        "the paper's capacity experiment (5 UAVs, 1 LP, 7200 s): real queue, per-frame codec cost dominates",
    ),
    Workload(
        "fleet-20x5", 20, 5, 1800, False,
        "20 UAVs, 5 LPs, 1800 s: broadcast fan-out, per-receiver decode, LP heartbeats and AP retry probing carry the load",
    ),
    Workload(
        "capacity-5x1-traced", 5, 1, 7200, True,
        "capacity-5x1 writing its JSON-lines trace to a byte-counting discard sink: the trace write path",
    ),
]
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

# name, unit, better, bound
END_TO_END = [
    ("vehicle_s_per_s", "veh-s/s", "higher", 0.25),
    ("tick_ms_p99", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("services_completed", "count", "higher", 0.15),
    ("queue_wait_mean_s", "s", "lower", 0.15),
    ("fleet_min_battery_pct", "%", "higher", 0.25),
    ("vehicles_ok", "count", "higher", 0.04),
    ("link_bytes_per_vehicle_s", "B/veh-s", "lower", 0.05),
]

# name, unit; every per-layer metric counts work or time, so lower is better.
PER_LAYER = [
    ("wire.self_s", "s"),
    ("wire.encode_frame.calls", "count"),
    ("wire.encode_frame.us_p50", "us"),
    ("wire.encode_frame.self_s", "s"),
    ("wire.decode_frame.calls", "count"),
    ("wire.decode_frame.us_p50", "us"),
    ("wire.decode_frame.self_s", "s"),
    ("wire.compute_checksum.calls", "count"),
    ("wire.compute_checksum.us_p50", "us"),
    ("wire.bytes_encoded", "bytes"),
    ("wire.message_to_fields.calls", "count"),
    ("transport.self_s", "s"),
    ("transport.send.calls", "count"),
    ("transport.send.self_s", "s"),
    ("transport.deliveries", "count"),
    ("transport.fanout", "deliveries/send"),
    ("transport.pop_due.self_s", "s"),
    ("transport.in_flight_max", "count"),
    ("reservation.ops", "count"),
    ("reservation.op_us_p50", "us"),
    ("reservation.self_s", "s"),
    ("reservation.depth_max", "count"),
    ("lp_node.self_s", "s"),
    ("lp_node.handle_message.calls", "count"),
    ("lp_node.handle_message.self_s", "s"),
    ("lp_node.tick.calls", "count"),
    ("lp_node.tick.self_s", "s"),
    ("ap_node.self_s", "s"),
    ("ap_node.handle_message.calls", "count"),
    ("ap_node.handle_message.self_s", "s"),
    ("ap_node.tick.calls", "count"),
    ("ap_node.tick.self_s", "s"),
    ("ap_node.requests_per_service", "req/service"),
    ("routing.calls", "count"),
    ("sim.self_s", "s"),
    ("sim.phase.deliver_s", "s"),
    ("sim.phase.physics_s", "s"),
    ("sim.phase.ap_tick_s", "s"),
    ("sim.phase.lp_tick_s", "s"),
    ("sim.phase.trace_s", "s"),
    ("sim.trace.records", "count"),
    ("sim.trace.bytes", "bytes"),
    ("cli.import_s", "s"),
    ("bench.span_overhead_frac", "ratio"),
]


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# The program under test


def import_autoserve():
    """Import autoserve from src/ next to the benchmark, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "autoserve", "__init__.py")):
        raise SystemExit(f"bench: no autoserve sources under {SRC}")
    sys.path.insert(0, SRC)
    import autoserve
    from autoserve import sim, transport, wire

    if not os.path.abspath(autoserve.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: autoserve imported from {autoserve.__file__}, not {SRC}")
    return sim, transport, wire


def src_line_counts() -> dict[str, int]:
    """Lines per module under src/autoserve, and their total; not gated."""
    package = os.path.join(SRC, "autoserve")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                counts[name[:-3]] = sum(1 for _ in handle)
    counts["total"] = sum(counts.values())
    return counts


def timed_subprocess_runs(argv: list[str], check) -> tuple[list[float], bool]:
    """Wall times of SETUP_REPEATS fresh runs of argv, after one warm-up."""
    times, ok = [], True
    env = dict(os.environ, PYTHONPATH=SRC)
    for attempt in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        elapsed = time.perf_counter() - t0
        if not check(done):
            sys.stderr.write(done.stdout + done.stderr)
            ok = False
        if attempt:
            times.append(elapsed)
    return times, ok


# ---------------------------------------------------------------------------
# Trace sinks


class CountingSink:
    """Text sink that counts the bytes written and discards them.

    The trace is JSON with ASCII escaping, so characters are bytes.
    """

    def __init__(self) -> None:
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text)
        return len(text)


class CheckingSink(CountingSink):
    """Counts, hashes and parses every trace line: each is JSON, the first is
    the header, and record times never decrease."""

    def __init__(self) -> None:
        super().__init__()
        self.digest = hashlib.sha256()
        self.lines = 0
        self.errors: list[str] = []
        self._last_t = -math.inf
        self._partial = ""

    def write(self, text: str) -> int:
        self.digest.update(text.encode("utf-8"))
        *lines, self._partial = (self._partial + text).split("\n")
        for line in lines:
            self._check(line)
        return super().write(text)

    def _check(self, line: str) -> None:
        self.lines += 1
        try:
            obj = json.loads(line)
        except ValueError as exc:
            self._error(f"line {self.lines} is not JSON: {exc}")
            return
        if self.lines == 1:
            if "header" not in obj:
                self._error("line 1 is not the header")
            return
        t = obj.get("t")
        if not isinstance(t, (int, float)) or t < self._last_t:
            self._error(f"line {self.lines}: t={t!r} after t={self._last_t}")
        else:
            self._last_t = t

    def _error(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def finish(self) -> None:
        if self._partial:
            self._error("trace does not end with a newline")
        if self.lines < 2:
            self._error("trace has no records")


# ---------------------------------------------------------------------------
# One repetition of a workload


@dataclass
class Rep:
    report: object = None
    report_sha256: str = ""
    wall_s: float = 0.0
    ticks_ns: np.ndarray | None = None
    deliveries: int = 0
    sink: CountingSink | None = None
    error: str = ""


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


def run_rep(sim, transport, cfg, sink, recorder=None, frame_bytes=None) -> Rep:
    """One run_sim call with a timestamp at each InMemoryBus.pop_due call.

    run_sim calls pop_due exactly once per tick and decodes every popped
    delivery once, so the stamps give tick times and the popped
    deliveries count the operations. With frame_bytes (a one-element
    list) the wrapper also sums frame bytes once per send: deliveries of
    one send are adjacent and share one frame object.
    """
    bus_cls = transport.InMemoryBus
    pop_due = bus_cls.pop_due
    stamps = array("q")
    popped = [0]
    clock = time.perf_counter_ns
    stamp = stamps.append

    if frame_bytes is None:

        def timed_pop_due(self, now):
            stamp(clock())
            due = pop_due(self, now)
            popped[0] += len(due)
            return due

    else:

        def timed_pop_due(self, now):
            stamp(clock())
            due = pop_due(self, now)
            popped[0] += len(due)
            last = None
            for delivery in due:
                if delivery.frame is not last:
                    last = delivery.frame
                    frame_bytes[0] += len(last)
            return due

    rep = Rep(sink=sink)
    bus_cls.pop_due = timed_pop_due
    try:
        with recorder or contextlib.nullcontext():
            t0 = clock()
            report = sim.run_sim(cfg, trace=sink)
            t1 = clock()
    except Exception:
        rep.error = traceback.format_exc()
        return rep
    finally:
        bus_cls.pop_due = pop_due
        rep.deliveries = popped[0]
    rep.report = report
    rep.report_sha256 = report_digest(report)
    rep.wall_s = (t1 - t0) / 1e9
    rep.ticks_ns = np.diff(np.append(np.frombuffer(stamps, dtype=np.int64), t1))
    return rep


def another_fits(started: float, seconds: float, last_s: float) -> bool:
    """Whether one more repetition as long as the last ends within the budget."""
    return time.perf_counter() - started + last_s <= seconds


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


def modelled_metrics(workload: Workload, report, frame_bytes: int) -> dict[str, float]:
    vehicle_s = workload.n_uavs * workload.duration_s
    failed_uavs = {failure["uav"] for failure in report.failures}
    return {
        "services_completed": sum(report.services_completed.values()),
        "queue_wait_mean_s": report.queue_wait_mean_s,
        "fleet_min_battery_pct": min(report.min_battery_pct.values()),
        "vehicles_ok": workload.n_uavs - len(failed_uavs),
        "link_bytes_per_vehicle_s": frame_bytes / vehicle_s,
    }


def measure_setup(workload: Workload, seed: int, checks: Checks) -> float:
    argv = [
        sys.executable, "-m", "autoserve.cli", "run",
        "--uavs", str(workload.n_uavs), "--lps", str(workload.n_lps),
        "--duration", "0", "--seed", str(seed),
    ]

    def ok(done) -> bool:
        return done.returncode == 0 and "outcome=PASS" in done.stdout.splitlines()

    times, fine = timed_subprocess_runs(argv, ok)
    checks.expect(fine, "autoserve-sim run --duration 0 did not exit 0 with outcome=PASS")
    return statistics.median(times)


def run_end_to_end(sim, transport, workload, cfg, seed, seconds, checks, info):
    setup_s = measure_setup(workload, seed, checks)

    # Untimed check repetition: warms caches, gives the modelled metrics,
    # and for the traced workload parses every trace line.
    frame_bytes = [0]
    check = run_rep(
        sim, transport, cfg, CheckingSink() if workload.json_trace else None,
        frame_bytes=frame_bytes,
    )
    reps = [check]
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run_rep(sim, transport, cfg, CountingSink() if workload.json_trace else None)
        reps.append(rep)
        if rep.error or not another_fits(started, seconds, time.perf_counter() - t0):
            break

    bad = set()
    for i, rep in enumerate(reps):
        if not checks.expect(not rep.error, f"rep {i} raised:\n{rep.error}"):
            bad.add(i)
            continue
        if not checks.expect(
            len(rep.ticks_ns) == cfg.duration_s,
            f"rep {i}: {len(rep.ticks_ns)} pop_due calls for {cfg.duration_s} ticks",
        ):
            bad.add(i)
        if not checks.expect(
            rep.report_sha256 == check.report_sha256, f"rep {i}: report digest differs"
        ):
            bad.add(i)
        report = rep.report
        if not checks.expect(
            report.outcome == ("FAIL" if report.failures else "PASS")
            and report.config == cfg.to_dict(),
            f"rep {i}: report outcome or config inconsistent",
        ):
            bad.add(i)
        if workload.json_trace and not checks.expect(
            rep.sink.bytes == check.sink.bytes,
            f"rep {i}: {rep.sink.bytes} trace bytes, check rep wrote {check.sink.bytes}",
        ):
            bad.add(i)
    if workload.json_trace:
        check.sink.finish()
        if not checks.expect(not check.sink.errors, "trace: " + "; ".join(check.sink.errors)):
            bad.add(0)
        info["trace_sha256"] = check.sink.digest.hexdigest()
        info["trace_bytes"] = check.sink.bytes
        info["trace_lines"] = check.sink.lines

    timed = [rep for i, rep in enumerate(reps) if i and i not in bad]
    metrics = dict.fromkeys((name for name, *_ in END_TO_END), 0.0)
    metrics["setup_s"] = setup_s
    if timed:
        ticks_ms = np.concatenate([rep.ticks_ns for rep in timed]) / 1e6
        walls = [rep.wall_s for rep in timed]
        vehicle_s = workload.n_uavs * workload.duration_s * len(walls)
        metrics["vehicle_s_per_s"] = vehicle_s / sum(walls)
        # Recorded, not gated: the host alternates between a fast and a
        # slow speed, so the median tick flips between them from run to run.
        info["tick_ms_p50"] = float(np.median(ticks_ms))
        metrics["tick_ms_p99"] = float(np.percentile(ticks_ms, 99))
        info["timed_reps"] = len(timed)
        info["ticks"] = ticks_ms.size
        info["rep_wall_s"] = walls
    if check.report is not None:
        metrics.update(modelled_metrics(workload, check.report, frame_bytes[0]))
        info["report_sha256"] = check.report_sha256
        info["vehicles_failed"] = workload.n_uavs - metrics["vehicles_ok"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(rep.deliveries for rep in reps)
    failed = sum(reps[i].deliveries for i in bad)
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Per-layer run (--trace 1)


class LayerCounts:
    """Counts taken at layer boundaries by span hooks."""

    def __init__(self, wire) -> None:
        self.request_type = wire.ServiceReservationRequest
        self.bytes_encoded = 0
        self.deliveries = 0
        self.requests = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self.queue_depth_max = 0
        self.trace_records = 0

    def hooks(self) -> dict:
        def encoded(args, frame):
            self.bytes_encoded += len(frame)

        def sent(args, queued):
            self.deliveries += len(queued)
            self.in_flight += len(queued)
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
            if isinstance(args[2].msg, self.request_type):
                self.requests += 1

        def popped(args, due):
            self.in_flight -= len(due)

        def queue_op(args, result):
            self.queue_depth_max = max(self.queue_depth_max, len(args[0]))

        def recorded(args, result):
            self.trace_records += 1

        hooks = {
            "wire.encode_frame": encoded,
            "transport.InMemoryBus.send": sent,
            "transport.InMemoryBus.pop_due": popped,
            "sim.TraceWriter.record": recorded,
        }
        for op in ("enqueue", "cancel", "pop_next", "peek_next", "position_of", "get", "reservations"):
            hooks[f"reservation.ServiceQueue.{op}"] = queue_op
        return hooks


def layer_metrics(stats, layer_self, counts: LayerCounts, traced: Rep, untraced: Rep):
    phases = stats.phases_s()
    sends = stats.calls("transport.InMemoryBus.send")
    services = sum(traced.report.services_completed.values())
    queue_ops = stats.layer_entries("reservation")
    return {
        "wire.self_s": layer_self["wire"],
        "wire.encode_frame.calls": stats.calls("wire.encode_frame"),
        "wire.encode_frame.us_p50": stats.median_us("wire.encode_frame"),
        "wire.encode_frame.self_s": stats.self_s("wire.encode_frame"),
        "wire.decode_frame.calls": stats.calls("wire.decode_frame"),
        "wire.decode_frame.us_p50": stats.median_us("wire.decode_frame"),
        "wire.decode_frame.self_s": stats.self_s("wire.decode_frame"),
        "wire.compute_checksum.calls": stats.calls("wire.compute_checksum"),
        "wire.compute_checksum.us_p50": stats.median_us("wire.compute_checksum"),
        "wire.bytes_encoded": counts.bytes_encoded,
        "wire.message_to_fields.calls": stats.calls("wire.message_to_fields"),
        "transport.self_s": layer_self["transport"],
        "transport.send.calls": sends,
        "transport.send.self_s": stats.self_s("transport.InMemoryBus.send"),
        "transport.deliveries": counts.deliveries,
        "transport.fanout": counts.deliveries / max(sends, 1),
        "transport.pop_due.self_s": stats.self_s("transport.InMemoryBus.pop_due"),
        "transport.in_flight_max": counts.in_flight_max,
        "reservation.ops": len(queue_ops),
        "reservation.op_us_p50": (
            float(statistics.median(stats.durations[queue_ops])) / 1e3 if len(queue_ops) else 0.0
        ),
        "reservation.self_s": layer_self["reservation"],
        "reservation.depth_max": counts.queue_depth_max,
        "lp_node.self_s": layer_self["lp_node"],
        "lp_node.handle_message.calls": stats.calls("lp_node.LpNode.handle_message"),
        "lp_node.handle_message.self_s": stats.self_s("lp_node.LpNode.handle_message"),
        "lp_node.tick.calls": stats.calls("lp_node.LpNode.tick"),
        "lp_node.tick.self_s": stats.self_s("lp_node.LpNode.tick"),
        "ap_node.self_s": layer_self["ap_node"],
        "ap_node.handle_message.calls": stats.calls("ap_node.ApNode.handle_message"),
        "ap_node.handle_message.self_s": stats.self_s("ap_node.ApNode.handle_message"),
        "ap_node.tick.calls": stats.calls("ap_node.ApNode.tick"),
        "ap_node.tick.self_s": stats.self_s("ap_node.ApNode.tick"),
        "ap_node.requests_per_service": counts.requests / max(services, 1),
        "routing.calls": sum(
            stats.calls(name) for name in stats.names if name.startswith("routing.")
        ),
        "sim.self_s": layer_self["sim"],
        "sim.phase.deliver_s": phases["deliver"],
        "sim.phase.physics_s": phases["physics"],
        "sim.phase.ap_tick_s": phases["ap_tick"],
        "sim.phase.lp_tick_s": phases["lp_tick"],
        "sim.phase.trace_s": phases["trace"],
        "sim.trace.records": counts.trace_records,
        "sim.trace.bytes": traced.sink.bytes if traced.sink is not None else 0,
        "bench.span_overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }


def measure_import(checks: Checks) -> float:
    code = (
        "import time; t = time.perf_counter(); import autoserve.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = []

    def ok(done) -> bool:
        if done.returncode != 0:
            return False
        imports.append(float(done.stdout.split()[-1]))
        return True

    _, fine = timed_subprocess_runs([sys.executable, "-c", code], ok)
    checks.expect(fine, "importing autoserve.cli failed")
    return statistics.median(imports[1:]) if len(imports) > 1 else 0.0


def run_per_layer(sim, transport, wire, workload, cfg, seconds, checks, info):
    from spans import SpanRecorder

    per_pair = []
    attempted = failed = 0
    started = time.perf_counter()
    while not per_pair or another_fits(started, seconds, pair_s):
        t0 = time.perf_counter()
        untraced = run_rep(sim, transport, cfg, CountingSink() if workload.json_trace else None)
        counts = LayerCounts(wire)
        recorder = SpanRecorder(counts.hooks())
        traced = run_rep(
            sim, transport, cfg, CountingSink() if workload.json_trace else None, recorder
        )
        attempted += untraced.deliveries + traced.deliveries
        pair_ok = checks.expect(not untraced.error, f"untraced rep raised:\n{untraced.error}")
        pair_ok &= checks.expect(not traced.error, f"traced rep raised:\n{traced.error}")
        if not pair_ok:
            failed += untraced.deliveries + traced.deliveries
            break
        pair_ok &= checks.expect(
            traced.report_sha256 == untraced.report_sha256,
            "span-traced report differs from the untraced report",
        )
        stats = recorder.analyse()
        pair_ok &= checks.expect(stats.nested(), "a span lies outside its parent")
        layer_self = stats.layer_self_s()
        layer_sum = sum(layer_self.values())
        share = abs(layer_sum - traced.wall_s) / traced.wall_s
        pair_ok &= checks.expect(
            share <= SELF_SUM_TOLERANCE,
            f"layer self times sum to {layer_sum:.4f} s against {traced.wall_s:.4f} s wall",
        )
        if not pair_ok:
            failed += untraced.deliveries + traced.deliveries
        info.setdefault("self_sum_share_of_wall", []).append(layer_sum / traced.wall_s)
        info["spans"] = stats.count
        info["report_sha256"] = untraced.report_sha256
        info["layer_self_s"] = layer_self
        # Self times that are exactly zero on some workloads; recorded, not gated.
        info["zero_on_some_workloads_s"] = {
            "wire.message_to_fields.self_s": stats.self_s("wire.message_to_fields"),
            "sim.trace.record_self_s": stats.self_s("sim.TraceWriter.record"),
            "routing.self_s": layer_self["routing"],
        }
        per_pair.append(
            layer_metrics(stats, layer_self, counts, traced, untraced)
        )
        pair_s = time.perf_counter() - t0

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload.name}.npz")
    recorder.save(path)
    info["spans_file"] = os.path.relpath(path, ROOT)
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    for name in metrics:
        values = [pair[name] for pair in per_pair if name in pair]
        if values:
            metrics[name] = statistics.median(values)
    metrics["cli.import_s"] = measure_import(checks)
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Entry points


def run_workload(args) -> int:
    workload = WORKLOAD_BY_NAME[args.workload]
    sim, transport, wire = import_autoserve()
    cfg = sim.SimConfig(
        n_uavs=workload.n_uavs,
        n_lps=workload.n_lps,
        duration_s=workload.duration_s,
        seed=args.seed,
    )
    cfg.validate()
    checks = Checks()
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "src_lines": src_line_counts(),
    }
    if args.trace:
        metrics, attempted, failed = run_per_layer(
            sim, transport, wire, workload, cfg, args.seconds, checks, info
        )
        units = dict(PER_LAYER)
    else:
        metrics, attempted, failed = run_end_to_end(
            sim, transport, workload, cfg, args.seed, args.seconds, checks, info
        )
        units = {name: unit for name, unit, *_ in END_TO_END}
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if checks.failures and failed == 0:
        failed = attempted
    info["checks_failed"] = len(checks.failures)
    for name, value in metrics.items():
        print(f"{name:32} {value:>16.6f} {units[name]}")
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not checks.failures,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process and print one table."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest(), handle, indent=2)
        handle.write("\n")
    results = {}
    for workload in WORKLOADS:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", workload.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload.name}: exit {done.returncode}", file=sys.stderr)
            return 1
        results[workload.name] = json.loads(lines[-1])
        print(lines[-2])
    names = [w.name for w in WORKLOADS]
    print(f"{'metric':32} {'unit':16}" + "".join(f"{n:>22}" for n in names))
    first = results[names[0]]["metrics"]
    for metric, entry in first.items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:>22.6f}" for n in names)
        print(f"{metric:32} {entry['unit']:16}{row}")
    for n in names:
        r = results[n]
        print(f"{n}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
