"""Deterministic discrete-time fleet simulation.

N aerial platforms and M landing platforms exchange signed frames over
the in-memory bus at 1 s ticks. Per tick, each operating vehicle burns a
bounded-random amount of battery and takes a bounded-random 2D step;
once its battery falls below the request threshold it runs the
reservation protocol against the landing platforms. Boarding vehicles
fly straight at their platform at the speed bound; docked or holding
vehicles neither move nor consume (battery drains only while flying a
leg: operating, approaching, or departing). A vehicle is restored to
100% when its service completes, and the run fails if any vehicle ever
drops below the failure threshold. A failed vehicle neither moves, ticks
nor receives for the rest of the run.

Every run is a pure function of its SimConfig: each vehicle draws from
its own random.Random (Mersenne Twister) stream seeded with the string
f"{seed} {vehicle_index}", so adding vehicle k+1 never alters the draws
of vehicles 1..k. A string seed goes through SHA-512, not hash(), so the
streams do not depend on PYTHONHASHSEED. Two runs of the same config
produce byte-identical traces.

Trace files are UTF-8 JSON lines. The first line is
{"header": {config, rng, trace_format}}; every following line is a
record {t, actor, kind, detail} with kind one of TICK, MSG_SENT,
MSG_RECV, STATE_CHANGE, BATTERY, FAILURE. actor names the node the
record is about, as its StateMachine.actor: "AP<sys_id>" or "LP<sys_id>".
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, replace
from hashlib import sha256
from typing import IO, Mapping

from .ap_node import ApNode
from .lp_node import LpNode
from .transport import InMemoryBus
from .wire import (
    BEING_SERVICED,
    BOARDING,
    DEPARTING,
    OPERATING,
    _COMPACT_JSON,
    Keystore,
    NodeState,
    decode_frame,
    message_json,
)

# Shared by every node on the simulated network; links are trusted here,
# signing exists to exercise the full wire path.
NETWORK_SECRET = sha256(b"autoserve shared network key").digest()

RNG_DESCRIPTION = (
    "Python random.Random (MT19937), one stream per vehicle seeded with "
    "the string f'{seed} {vehicle_index}'; draw order per "
    "vehicle: spawn radius u, spawn angle u, initial battery, then per "
    "tick consumption (when flying) and displacement x, y (when operating)"
)

TRACE_FORMAT = 1

# TICK details, the bulk of a trace; state names need no JSON escaping.
# The rare STATE_CHANGE, BATTERY and FAILURE details go through _COMPACT_JSON.
_LP_TICK = '{"state":"%s","queue_len":%d,"current_ap":%s}'
_AP_TICK = '{"state":"%s","battery_pct":%r,"x":%r,"y":%r,"failed":%s}'

# Battery drains while flying a leg; holding for the protocol or sitting
# on the platform costs nothing.
DRAIN_STATES = frozenset({OPERATING, BOARDING, DEPARTING})

# Each state's name by its code; NodeState.name is a property, slower than
# a tuple index. Raises unless the codes run 0, 1, 2, ...
_STATE_NAMES = tuple(NodeState(code).name for code in range(len(NodeState)))


class InvalidConfig(Exception):
    pass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and all(_is_number(item) for item in value)
    )


def _non_finite(value) -> bool:
    """Whether value, or any number nested in its tuples and lists, is a
    NaN or an infinity."""
    if isinstance(value, (tuple, list)):
        return any(_non_finite(item) for item in value)
    return isinstance(value, float) and not math.isfinite(value)


@dataclass
class SimConfig:
    """All simulation parameters; config files mirror these field names."""

    n_uavs: int = 5
    n_lps: int = 1
    area_m: tuple[float, float] = (1000.0, 1000.0)
    lp_positions: list[tuple[float, float]] | None = None
    spawn_radius_m: float = 40.0
    duration_s: int = 7200
    consumption_pct_per_s: tuple[float, float] = (0.15, 0.20)
    request_threshold_pct: float = 50.0
    fail_threshold_pct: float = 15.0
    service_duration_s: float = 120.0
    max_step_m_per_s: float = 0.3
    seed: int = 0
    initial_battery_pct: tuple[float, float] = (60.0, 100.0)
    alignment_duration_s: float = 10.0
    boarding_timeout_s: float = 180.0
    departure_clear_s: float = 1.0

    _TUPLE_FIELDS = ("area_m", "consumption_pct_per_s", "initial_battery_pct")
    _INT_FIELDS = ("n_uavs", "n_lps", "duration_s", "seed")

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        # JSON arrays become tuples; any other value is left for validate
        # to reject.
        kwargs = dict(data)
        for name in cls._TUPLE_FIELDS:
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        positions = kwargs.get("lp_positions")
        if isinstance(positions, str):
            if positions.upper() != "AUTO":
                raise InvalidConfig("lp_positions: expected coordinates or 'AUTO'")
            kwargs["lp_positions"] = None
        elif isinstance(positions, list):
            kwargs["lp_positions"] = [tuple(p) if isinstance(p, list) else p for p in positions]
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvalidConfig(f"{path}: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidConfig(f"{path}: expected a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        data = asdict(self)
        for name in self._TUPLE_FIELDS:
            data[name] = list(getattr(self, name))
        if self.lp_positions is not None:
            data["lp_positions"] = [list(p) for p in self.lp_positions]
        return data

    def validate(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name in self._INT_FIELDS:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise InvalidConfig(f"{name} must be an integer")
            elif name in self._TUPLE_FIELDS:
                if not _is_pair(value):
                    raise InvalidConfig(f"{name} must be a pair of numbers")
            elif name == "lp_positions":
                if value is not None and not (
                    isinstance(value, (tuple, list)) and all(_is_pair(p) for p in value)
                ):
                    raise InvalidConfig(f"{name} must be a list of [x, y] number pairs")
            elif not _is_number(value):
                raise InvalidConfig(f"{name} must be a number")
            # JSON config files may spell NaN and Infinity; no field takes them.
            if _non_finite(value):
                raise InvalidConfig(f"{name} must be finite")
        if self.n_uavs < 1:
            raise InvalidConfig("n_uavs must be at least 1")
        if self.n_lps < 1:
            raise InvalidConfig("n_lps must be at least 1")
        if self.n_uavs + self.n_lps > 254:
            raise InvalidConfig("n_uavs + n_lps must leave room in the 1-255 sys_id space")
        width, height = self.area_m
        if width <= 0 or height <= 0:
            raise InvalidConfig("area_m dimensions must be positive")
        cmin, cmax = self.consumption_pct_per_s
        if not 0 < cmin <= cmax:
            raise InvalidConfig("consumption_pct_per_s must satisfy 0 < min <= max")
        if not 0 <= self.fail_threshold_pct < self.request_threshold_pct <= 100:
            raise InvalidConfig("thresholds must satisfy 0 <= fail < request <= 100")
        blo, bhi = self.initial_battery_pct
        if not 0 <= blo <= bhi <= 100:
            raise InvalidConfig("initial_battery_pct must satisfy 0 <= low <= high <= 100")
        if self.spawn_radius_m < 0 or self.max_step_m_per_s < 0:
            raise InvalidConfig("spawn_radius_m and max_step_m_per_s must be non-negative")
        if self.duration_s < 0:
            raise InvalidConfig("duration_s must be non-negative")
        if self.service_duration_s < 0 or self.alignment_duration_s < 0:
            raise InvalidConfig("phase durations must be non-negative")
        if self.boarding_timeout_s <= 0:
            raise InvalidConfig("boarding_timeout_s must be positive")
        if self.departure_clear_s < 0:
            raise InvalidConfig("departure_clear_s must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must be an unsigned 64-bit integer")
        if self.lp_positions is not None:
            if len(self.lp_positions) != self.n_lps:
                raise InvalidConfig("lp_positions length must equal n_lps")
            for x, y in self.lp_positions:
                if not (0 <= x <= width and 0 <= y <= height):
                    raise InvalidConfig(f"LP position ({x}, {y}) lies outside the area")

    def resolved_lp_positions(self) -> list[tuple[float, float]]:
        """Explicit positions, or a deterministic centered grid when AUTO."""
        if self.lp_positions is not None:
            return [(float(x), float(y)) for x, y in self.lp_positions]
        width, height = self.area_m
        n = self.n_lps
        if n == 1:
            return [(width / 2.0, height / 2.0)]
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        return [
            ((i % cols + 0.5) * width / cols, (i // cols + 0.5) * height / rows)
            for i in range(n)
        ]


def uav_rng(seed: int, index: int) -> random.Random:
    """The dedicated random stream of vehicle `index` (0-based)."""
    return random.Random(f"{seed} {index}")


def sample_consumption(rng: random.Random, min_pct: float, max_pct: float) -> float:
    """One battery-consumption draw, uniform in [min_pct, max_pct]."""
    if min_pct > max_pct:
        raise ValueError("min_pct must not exceed max_pct")
    return rng.uniform(min_pct, max_pct)


def sample_displacement(rng: random.Random, max_step: float) -> tuple[float, float]:
    """One 2D displacement draw, each component uniform in [-max_step, max_step]."""
    if max_step < 0:
        raise ValueError("max_step must be non-negative")
    return rng.uniform(-max_step, max_step), rng.uniform(-max_step, max_step)


@dataclass
class SimReport:
    outcome: str
    min_battery_pct: dict[str, float]
    failures: list[dict]
    services_completed: dict[str, int]
    queue_wait_mean_s: float
    queue_wait_max_s: float
    queue_wait_count: int
    # Messages and reservations the nodes dropped, by reason, summed over
    # the fleet; only reasons that occurred, keys sorted.
    drops: dict[str, int]
    config: dict
    rng: str = RNG_DESCRIPTION

    @property
    def passed(self) -> bool:
        return self.outcome == "PASS"

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


class TraceWriter:
    """JSON-lines trace emitter; one record per line, header first.

    The header is one write. record appends each finished line to a
    buffer, and run_sim writes the buffer out in one write at the end of
    each tick, and once more if the run raises. Key order is fixed by
    construction, so records are byte-stable without re-sorting.
    """

    def __init__(self, stream: IO[str]):
        self._write = stream.write
        self._lines: list[str] = []
        self._append = self._lines.append
        self._t: object = object()  # the t whose JSON is cached; none yet
        self._t_json = ""

    def header(self, config: dict) -> None:
        header = {"config": config, "rng": RNG_DESCRIPTION, "trace_format": TRACE_FORMAT}
        self._write(_COMPACT_JSON({"header": header}) + "\n")

    def record(self, t: float, actor: str, kind: str, detail: str) -> None:
        """Buffer one record; detail is the JSON text of its detail object."""
        if t is not self._t:
            self._t = t
            self._t_json = _COMPACT_JSON(t)
        # actor ("AP<n>" or "LP<n>") and kind, one of six words, need no escaping.
        self._append(
            f'{{"t":{self._t_json},"actor":"{actor}","kind":"{kind}","detail":{detail}}}\n'
        )

    def _flush(self) -> None:
        """Write the buffered records in one write. Private, so the
        benchmark's span recorder leaves it unwrapped."""
        lines = self._lines
        if lines:
            text = "".join(lines)
            # Emptied before the write, so a failed write is not retried.
            lines.clear()
            self._write(text)


@dataclass
class _UavBody:
    """Simulation-side physical twin of one aerial platform."""

    node: ApNode
    rng: random.Random
    battery: float
    position: tuple[float, float]
    min_battery: float
    failed: bool = False


def _clamp_to_area(
    x: float, y: float, area: tuple[float, float]
) -> tuple[float, float]:
    return (min(max(x, 0.0), area[0]), min(max(y, 0.0), area[1]))


def _message_head(msg, peer_key: str) -> str:
    """A MSG_SENT or MSG_RECV detail up to the value of its peer_key."""
    return f'{{"msg":"{type(msg).__name__}","fields":{message_json(msg)},"{peer_key}":'


class Simulation:
    """One run's nodes, bus, vehicle bodies and trace writer.

    run_sim advances it one tick at a time through the phases _deliver,
    _physics, _tick_aps, _tick_lps and _trace_ticks, then builds the
    report with _report. _trace_ticks ends by writing out the tick's
    buffered trace records. The methods stay private: the benchmark's span
    recorder wraps public methods, and it finds the tick phases among the
    spans directly under run_sim.
    """

    def __init__(self, cfg: SimConfig, trace: IO[str] | None) -> None:
        self.cfg = cfg
        lp_positions = cfg.resolved_lp_positions()
        lp_ids = list(range(1, cfg.n_lps + 1))
        ap_ids = list(range(cfg.n_lps + 1, cfg.n_lps + 1 + cfg.n_uavs))
        roster = list(zip(lp_ids, lp_positions))
        self._bus = InMemoryBus(NETWORK_SECRET)
        # Every node by sys_id: the node, for a vehicle its body, and the
        # keystore its receiver verifies with.
        self._members: dict[int, tuple[ApNode | LpNode, _UavBody | None, Keystore]] = {}

        self._lps: list[LpNode] = []
        for lp_id in lp_ids:
            lp = LpNode(
                lp_id,
                service_duration_s=cfg.service_duration_s,
                alignment_duration_s=cfg.alignment_duration_s,
                boarding_timeout_s=cfg.boarding_timeout_s,
            )
            self._lps.append(lp)
            self._members[lp_id] = (lp, None, self._bus.register(lp_id, lp.KIND))

        self._uavs: list[_UavBody] = []
        for index, ap_id in enumerate(ap_ids):
            rng = uav_rng(cfg.seed, index)
            home = lp_positions[index % cfg.n_lps]
            radius = cfg.spawn_radius_m * math.sqrt(rng.uniform(0.0, 1.0))
            angle = 2.0 * math.pi * rng.uniform(0.0, 1.0)
            position = _clamp_to_area(
                home[0] + radius * math.cos(angle),
                home[1] + radius * math.sin(angle),
                cfg.area_m,
            )
            battery = rng.uniform(*cfg.initial_battery_pct)
            node = ApNode(
                ap_id,
                roster,
                request_threshold_pct=cfg.request_threshold_pct,
                reserve_floor_pct=cfg.fail_threshold_pct,
                cruise_speed_m_per_s=cfg.max_step_m_per_s,
                max_consumption_pct_per_s=cfg.consumption_pct_per_s[1],
                service_duration_estimate_s=cfg.service_duration_s,
                departure_clear_s=cfg.departure_clear_s,
            )
            body = _UavBody(
                node=node,
                rng=rng,
                battery=battery,
                position=position,
                min_battery=battery,
            )
            self._uavs.append(body)
            self._members[ap_id] = (node, body, self._bus.register(ap_id, node.KIND))
        self._failures: list[dict] = []

        self._tracer = TraceWriter(trace) if trace is not None else None
        if self._tracer is not None:
            self._tracer.header(cfg.to_dict())
        # The one trace text memo: each source's last MSG_RECV detail, one
        # (msg, text) slot per one-byte sys_id. A broadcast's receivers share
        # one decoded object (_deliver decodes its frame once), so its detail
        # renders once, not once per platform; without it traced 20x5x600
        # ran 1.4x slower (CPython 3.11, 2-core Xeon). Identity, since
        # 0.0 == -0.0 renders differently; a slot keeps its message alive.
        self._recv_details: list[tuple] = [(None, "")] * 256

    def _send(self, node: ApNode | LpNode, body, outbound_list, t: float) -> None:
        """Trace node's state changes, then put its outbound messages on the
        bus; body is the vehicle's body, None for a platform."""
        tracer = self._tracer
        actor = node.actor
        if node.transitions:
            for from_state, to_state in node.drain_transitions():
                if tracer is not None:
                    detail = _COMPACT_JSON(
                        {"from": _STATE_NAMES[from_state], "to": _STATE_NAMES[to_state]}
                    )
                    tracer.record(t, actor, "STATE_CHANGE", detail)
                if (from_state, to_state) == (BEING_SERVICED, DEPARTING):
                    body.battery = 100.0
                    if tracer is not None:
                        detail = _COMPACT_JSON(
                            {"battery_pct": 100.0, "event": "service_complete_restore"}
                        )
                        tracer.record(t, actor, "BATTERY", detail)
        for outbound in outbound_list:
            deliveries = self._bus.send(node.sys_id, outbound, t)
            if tracer is not None and deliveries:
                head = _message_head(outbound.msg, "dst")
                for delivery in deliveries:
                    tracer.record(t, actor, "MSG_SENT", f"{head}{delivery.dest_sys_id}}}")

    def _deliver(self, t: float) -> None:
        """Messages sent last tick arrive now: the bus is drained first in the
        tick, before its sends. A failed vehicle receives nothing.

        Each receiver verifies a frame with its own keystore. A broadcast's
        deliveries are adjacent and share one frame object, so a further
        receiver of the frame just decoded runs only its own replay check,
        the one part of decoding that depends on the receiver. Any other
        frame object, a reordered or altered one too, is decoded in full.
        """
        members, tracer = self._members, self._tracer
        recv_details = self._recv_details
        decoded = None  # the frame object last decoded; header, msg, sig are its result
        for dest, frame in self._bus.pop_due(t):
            node, body, keystore = members[dest]
            if body is not None and body.failed:
                continue
            if frame is decoded:
                keystore.accept(header.sys_id, header.comp_id, sig.timestamp)
            else:
                header, msg, sig = decode_frame(frame, keystore)
                decoded = frame
            src = header.sys_id
            if tracer is not None:
                recv_msg, detail = recv_details[src]
                if recv_msg is not msg:
                    detail = f"{_message_head(msg, 'src')}{src}}}"
                    recv_details[src] = msg, detail
                tracer.record(t, node.actor, "MSG_RECV", detail)
            outbound = node.handle_message(msg, src, t)
            # Most deliveries are vehicle heartbeats: no reply, no state change.
            if outbound or node.transitions:
                self._send(node, body, outbound, t)

    def _physics(self, t: float) -> None:
        """Consumption, failure detection, motion and arrivals."""
        cfg, tracer = self.cfg, self._tracer
        for body in self._uavs:
            if body.failed:
                continue
            node = body.node
            state = node.state
            if state in DRAIN_STATES:
                burn = sample_consumption(body.rng, *cfg.consumption_pct_per_s)
                body.battery = max(0.0, body.battery - burn)
                if body.battery < body.min_battery:
                    body.min_battery = body.battery
                if body.battery < cfg.fail_threshold_pct:
                    body.failed = True
                    self._failures.append(
                        {"uav": node.actor, "t": t, "battery_pct": body.battery}
                    )
                    if tracer is not None:
                        tracer.record(
                            t, node.actor, "FAILURE", _COMPACT_JSON({"battery_pct": body.battery})
                        )
                    continue
            if state is OPERATING:
                dx, dy = sample_displacement(body.rng, cfg.max_step_m_per_s)
                body.position = _clamp_to_area(
                    body.position[0] + dx, body.position[1] + dy, cfg.area_m
                )
            elif state is BOARDING:
                target = node.known_lps[node.current_reservation]
                distance = math.dist(body.position, target)
                if distance <= cfg.max_step_m_per_s:
                    body.position = target
                    self._send(node, body, node.notify_arrival(t), t)
                else:
                    scale = cfg.max_step_m_per_s / distance
                    body.position = (
                        body.position[0] + (target[0] - body.position[0]) * scale,
                        body.position[1] + (target[1] - body.position[1]) * scale,
                    )

    def _tick_aps(self, t: float) -> None:
        for body in self._uavs:
            if not body.failed:
                self._send(body.node, body, body.node.tick(t, body.battery, body.position), t)

    def _tick_lps(self, t: float) -> None:
        for lp in self._lps:
            self._send(lp, None, lp.tick(t), t)

    def _trace_ticks(self, t: float) -> None:
        tracer = self._tracer
        if tracer is None:
            return
        names = _STATE_NAMES
        for lp in self._lps:
            current_ap = "null" if lp.current_ap is None else lp.current_ap
            detail = _LP_TICK % (names[lp.state], len(lp.queue), current_ap)
            tracer.record(t, lp.actor, "TICK", detail)
        for body in self._uavs:
            x, y = body.position
            failed = "true" if body.failed else "false"
            detail = _AP_TICK % (names[body.node.state], body.battery, x, y, failed)
            tracer.record(t, body.node.actor, "TICK", detail)
        tracer._flush()

    def _report(self) -> SimReport:
        waits = [wait for lp in self._lps for wait in lp.wait_samples]
        drops = Counter()
        for node in [*self._lps, *(body.node for body in self._uavs)]:
            drops.update(node.drops)
        return SimReport(
            outcome="FAIL" if self._failures else "PASS",
            min_battery_pct={body.node.actor: body.min_battery for body in self._uavs},
            failures=self._failures,
            services_completed={lp.actor: lp.services_completed for lp in self._lps},
            queue_wait_mean_s=sum(waits) / len(waits) if waits else 0.0,
            queue_wait_max_s=max(waits) if waits else 0.0,
            queue_wait_count=len(waits),
            drops=dict(sorted(drops.items())),
            config=self.cfg.to_dict(),
        )


def run_sim(cfg: SimConfig, trace: IO[str] | None = None) -> SimReport:
    """Run one simulation; optionally stream the trace to a text file."""
    cfg.validate()
    sim = Simulation(cfg, trace)
    try:
        for step in range(cfg.duration_s):
            t = float(step)
            sim._deliver(t)
            sim._physics(t)
            sim._tick_aps(t)
            sim._tick_lps(t)
            sim._trace_ticks(t)
    finally:
        # A run that raises still leaves every record made before the raise.
        if sim._tracer is not None:
            sim._tracer._flush()
    return sim._report()


def sweep(cfg: SimConfig, n_seeds: int) -> list[SimReport]:
    """Run n_seeds consecutive seeds starting at cfg.seed; one report per seed."""
    if n_seeds < 1:
        raise InvalidConfig("n_seeds must be at least 1")
    # Reject a seed range that overflows before any run's work is spent.
    replace(cfg, seed=cfg.seed + n_seeds - 1).validate()
    return [run_sim(replace(cfg, seed=cfg.seed + offset)) for offset in range(n_seeds)]
