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
drops below the failure threshold.

Every run is a pure function of its SimConfig: each vehicle draws from
its own PCG64 stream seeded with SeedSequence(seed, spawn_key=(1,
vehicle_index)), so adding vehicle k+1 never alters the draws of
vehicles 1..k. The stream is a pure-Python copy of numpy's PCG64 and
SeedSequence, and every draw equals numpy's Generator.uniform bit for
bit; numpy itself is needed only by the tests and the benchmark. Two
runs of the same config produce byte-identical traces.

Trace files are UTF-8 JSON lines. The first line is
{"header": {config, rng, trace_format}}; every following line is a
record {t, actor, kind, detail} with kind one of TICK, MSG_SENT,
MSG_RECV, STATE_CHANGE, BATTERY, FAILURE. actor is "AP<sys_id>" or
"LP<sys_id>".
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from hashlib import sha256
from operator import is_
from typing import IO, Mapping

from .ap_node import ApNode
from .lp_node import LpNode
from .transport import InMemoryBus
from .wire import (
    BEING_SERVICED,
    BOARDING,
    DEPARTING,
    OPERATING,
    TIMESTAMP_UNITS_PER_S,
    NodeState,
    message_json,
)

# Shared by every node on the simulated network; links are trusted here,
# signing exists to exercise the full wire path.
NETWORK_SECRET = sha256(b"autoserve shared network key").digest()

RNG_DESCRIPTION = (
    "numpy PCG64, one stream per vehicle from "
    "SeedSequence(seed, spawn_key=(1, vehicle_index)); draw order per "
    "vehicle: spawn radius u, spawn angle u, initial battery, then per "
    "tick consumption (when flying) and displacement x, y (when operating)"
)

TRACE_FORMAT = 1

_dumps = json.JSONEncoder(separators=(",", ":")).encode

# TICK details, the bulk of a trace; state names need no JSON escaping.
# The rare STATE_CHANGE, BATTERY and FAILURE details go through _dumps.
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
        data["area_m"] = list(self.area_m)
        data["consumption_pct_per_s"] = list(self.consumption_pct_per_s)
        data["initial_battery_pct"] = list(self.initial_battery_pct)
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M53, _M64, _M128 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1, (1 << 128) - 1


def _uint32_words(value: int) -> list[int]:
    """value's 32-bit words, least significant first; [0] for 0."""
    if value < 0:
        raise ValueError("expected a non-negative integer")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix over a running hash constant."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ result >> 16


def _seed_words(seed: int, index: int) -> list[int]:
    """SeedSequence(entropy=seed, spawn_key=(1, index)).generate_state(4, uint64)."""
    entropy = _uint32_words(seed)
    # The seed's words are padded to the pool size when a spawn key follows;
    # then come the words of the spawn key (1, index).
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += [1, *_uint32_words(index)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class _Pcg64:
    """numpy's PCG64 (128-bit LCG state, XSL-RR output) and Generator.uniform:
    uniform(low, high) is low + (high - low) * u, with u the top 53 bits of
    the next 64-bit output times 2**-53. One draw per call."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, index: int) -> None:
        # numpy's pcg64_set_seed: state 0, step, add initstate, step.
        state_hi, state_lo, seq_hi, seq_lo = _seed_words(seed, index)
        self._inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        state = (self._inc + (state_hi << 64 | state_lo)) & _M128
        self._state = (state * _PCG_MULT + self._inc) & _M128

    def uniform(self, low: float, high: float) -> float:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        word = ((state >> 64) ^ state) & _M64
        # word * (2**64 + 1) is word beside itself, so shifting it right by
        # the rotation plus 11 leaves rotr64(word, rotation) >> 11 in the
        # low 53 bits.
        u = ((word * ((1 << 64) + 1)) >> ((state >> 122) + 11) & _M53) * 2.0**-53
        return low + (high - low) * u


def uav_rng(seed: int, index: int) -> _Pcg64:
    """The dedicated random stream of vehicle `index` (0-based)."""
    return _Pcg64(seed, index)


def sample_consumption(rng: _Pcg64, min_pct: float, max_pct: float) -> float:
    """One battery-consumption draw, uniform in [min_pct, max_pct]."""
    if min_pct > max_pct:
        raise ValueError("min_pct must not exceed max_pct")
    return rng.uniform(min_pct, max_pct)


def sample_displacement(rng: _Pcg64, max_step: float) -> tuple[float, float]:
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
        self._names: dict[str, str] = {}  # actor and kind -> JSON string

    def header(self, config: dict) -> None:
        header = {"config": config, "rng": RNG_DESCRIPTION, "trace_format": TRACE_FORMAT}
        self._write(_dumps({"header": header}) + "\n")

    def record(self, t: float, actor: str, kind: str, detail: str) -> None:
        """Buffer one record; detail is the JSON text of its detail object."""
        if t is not self._t:
            self._t = t
            self._t_json = _dumps(t)
        names = self._names
        actor_json = names.get(actor) or names.setdefault(actor, _dumps(actor))
        kind_json = names.get(kind) or names.setdefault(kind, _dumps(kind))
        self._append(
            f'{{"t":{self._t_json},"actor":{actor_json},"kind":{kind_json},"detail":{detail}}}\n'
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

    sys_id: int
    actor: str
    node: ApNode
    rng: _Pcg64
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
        self.now = 0.0
        lp_positions = cfg.resolved_lp_positions()
        lp_ids = list(range(1, cfg.n_lps + 1))
        ap_ids = list(range(cfg.n_lps + 1, cfg.n_lps + 1 + cfg.n_uavs))
        roster = list(zip(lp_ids, lp_positions))
        self._bus = InMemoryBus(NETWORK_SECRET, self._timestamp_units)

        self._lps: list[LpNode] = []
        for lp_id, position in roster:
            self._lps.append(
                LpNode(
                    lp_id,
                    position,
                    service_duration_s=cfg.service_duration_s,
                    alignment_duration_s=cfg.alignment_duration_s,
                    boarding_timeout_s=cfg.boarding_timeout_s,
                )
            )
            self._bus.register(lp_id, "LP")

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
            node.battery_pct = battery
            node.position = position
            self._uavs.append(
                _UavBody(
                    sys_id=ap_id,
                    actor=f"AP{ap_id}",
                    node=node,
                    rng=rng,
                    battery=battery,
                    position=position,
                    min_battery=battery,
                )
            )
            self._bus.register(ap_id, "AP")

        self._nodes = {lp.sys_id: lp for lp in self._lps}
        self._nodes.update({body.sys_id: body.node for body in self._uavs})
        self._bodies = {body.sys_id: body for body in self._uavs}
        self._actor_names = {lp.sys_id: f"LP{lp.sys_id}" for lp in self._lps}
        self._actor_names.update({body.sys_id: body.actor for body in self._uavs})
        self._failures: list[dict] = []

        self._tracer = TraceWriter(trace) if trace is not None else None
        if self._tracer is not None:
            self._tracer.header(cfg.to_dict())
        # Trace text memos, one (msg, text) slot per one-byte sys_id: each
        # sender's last MSG_SENT head and each source's last MSG_RECV
        # detail. They compare messages by identity, since 0.0 == -0.0 but
        # the two render differently; a slot keeps its message alive.
        self._sent_heads: list[tuple] = [(None, "")] * 256
        self._recv_details: list[tuple] = [(None, "")] * 256
        # AP TICK detail memo, one (key, text) slot per AP in roster order.
        # The key, (state, battery, position, failed), is compared item by
        # item by identity, as above: battery and position stay the same
        # objects while a vehicle neither drains nor moves.
        self._ap_ticks: list[tuple] = [((None,) * 4, "")] * len(self._uavs)

    def _timestamp_units(self) -> int:
        return int(self.now * TIMESTAMP_UNITS_PER_S)

    def _send(self, sys_id: int, outbound_list, t: float) -> None:
        """Trace sys_id's state changes, then put its outbound messages on the bus."""
        tracer = self._tracer
        actor = self._actor_names[sys_id]
        node = self._nodes[sys_id]
        if node.transitions:
            for from_state, to_state in node.drain_transitions():
                if tracer is not None:
                    detail = _dumps(
                        {"from": _STATE_NAMES[from_state], "to": _STATE_NAMES[to_state]}
                    )
                    tracer.record(t, actor, "STATE_CHANGE", detail)
                if (from_state, to_state) == (BEING_SERVICED, DEPARTING):
                    body = self._bodies[sys_id]
                    body.battery = 100.0
                    body.node.battery_pct = 100.0
                    if tracer is not None:
                        tracer.record(
                            t,
                            actor,
                            "BATTERY",
                            _dumps({"battery_pct": 100.0, "event": "service_complete_restore"}),
                        )
        for outbound in outbound_list:
            deliveries = self._bus.send(sys_id, outbound, t)
            if tracer is not None and deliveries:
                msg = outbound.msg
                sent_msg, head = self._sent_heads[sys_id]
                if sent_msg is not msg:
                    head = _message_head(msg, "dst")
                    self._sent_heads[sys_id] = msg, head
                for delivery in deliveries:
                    tracer.record(t, actor, "MSG_SENT", f"{head}{delivery.dest_sys_id}}}")

    def _deliver(self, t: float) -> None:
        """Messages sent last tick arrive now."""
        decode_for, nodes, tracer = self._bus.decode_for, self._nodes, self._tracer
        recv_details = self._recv_details
        for src, dest, _deliver_at, frame in self._bus.pop_due(t):
            header, msg, _sig = decode_for(dest, frame)
            if tracer is not None:
                # The receivers of one broadcast share its decoded message,
                # and the codec's stream slot hands back the same object
                # when its source's payload repeats.
                recv_msg, detail = recv_details[src]
                if recv_msg is not msg:
                    detail = f"{_message_head(msg, 'src')}{src}}}"
                    recv_details[src] = msg, detail
                tracer.record(t, self._actor_names[dest], "MSG_RECV", detail)
            node = nodes[dest]
            outbound = node.handle_message(msg, header.sys_id, t)
            # Most deliveries are vehicle heartbeats: no reply, no state change.
            if outbound or node.transitions:
                self._send(dest, outbound, t)

    def _physics(self, t: float) -> None:
        """Consumption, failure detection, motion and arrivals."""
        cfg, tracer = self.cfg, self._tracer
        for body in self._uavs:
            if body.failed:
                continue
            state = body.node.state
            if state in DRAIN_STATES:
                burn = sample_consumption(body.rng, *cfg.consumption_pct_per_s)
                body.battery = max(0.0, body.battery - burn)
                if body.battery < body.min_battery:
                    body.min_battery = body.battery
                if body.battery < cfg.fail_threshold_pct:
                    body.failed = True
                    self._failures.append(
                        {"uav": body.actor, "t": t, "battery_pct": body.battery}
                    )
                    if tracer is not None:
                        tracer.record(
                            t, body.actor, "FAILURE", _dumps({"battery_pct": body.battery})
                        )
                    continue
            if state is OPERATING:
                dx, dy = sample_displacement(body.rng, cfg.max_step_m_per_s)
                body.position = _clamp_to_area(
                    body.position[0] + dx, body.position[1] + dy, cfg.area_m
                )
            elif state is BOARDING:
                node = body.node
                target = node.known_lps[node.current_reservation[0]]
                distance = math.dist(body.position, target)
                if distance <= cfg.max_step_m_per_s:
                    body.position = target
                    self._send(body.sys_id, body.node.notify_arrival(t), t)
                else:
                    scale = cfg.max_step_m_per_s / distance
                    body.position = (
                        body.position[0] + (target[0] - body.position[0]) * scale,
                        body.position[1] + (target[1] - body.position[1]) * scale,
                    )

    def _tick_aps(self, t: float) -> None:
        for body in self._uavs:
            if not body.failed:
                self._send(body.sys_id, body.node.tick(t, body.battery, body.position), t)

    def _tick_lps(self, t: float) -> None:
        for lp in self._lps:
            self._send(lp.sys_id, lp.tick(t), t)

    def _trace_ticks(self, t: float) -> None:
        tracer = self._tracer
        if tracer is None:
            return
        names, ap_ticks = _STATE_NAMES, self._ap_ticks
        for lp in self._lps:
            current_ap = "null" if lp.current_ap is None else lp.current_ap
            detail = _LP_TICK % (names[lp.state], len(lp.queue), current_ap)
            tracer.record(t, self._actor_names[lp.sys_id], "TICK", detail)
        for i, body in enumerate(self._uavs):
            key = (body.node.state, body.battery, body.position, body.failed)
            memo_key, detail = ap_ticks[i]
            if not all(map(is_, key, memo_key)):
                state, battery, (x, y), failed = key
                detail = _AP_TICK % (names[state], battery, x, y, "true" if failed else "false")
                ap_ticks[i] = key, detail
            tracer.record(t, body.actor, "TICK", detail)
        tracer._flush()

    def _report(self) -> SimReport:
        waits = [wait for lp in self._lps for wait in lp.wait_samples]
        drops = Counter()
        for node in [*self._lps, *(body.node for body in self._uavs)]:
            drops.update(node.drops)
        return SimReport(
            outcome="FAIL" if self._failures else "PASS",
            min_battery_pct={body.actor: body.min_battery for body in self._uavs},
            failures=self._failures,
            services_completed={f"LP{lp.sys_id}": lp.services_completed for lp in self._lps},
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
            t = sim.now = float(step)
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


@dataclass
class SweepRun:
    seed: int
    outcome: str
    fleet_min_battery_pct: float


@dataclass
class SweepResult:
    runs: list[SweepRun] = field(default_factory=list)

    @property
    def pass_count(self) -> int:
        return sum(1 for run in self.runs if run.outcome == "PASS")

    @property
    def pass_rate(self) -> float:
        return self.pass_count / len(self.runs) if self.runs else 0.0

    def min_battery_values(self) -> list[float]:
        return [run.fleet_min_battery_pct for run in self.runs]

    def to_dict(self) -> dict:
        return {
            "pass_count": self.pass_count,
            "total": len(self.runs),
            "pass_rate": self.pass_rate,
            "runs": [asdict(run) for run in self.runs],
        }


def sweep(cfg: SimConfig, n_seeds: int) -> SweepResult:
    """Run n_seeds consecutive seeds starting at cfg.seed."""
    if n_seeds < 1:
        raise InvalidConfig("n_seeds must be at least 1")
    result = SweepResult()
    for offset in range(n_seeds):
        run_cfg = replace(cfg, seed=cfg.seed + offset)
        report = run_sim(run_cfg)
        result.runs.append(
            SweepRun(
                seed=run_cfg.seed,
                outcome=report.outcome,
                fleet_min_battery_pct=min(report.min_battery_pct.values()),
            )
        )
    return result
