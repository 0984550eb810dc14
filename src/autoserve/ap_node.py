"""Aerial-platform control loop.

The vehicle watches its own battery, requests a service slot at the
nearest landing platform once it drops below the request threshold, and
judges every confirmed queue position against what its battery can
afford:

    keep  iff  position * service_estimate + travel_time
               <= (battery - reserve_floor) / worst_case_consumption

A rejected offer is cancelled and the request retried at the nearest
platform not yet tried this episode; once every known platform has been
tried, the vehicle settles for the offer with the smallest estimated
time to service instead of deadlocking. The cancel is always emitted
before the follow-up request.

State sequence:

    OPERATING -> REQUEST_PENDING -> RESERVED_WAITING -> BOARDING
              -> LANDED -> BEING_SERVICED -> DEPARTING -> OPERATING

with REQUEST_PENDING looping to itself on each retry, and BOARDING
returning to OPERATING when the platform's boarding timeout releases the
vehicle, announced by SystemStateUpdate(IDLE). While waiting for
its slot the vehicle loiters in place. A confirmation with position 0 is
the boarding signal; only the platform the vehicle asked or holds a
reservation at can give it. Messages inconsistent with the current state,
such as a confirmation from any other platform, are dropped and counted
in drops, one counter per reason.
"""

from __future__ import annotations

import math
from typing import Sequence

from .lp_node import StateMachine
from .reservation import priority_from_battery
from .routing import reachable_lps
from .transport import Outbound
from .wire import (
    AERIAL_PLATFORM,
    BEING_SERVICED,
    BOARDING,
    CANCEL,
    DEPARTED,
    DEPARTING,
    IDLE,
    KEEP,
    LANDED,
    OPERATING,
    PX4,
    REQUEST_PENDING,
    RESERVED_WAITING,
    SERVICE_COMPLETE,
    SERVICING,
    ApReservationDecision,
    ExtendedHeartbeat,
    LpReservationConfirmation,
    Message,
    NodeState,
    ReservationAction,
    ServiceReservationRequest,
    SystemStateUpdate,
)

AP_TRANSITIONS: dict[NodeState, frozenset[NodeState]] = {
    OPERATING: frozenset({REQUEST_PENDING}),
    REQUEST_PENDING: frozenset({RESERVED_WAITING, REQUEST_PENDING}),
    RESERVED_WAITING: frozenset({BOARDING}),
    BOARDING: frozenset({LANDED, OPERATING}),
    LANDED: frozenset({BEING_SERVICED}),
    BEING_SERVICED: frozenset({DEPARTING}),
    DEPARTING: frozenset({OPERATING}),
}
_HOLDING = frozenset({RESERVED_WAITING, BOARDING, LANDED, BEING_SERVICED})


class ApNode(StateMachine):
    """One aerial platform: telemetry-driven requests and boarding flow."""

    TRANSITIONS = AP_TRANSITIONS
    KIND = "AP"

    def __init__(
        self,
        sys_id: int,
        known_lps: Sequence[tuple[int, tuple[float, float]]],
        *,
        request_threshold_pct: float = 50.0,
        reserve_floor_pct: float = 15.0,
        cruise_speed_m_per_s: float = 0.3,
        max_consumption_pct_per_s: float = 0.2,
        service_duration_estimate_s: float = 120.0,
        departure_clear_s: float = 1.0,
    ):
        super().__init__(sys_id, OPERATING)
        self.known_lps = {
            int(lp_id): (float(pos[0]), float(pos[1])) for lp_id, pos in known_lps
        }
        self.request_threshold_pct = request_threshold_pct
        self.reserve_floor_pct = reserve_floor_pct
        self.cruise_speed_m_per_s = cruise_speed_m_per_s
        self.max_consumption_pct_per_s = max_consumption_pct_per_s
        self.service_duration_estimate_s = service_duration_estimate_s
        self.departure_clear_s = departure_clear_s

        # Telemetry; tick is its one writer.
        self.battery_pct = 100.0
        self.position = (0.0, 0.0)
        # The request episode: _lp is the platform last asked, which holds the
        # reservation once accepted and is told DEPARTED after the service;
        # _offers maps each platform that has answered to its offer's
        # estimated time to service, so its keys are the platforms tried.
        self._lp: int | None = None
        self._offers: dict[int, float] = {}
        self._heartbeat: ExtendedHeartbeat | None = None

    @property
    def current_reservation(self) -> int | None:
        """The platform holding this vehicle's reservation, if any."""
        return self._lp if self.state in _HOLDING else None

    def _nearest_first(self) -> list[int]:
        return reachable_lps(self.known_lps, self.position, math.inf)

    def _travel_time_to(self, lp_sys_id: int) -> float:
        distance = math.dist(self.position, self.known_lps[lp_sys_id])
        if distance == 0:
            return 0.0
        if self.cruise_speed_m_per_s <= 0:
            return math.inf
        return distance / self.cruise_speed_m_per_s

    def _estimated_wait(self, lp_sys_id: int, queue_position: int) -> float:
        return (
            queue_position * self.service_duration_estimate_s
            + self._travel_time_to(lp_sys_id)
        )

    # -- confirmation evaluation --------------------------------------------

    def evaluate_confirmation(self, lp_sys_id: int, queue_position: int) -> int | None:
        """Judge the queue position lp_sys_id offers against the battery margin.

        Records the offer's estimated time to service. Returns None to keep
        the offer, or else the platform to request next: the nearest one not
        yet tried this episode, or, once every platform has been tried, the
        one with the best offer seen.
        """
        estimated = self._estimated_wait(lp_sys_id, queue_position)
        self._offers[lp_sys_id] = estimated
        budget = math.inf
        if self.max_consumption_pct_per_s > 0:
            budget = (
                self.battery_pct - self.reserve_floor_pct
            ) / self.max_consumption_pct_per_s
        if estimated <= budget:
            return None

        for sys_id in self._nearest_first():
            if sys_id not in self._offers:
                return sys_id
        # Every platform was tried and none fits: settle for the best offer
        # seen rather than starve.
        best = min(self._offers.items(), key=lambda item: (item[1], item[0]))[0]
        return None if best == lp_sys_id else best

    # -- message handling ------------------------------------------------------

    def handle_message(self, msg: Message, from_sys_id: int, now: float) -> list[Outbound]:
        # Platforms send no heartbeat, so one that arrives is unexpected.
        kind = type(msg)
        if kind is LpReservationConfirmation:
            return self._handle_confirmation(msg, from_sys_id, now)
        if kind is SystemStateUpdate:
            return self._handle_state_update(msg, from_sys_id, now)
        return self._drop("ap_unexpected_message")

    def _accept(self, lp_sys_id: int, queue_position: int, now: float) -> list[Outbound]:
        self._transition(RESERVED_WAITING, now)
        if queue_position == 0:
            self._transition(BOARDING, now)
            return []
        return [self._decision(lp_sys_id, KEEP)]

    def _decision(self, lp_sys_id: int, action: ReservationAction) -> Outbound:
        return Outbound(
            lp_sys_id, ApReservationDecision(target_lp_sys_id=lp_sys_id, decision=action)
        )

    def _request_msg(self, lp_sys_id: int) -> Outbound:
        self._lp = lp_sys_id
        return Outbound(
            lp_sys_id,
            ServiceReservationRequest(
                priority=priority_from_battery(self.battery_pct),
                target_lp_sys_id=lp_sys_id,
            ),
        )

    def _handle_confirmation(
        self, conf: LpReservationConfirmation, from_sys_id: int, now: float
    ) -> list[Outbound]:
        if conf.target_ap_sys_id != self.sys_id:
            return self._drop("ap_confirmation_for_other_ap")

        if self.state is REQUEST_PENDING and from_sys_id == self._lp:
            # Asked again after answering once: the exhausted-alternatives hop
            # back to the best offer, accepted whatever position it confirms.
            if from_sys_id in self._offers:
                return self._accept(from_sys_id, conf.queue_position, now)
            next_lp = self.evaluate_confirmation(from_sys_id, conf.queue_position)
            if next_lp is None:
                return self._accept(from_sys_id, conf.queue_position, now)
            # Cancel strictly before the replacement request.
            return [self._decision(from_sys_id, CANCEL), self._request_msg(next_lp)]

        if self.state is RESERVED_WAITING and from_sys_id == self.current_reservation:
            if conf.queue_position == 0:
                self._transition(BOARDING, now)
            return []
        return self._drop("ap_confirmation_unexpected")

    def _handle_state_update(
        self, upd: SystemStateUpdate, from_sys_id: int, now: float
    ) -> list[Outbound]:
        """React to the landing platform's phase announcements."""
        if from_sys_id != self.current_reservation:
            return self._drop("ap_state_update_from_other_lp")
        if upd.state is IDLE and self.state is BOARDING:
            # The platform gave up the slot on its boarding timeout; the
            # next tick's request policy asks again.
            self._transition(OPERATING, now)
            return []
        if upd.state is SERVICING and self.state is LANDED:
            self._transition(BEING_SERVICED, now)
            return []
        if upd.state is SERVICE_COMPLETE and self.state is BEING_SERVICED:
            self._transition(DEPARTING, now)
            return []
        return self._drop("ap_state_update_unexpected")

    def notify_arrival(self, now: float) -> list[Outbound]:
        """The vehicle has touched down on its reserved platform."""
        self._transition(LANDED, now)
        return [Outbound(self._lp, SystemStateUpdate(state=LANDED))]

    # -- periodic work -----------------------------------------------------------

    def tick(
        self, now: float, battery_pct: float, position: tuple[float, float]
    ) -> list[Outbound]:
        """Ingest telemetry, broadcast one heartbeat, and run the request policy.

        Must be called with non-decreasing now. The simulator calls it once
        per 1 s tick, which makes the heartbeat 1 Hz.
        """
        self.battery_pct = battery_pct
        self.position = position
        out = [Outbound(None, self.heartbeat())]

        if self.state is DEPARTING and now - self.state_since >= self.departure_clear_s:
            self._transition(OPERATING, now)
            out.append(Outbound(self._lp, SystemStateUpdate(state=DEPARTED)))

        if self.state is OPERATING and self.battery_pct < self.request_threshold_pct:
            ranked = self._nearest_first()
            if ranked:
                self._offers.clear()
                self._transition(REQUEST_PENDING, now)
                out.append(self._request_msg(ranked[0]))
        return out

    def heartbeat(self) -> ExtendedHeartbeat:
        """The current heartbeat: the previous message object while the
        fields it reports are unchanged, so that the codec's stream slots skip
        packing and unpacking it again."""
        x, y = self.position
        beat = self._heartbeat
        # Identity, not ==: the same objects give the same wire bytes and
        # trace text, which == does not promise for 0.0 and -0.0.
        if (
            beat is None
            or beat.system_state is not self.state
            or beat.battery_pct is not self.battery_pct
            or beat.pos_x is not x
            or beat.pos_y is not y
        ):
            # Positional arguments, in field order: a class called with
            # keywords packs them into a dict first.
            beat = self._heartbeat = ExtendedHeartbeat(
                AERIAL_PLATFORM, PX4, self.state, self.battery_pct, x, y
            )
        return beat
