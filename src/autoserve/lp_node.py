"""Landing-platform control loop.

Each platform runs an endless loop with two separable concerns: request
intake (enqueue and confirm, in any state) and servicing one aerial
platform at a time through the phase sequence

    IDLE -> AWAITING_BOARDING -> ALIGNING -> SERVICING -> RELEASING -> IDLE

A reservation is popped from the queue the moment the platform becomes
free for it; that pop sends the confirmation with queue position 0,
which is the boarding signal. While the platform is occupied, confirmed
positions count the vehicle currently on deck, so position 0 is only
ever reported to a vehicle that is actually cleared to board.
AWAITING_BOARDING reverts to IDLE when the boarding vehicle cancels or
never lands within the boarding timeout.

Messages that are inconsistent with the current phase (for example
LANDED while IDLE) are logged and dropped; an unreliable link must not
be able to fault the platform.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

from .reservation import MAX_PRIORITY, Reservation, ServiceQueue
from .transport import Outbound
from .wire import (
    ApReservationDecision,
    ExtendedHeartbeat,
    FlightStack,
    LpReservationConfirmation,
    Message,
    NodeState,
    ReservationAction,
    ServiceReservationRequest,
    SystemStateUpdate,
    VehicleType,
)

logger = logging.getLogger(__name__)

LP_STATES = frozenset(
    {
        NodeState.IDLE,
        NodeState.AWAITING_BOARDING,
        NodeState.ALIGNING,
        NodeState.SERVICING,
        NodeState.RELEASING,
    }
)

# AWAITING_BOARDING -> IDLE is the cancel/no-show revert.
LP_TRANSITIONS: dict[NodeState, frozenset[NodeState]] = {
    NodeState.IDLE: frozenset({NodeState.AWAITING_BOARDING}),
    NodeState.AWAITING_BOARDING: frozenset({NodeState.ALIGNING, NodeState.IDLE}),
    NodeState.ALIGNING: frozenset({NodeState.SERVICING}),
    NodeState.SERVICING: frozenset({NodeState.RELEASING}),
    NodeState.RELEASING: frozenset({NodeState.IDLE}),
}


class ProtocolStateError(RuntimeError):
    """An illegal state-machine transition was attempted."""


class LpNode:
    """One landing platform: its queue and phase machine."""

    def __init__(
        self,
        sys_id: int,
        position: tuple[float, float],
        *,
        service_duration_s: float = 120.0,
        alignment_duration_s: float = 10.0,
        boarding_timeout_s: float = 180.0,
        critical_threshold_pct: float = 15.0,
        lp_roster: Sequence[tuple[int, tuple[float, float]]] | None = None,
        heartbeat_interval_s: float = 1.0,
    ):
        self.sys_id = sys_id
        self.position = (float(position[0]), float(position[1]))
        self.queue = ServiceQueue()
        self.state = NodeState.IDLE
        self.current_ap: int | None = None
        self.service_duration_s = service_duration_s
        self.alignment_duration_s = alignment_duration_s
        self.boarding_timeout_s = boarding_timeout_s
        self.critical_threshold_pct = critical_threshold_pct
        # Static network roster used for the "am I the nearest platform"
        # check; always contains this platform itself.
        roster = list(lp_roster) if lp_roster else []
        if all(entry[0] != sys_id for entry in roster):
            roster.append((sys_id, self.position))
        self.lp_roster = [(int(i), (float(p[0]), float(p[1]))) for i, p in roster]
        self.heartbeat_interval_s = heartbeat_interval_s

        self.services_completed = 0
        self.wait_samples: list[float] = []

        self._phase_started_at: float | None = None
        self._last_heartbeat_at: float | None = None
        self._transitions: list[tuple[NodeState, NodeState]] = []

    # -- state machine plumbing -------------------------------------------

    def _transition(self, to: NodeState) -> None:
        if to not in LP_TRANSITIONS[self.state]:
            raise ProtocolStateError(f"LP {self.sys_id}: {self.state.name} -> {to.name}")
        self._transitions.append((self.state, to))
        self.state = to

    def drain_transitions(self) -> list[tuple[NodeState, NodeState]]:
        out, self._transitions = self._transitions, []
        return out

    def effective_position(self, raw_position: int) -> int:
        """Queue position as reported to peers, counting the vehicle on deck."""
        return raw_position + (1 if self.current_ap is not None else 0)

    def _promote(self, now: float) -> list[Outbound]:
        """If free and the queue is non-empty, clear the head for boarding."""
        if self.state is not NodeState.IDLE or len(self.queue) == 0:
            return []
        reservation = self.queue.pop_next()
        self.current_ap = reservation.ap_sys_id
        self._transition(NodeState.AWAITING_BOARDING)
        self._phase_started_at = now
        self.wait_samples.append(now - reservation.requested_at)
        return [
            Outbound(
                reservation.ap_sys_id,
                LpReservationConfirmation(
                    target_ap_sys_id=reservation.ap_sys_id, queue_position=0
                ),
            )
        ]

    def _release_current(self, now: float) -> list[Outbound]:
        self.current_ap = None
        self._transition(NodeState.IDLE)
        return self._promote(now)

    # -- message handling ---------------------------------------------------

    def handle_message(self, msg: Message, from_sys_id: int, now: float) -> list[Outbound]:
        """Process one decoded, verified message; returns replies to send."""
        if isinstance(msg, ServiceReservationRequest):
            return self._handle_request(msg, from_sys_id, now)
        if isinstance(msg, ApReservationDecision):
            return self._handle_decision(msg, from_sys_id, now)
        if isinstance(msg, SystemStateUpdate):
            return self._handle_state_update(msg, from_sys_id, now)
        if isinstance(msg, ExtendedHeartbeat):
            return self._handle_heartbeat(msg, from_sys_id, now)
        logger.debug("LP %d: ignoring %s", self.sys_id, type(msg).__name__)
        return []

    def _handle_request(
        self, msg: ServiceReservationRequest, from_sys_id: int, now: float
    ) -> list[Outbound]:
        if msg.target_lp_sys_id != self.sys_id:
            logger.debug(
                "LP %d: request addressed to LP %d, dropping",
                self.sys_id,
                msg.target_lp_sys_id,
            )
            return []
        if from_sys_id == self.current_ap:
            # Already cleared to board; repeat the boarding signal.
            return [
                Outbound(
                    from_sys_id,
                    LpReservationConfirmation(
                        target_ap_sys_id=from_sys_id, queue_position=0
                    ),
                )
            ]
        existing = self.queue.position_of(from_sys_id)
        if existing is not None:
            logger.debug("LP %d: duplicate request from AP %d", self.sys_id, from_sys_id)
            position = existing
        else:
            position = self.queue.enqueue(
                Reservation(
                    ap_sys_id=from_sys_id, priority=msg.priority, requested_at=now
                )
            )
        out: list[Outbound] = []
        if self.state is NodeState.IDLE:
            out = self._promote(now)
            if self.current_ap == from_sys_id:
                # The promotion confirmation with position 0 is the reply.
                return out
            # A higher-priority reservation was cleared instead; the
            # requester still gets its direct answer.
            position = self.queue.position_of(from_sys_id)
        out.append(
            Outbound(
                from_sys_id,
                LpReservationConfirmation(
                    target_ap_sys_id=from_sys_id,
                    queue_position=self.effective_position(position),
                ),
            )
        )
        return out

    def _handle_decision(
        self, msg: ApReservationDecision, from_sys_id: int, now: float
    ) -> list[Outbound]:
        if msg.target_lp_sys_id != self.sys_id or msg.decision is ReservationAction.KEEP:
            return []
        if from_sys_id == self.current_ap:
            if self.state is NodeState.AWAITING_BOARDING:
                return self._release_current(now)
            logger.debug(
                "LP %d: AP %d cancelled while %s, ignoring",
                self.sys_id,
                from_sys_id,
                self.state.name,
            )
            return []
        removed = self.queue.cancel(from_sys_id)
        if not removed:
            logger.debug("LP %d: cancel for unknown AP %d", self.sys_id, from_sys_id)
        return []

    def _handle_state_update(
        self, msg: SystemStateUpdate, from_sys_id: int, now: float
    ) -> list[Outbound]:
        if from_sys_id != self.current_ap:
            logger.debug(
                "LP %d: state update %s from non-boarded AP %d, ignoring",
                self.sys_id,
                msg.state.name,
                from_sys_id,
            )
            return []
        if msg.state is NodeState.LANDED and self.state is NodeState.AWAITING_BOARDING:
            self._transition(NodeState.ALIGNING)
            self._phase_started_at = now
            return []
        if msg.state is NodeState.DEPARTED and self.state is NodeState.RELEASING:
            return self._release_current(now)
        logger.debug(
            "LP %d: state update %s while %s, ignoring",
            self.sys_id,
            msg.state.name,
            self.state.name,
        )
        return []

    def _handle_heartbeat(
        self, msg: ExtendedHeartbeat, from_sys_id: int, now: float
    ) -> list[Outbound]:
        if msg.vehicle_type == VehicleType.AERIAL_PLATFORM:
            self.consider_auto_reserve(msg, from_sys_id, now)
            if self.state is NodeState.IDLE:
                return self._promote(now)
        return []

    def consider_auto_reserve(
        self, heartbeat: ExtendedHeartbeat, from_sys_id: int, now: float
    ) -> Reservation | None:
        """Reserve a slot unilaterally for a critically low vehicle.

        Fires only when the battery is below the critical threshold, this
        platform is the nearest one to the reported position, and the
        vehicle holds no live reservation here. The reservation enters the
        queue at maximum priority.
        """
        if heartbeat.battery_pct >= self.critical_threshold_pct:
            return None
        ap_position = (heartbeat.pos_x, heartbeat.pos_y)
        nearest = min(
            self.lp_roster, key=lambda entry: (math.dist(ap_position, entry[1]), entry[0])
        )
        if nearest[0] != self.sys_id:
            return None
        if from_sys_id == self.current_ap or self.queue.position_of(from_sys_id) is not None:
            return None
        reservation = Reservation(
            ap_sys_id=from_sys_id, priority=MAX_PRIORITY, requested_at=now
        )
        self.queue.enqueue(reservation)
        logger.debug(
            "LP %d: auto-reserved for critical AP %d (battery %.1f%%)",
            self.sys_id,
            from_sys_id,
            heartbeat.battery_pct,
        )
        return reservation

    # -- periodic work --------------------------------------------------------

    def tick(self, now: float) -> list[Outbound]:
        """Advance timed phases; emit the heartbeat and any boarding signal.

        Must be called with non-decreasing now. Calling twice at the same
        time is a no-op the second time.
        """
        out: list[Outbound] = []
        elapsed = (
            now - self._phase_started_at if self._phase_started_at is not None else 0.0
        )

        if self.state is NodeState.AWAITING_BOARDING and elapsed >= self.boarding_timeout_s:
            logger.debug(
                "LP %d: AP %s never boarded, dropping reservation", self.sys_id, self.current_ap
            )
            out.extend(self._release_current(now))
        if self.state is NodeState.ALIGNING and elapsed >= self.alignment_duration_s:
            self._transition(NodeState.SERVICING)
            self._phase_started_at = now
            out.append(
                Outbound(self.current_ap, SystemStateUpdate(state=NodeState.SERVICING))
            )
        if self.state is NodeState.SERVICING and (
            now - self._phase_started_at >= self.service_duration_s
        ):
            self._transition(NodeState.RELEASING)
            self._phase_started_at = now
            self.services_completed += 1
            out.append(
                Outbound(
                    self.current_ap, SystemStateUpdate(state=NodeState.SERVICE_COMPLETE)
                )
            )

        out.extend(self._promote(now))

        if (
            self._last_heartbeat_at is None
            or now - self._last_heartbeat_at >= self.heartbeat_interval_s
        ):
            self._last_heartbeat_at = now
            out.append(Outbound(None, self.heartbeat()))
        return out

    def heartbeat(self) -> ExtendedHeartbeat:
        # Platforms are mains-powered ground stations; battery reads full.
        return ExtendedHeartbeat(
            vehicle_type=VehicleType.LANDING_PLATFORM,
            flight_stack=FlightStack.UNKNOWN,
            system_state=self.state,
            battery_pct=100.0,
            pos_x=self.position[0],
            pos_y=self.position[1],
        )
