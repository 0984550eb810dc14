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
never lands within the boarding timeout; a vehicle released on the
timeout is sent SystemStateUpdate(IDLE), the notice that its slot is gone.

The queue fills only from vehicle requests, and every return to IDLE
promotes its head, so a platform is never IDLE with a non-empty queue
and a request that finds it IDLE is promoted at once.
A platform sends no heartbeat, since vehicles act only on the messages
addressed to them; vehicle heartbeats are dropped unread and uncounted.
Messages that are inconsistent with the current phase (for example
LANDED while IDLE) are dropped and counted in drops, one counter per
reason; an unreliable link must not be able to fault the platform.
"""

from __future__ import annotations

from collections import Counter

from .reservation import Reservation, ServiceQueue
from .transport import Outbound
from .wire import (
    ALIGNING,
    AWAITING_BOARDING,
    DEPARTED,
    IDLE,
    KEEP,
    LANDED,
    RELEASING,
    SERVICE_COMPLETE,
    SERVICING,
    ApReservationDecision,
    ExtendedHeartbeat,
    LpReservationConfirmation,
    Message,
    NodeState,
    ServiceReservationRequest,
    SystemStateUpdate,
)

# AWAITING_BOARDING -> IDLE is the cancel/no-show revert.
LP_TRANSITIONS: dict[NodeState, frozenset[NodeState]] = {
    IDLE: frozenset({AWAITING_BOARDING}),
    AWAITING_BOARDING: frozenset({ALIGNING, IDLE}),
    ALIGNING: frozenset({SERVICING}),
    SERVICING: frozenset({RELEASING}),
    RELEASING: frozenset({IDLE}),
}


class ProtocolStateError(RuntimeError):
    """An illegal state-machine transition was attempted."""


class StateMachine:
    """The plumbing both service machines share. A subclass sets
    TRANSITIONS, its legal next states by state, and KIND, the "AP" or "LP"
    that labels its ProtocolStateError texts and begins its actor, the name
    traces and reports know it by."""

    def __init__(self, sys_id: int, state: NodeState):
        self.sys_id = sys_id
        self.actor = f"{self.KIND}{sys_id}"
        self.state = state
        # When the node entered its state; every timed phase reads it.
        self.state_since = 0.0
        # (from, to) pairs not yet drained; the simulator reads it after
        # each message to skip nodes with nothing to report.
        self.transitions: list[tuple[NodeState, NodeState]] = []
        # Dropped messages and reservations, by reason.
        self.drops: Counter[str] = Counter()

    def _transition(self, to: NodeState, now: float) -> None:
        if to not in self.TRANSITIONS[self.state]:
            raise ProtocolStateError(f"{self.KIND} {self.sys_id}: {self.state.name} -> {to.name}")
        self.transitions.append((self.state, to))
        self.state = to
        self.state_since = now

    def drain_transitions(self) -> list[tuple[NodeState, NodeState]]:
        out, self.transitions = self.transitions, []
        return out

    def _drop(self, reason: str) -> list[Outbound]:
        self.drops[reason] += 1
        return []


class LpNode(StateMachine):
    """One landing platform: its queue and phase machine."""

    TRANSITIONS = LP_TRANSITIONS
    KIND = "LP"

    def __init__(
        self,
        sys_id: int,
        *,
        service_duration_s: float = 120.0,
        alignment_duration_s: float = 10.0,
        boarding_timeout_s: float = 180.0,
    ):
        super().__init__(sys_id, IDLE)
        self.queue = ServiceQueue()
        self.current_ap: int | None = None
        self.service_duration_s = service_duration_s
        self.alignment_duration_s = alignment_duration_s
        self.boarding_timeout_s = boarding_timeout_s

        self.services_completed = 0
        self.wait_samples: list[float] = []

    def _promote(self, now: float) -> list[Outbound]:
        """On an IDLE platform, clear the queue's head, if any, for boarding."""
        if len(self.queue) == 0:
            return []
        reservation = self.queue.pop_next()
        self.current_ap = reservation.ap_sys_id
        self._transition(AWAITING_BOARDING, now)
        self.wait_samples.append(now - reservation.requested_at)
        return [self._confirmation(reservation.ap_sys_id, 0)]

    def _confirmation(self, ap_sys_id: int, queue_position: int) -> Outbound:
        return Outbound(
            ap_sys_id,
            LpReservationConfirmation(target_ap_sys_id=ap_sys_id, queue_position=queue_position),
        )

    def _release_current(self, now: float) -> list[Outbound]:
        self.current_ap = None
        self._transition(IDLE, now)
        return self._promote(now)

    # -- message handling ---------------------------------------------------

    def handle_message(self, msg: Message, from_sys_id: int, now: float) -> list[Outbound]:
        """Process one decoded, verified message; returns replies to send."""
        kind = type(msg)
        # Vehicle heartbeats, most of a platform's deliveries, carry nothing
        # it acts on.
        if kind is ExtendedHeartbeat:
            return []
        if kind is ServiceReservationRequest:
            return self._handle_request(msg, from_sys_id, now)
        if kind is ApReservationDecision:
            return self._handle_decision(msg, from_sys_id, now)
        if kind is SystemStateUpdate:
            return self._handle_state_update(msg, from_sys_id, now)
        return self._drop("lp_unexpected_message")

    def _handle_request(
        self, msg: ServiceReservationRequest, from_sys_id: int, now: float
    ) -> list[Outbound]:
        if msg.target_lp_sys_id != self.sys_id:
            return self._drop("lp_request_for_other_lp")
        if from_sys_id == self.current_ap:
            # Already cleared to board; repeat the boarding signal.
            return [self._confirmation(from_sys_id, 0)]
        existing = self.queue.position_of(from_sys_id)
        if existing is not None:
            self._drop("lp_duplicate_request")  # counted, and still answered
            position = existing
        else:
            position = self.queue.enqueue(
                Reservation(
                    ap_sys_id=from_sys_id, priority=msg.priority, requested_at=now
                )
            )
        if self.state is IDLE:
            # An IDLE platform's queue was empty, so the requester is its
            # head: the promotion's confirmation with position 0 is the reply.
            return self._promote(now)
        # Peers are told their position counting the vehicle on deck.
        on_deck = 1 if self.current_ap is not None else 0
        return [self._confirmation(from_sys_id, position + on_deck)]

    def _handle_decision(
        self, msg: ApReservationDecision, from_sys_id: int, now: float
    ) -> list[Outbound]:
        if msg.target_lp_sys_id != self.sys_id:
            return self._drop("lp_decision_for_other_lp")
        if msg.decision is KEEP:
            return []
        if from_sys_id == self.current_ap:
            if self.state is AWAITING_BOARDING:
                return self._release_current(now)
            return self._drop("lp_cancel_on_deck")
        if not self.queue.cancel(from_sys_id):
            return self._drop("lp_cancel_unknown")
        return []

    def _handle_state_update(
        self, msg: SystemStateUpdate, from_sys_id: int, now: float
    ) -> list[Outbound]:
        if from_sys_id != self.current_ap:
            return self._drop("lp_state_update_from_other_ap")
        if msg.state is LANDED and self.state is AWAITING_BOARDING:
            self._transition(ALIGNING, now)
            return []
        if msg.state is DEPARTED and self.state is RELEASING:
            return self._release_current(now)
        return self._drop("lp_state_update_unexpected")

    # -- periodic work --------------------------------------------------------

    def tick(self, now: float) -> list[Outbound]:
        """Advance timed phases; emit phase updates and any boarding signal.

        Must be called with non-decreasing now. Calling twice at the same
        time is a no-op the second time.
        """
        out: list[Outbound] = []
        if self.state is AWAITING_BOARDING and now - self.state_since >= self.boarding_timeout_s:
            # The vehicle cleared to board never landed: drop its reservation
            # and tell it the slot is gone.
            self._drop("lp_boarding_timeout")
            out.append(Outbound(self.current_ap, SystemStateUpdate(state=IDLE)))
            out.extend(self._release_current(now))
        if self.state is ALIGNING and now - self.state_since >= self.alignment_duration_s:
            self._transition(SERVICING, now)
            out.append(Outbound(self.current_ap, SystemStateUpdate(state=SERVICING)))
        if self.state is SERVICING and now - self.state_since >= self.service_duration_s:
            self._transition(RELEASING, now)
            self.services_completed += 1
            out.append(Outbound(self.current_ap, SystemStateUpdate(state=SERVICE_COMPLETE)))
        return out
