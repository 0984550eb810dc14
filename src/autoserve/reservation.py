"""Priority-ordered service queue held by each landing platform.

Reservations are totally ordered by priority descending, then request
time ascending (FIFO among equals), then requester id ascending so that
replays are fully deterministic. Position 0 is the next platform to be
served. Each requester may hold at most one live reservation per queue.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

MAX_PRIORITY = 100


class ReservationError(Exception):
    pass


class DuplicateReservation(ReservationError):
    """The requester already holds a live reservation in this queue."""


class EmptyQueue(ReservationError):
    pass


def priority_from_battery(battery_pct: float) -> int:
    """Urgency derived from remaining battery: round(100 - battery), clamped.

    Monotone non-increasing in battery so emptier vehicles sort first.
    """
    return max(0, min(MAX_PRIORITY, round(100.0 - float(battery_pct))))


@dataclass(frozen=True)
class Reservation:
    ap_sys_id: int
    priority: int
    requested_at: float

    def sort_key(self) -> tuple[int, float, int]:
        return (-self.priority, self.requested_at, self.ap_sys_id)


class ServiceQueue:
    """Ordered reservation ledger; single-writer, owned by one platform."""

    def __init__(self) -> None:
        self._items: list[Reservation] = []

    def __len__(self) -> int:
        return len(self._items)

    def reservations(self) -> list[Reservation]:
        return list(self._items)

    def enqueue(self, reservation: Reservation) -> int:
        """Insert at the ordered position and return it.

        Everything ranked behind the new entry shifts down by one.
        """
        if self.position_of(reservation.ap_sys_id) is not None:
            raise DuplicateReservation(
                f"ap {reservation.ap_sys_id} already has a live reservation"
            )
        index = bisect_left(self._items, reservation.sort_key(), key=Reservation.sort_key)
        self._items.insert(index, reservation)
        return index

    def cancel(self, ap_sys_id: int) -> bool:
        """Remove the requester's reservation if present.

        Everything behind the removed entry moves up one position.
        """
        index = self.position_of(ap_sys_id)
        if index is None:
            return False
        del self._items[index]
        return True

    def pop_next(self) -> Reservation:
        """Remove and return the position-0 reservation."""
        if not self._items:
            raise EmptyQueue("pop_next on an empty queue")
        return self._items.pop(0)

    def position_of(self, ap_sys_id: int) -> int | None:
        for index, item in enumerate(self._items):
            if item.ap_sys_id == ap_sys_id:
                return index
        return None
