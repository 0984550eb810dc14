"""Nearest-first ranking of landing platforms.

A platform roster maps each platform's sys_id to its (x, y) position.
Vehicles rank with it: they ask platforms in this order, first for a
slot and again for the next platform to try after declining an offer.
"""

from __future__ import annotations

import math
from typing import Mapping

Position = tuple[float, float]


def reachable_lps(
    roster: Mapping[int, Position], from_position: Position, safe_range_m: float
) -> list[int]:
    """Platforms within safe range of a position, nearest first.

    The boundary is inclusive; distance ties break by sys_id.
    """
    hits = []
    for sys_id, position in roster.items():
        d = math.dist(from_position, position)
        if d <= safe_range_m:
            hits.append((d, sys_id))
    hits.sort()
    return [sys_id for _, sys_id in hits]
