import math
import random

from autoserve.ap_node import ApNode
from autoserve.routing import reachable_lps
from autoserve.wire import LpReservationConfirmation, ServiceReservationRequest


def random_layout(rng, n, span=100.0):
    return {i + 1: (rng.uniform(0, span), rng.uniform(0, span)) for i in range(n)}


# --- reachable_lps ------------------------------------------------------------------


def test_reachable_empty_graph():
    assert reachable_lps({}, (0.0, 0.0), 100.0) == []


def test_reachable_boundary_inclusive_at_zero_range():
    roster = {5: (12.0, 7.0), 6: (12.0, 8.0)}
    assert reachable_lps(roster, (12.0, 7.0), 0.0) == [5]


def test_reachable_matches_linear_scan_oracle():
    rng = random.Random(21)
    nodes = random_layout(rng, 20, span=200.0)
    for _ in range(50):
        query = (rng.uniform(0, 200), rng.uniform(0, 200))
        radius = rng.uniform(10, 150)
        expected = sorted(
            (sys_id for sys_id in nodes if math.dist(query, nodes[sys_id]) <= radius),
            key=lambda s: (math.dist(query, nodes[s]), s),
        )
        assert reachable_lps(nodes, query, radius) == expected


def test_reachable_sorted_by_distance():
    roster = {1: (0.0, 0.0), 2: (30.0, 0.0), 3: (10.0, 0.0)}
    assert reachable_lps(roster, (0.0, 0.0), 100.0) == [1, 3, 2]


def test_vehicle_requests_platforms_in_nearest_first_order():
    """A vehicle requests platforms in reachable_lps order. Positions on a
    5x5 integer grid make exact distance ties common."""
    rng = random.Random(10)
    ap_id = 50
    # Position 50 is far beyond what 40% battery affords, so every offer
    # is rejected and the vehicle moves on.
    deep_offer = LpReservationConfirmation(target_ap_sys_id=ap_id, queue_position=50)
    tied_rosters = 0
    for _ in range(200):
        ids = rng.sample(range(1, 40), rng.randint(2, 8))
        roster = [(i, (float(rng.randint(0, 4)), float(rng.randint(0, 4)))) for i in ids]
        position = (float(rng.randint(0, 4)), float(rng.randint(0, 4)))
        order = reachable_lps(dict(roster), position, math.inf)
        distances = [math.dist(position, dict(roster)[i]) for i in order]
        tied_rosters += len(set(distances)) < len(distances)

        ap = ApNode(ap_id, roster)
        out = ap.tick(0.0, 40.0, position)
        requested = []
        while len(requested) < len(order):
            (req,) = [o for o in out if isinstance(o.msg, ServiceReservationRequest)]
            requested.append(req.dest_sys_id)
            out = ap.handle_message(deep_offer, req.dest_sys_id, 1.0)
        assert requested == order
    assert tied_rosters > 50
