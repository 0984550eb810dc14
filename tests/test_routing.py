import math
import random

import pytest

from autoserve.ap_node import ApNode
from autoserve.lp_node import LpNode
from autoserve.routing import LpGraph, Unreachable, UnknownNode, plan_route, reachable_lps
from autoserve.wire import (
    ExtendedHeartbeat,
    LpReservationConfirmation,
    NodeState,
    ServiceReservationRequest,
    VehicleType,
)
from oracles import bfs_hops, enumerate_min_hop_paths, min_hop_length


def random_layout(rng, n, span=100.0):
    return {i + 1: (rng.uniform(0, span), rng.uniform(0, span)) for i in range(n)}


def connected_layout(rng, n, safe_range):
    while True:
        nodes = random_layout(rng, n)
        if len(bfs_hops(nodes, safe_range, 1)) == n:
            return nodes


# --- plan_route -----------------------------------------------------------------


def test_identity_route():
    g = LpGraph({3: (10.0, 10.0)})
    assert plan_route(g, 3, 3, safe_range_m=1.0) == [3]


def test_collinear_three_platforms():
    g = LpGraph({1: (0.0, 0.0), 2: (50.0, 0.0), 3: (100.0, 0.0)})
    assert plan_route(g, 1, 3, safe_range_m=60.0) == [1, 2, 3]
    assert plan_route(g, 1, 3, safe_range_m=110.0) == [1, 3]


def test_hop_counts_match_bfs_oracle_on_random_graphs():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 10)
        safe_range = rng.uniform(30, 90)
        nodes = connected_layout(rng, n, safe_range)
        g = LpGraph(nodes)
        hops = bfs_hops(nodes, safe_range, 1)
        for dst in nodes:
            route = plan_route(g, 1, dst, safe_range)
            assert len(route) - 1 == hops[dst]
            assert route[0] == 1 and route[-1] == dst
            for a, b in zip(route, route[1:]):
                assert math.dist(nodes[a], nodes[b]) <= safe_range


def test_min_hop_bottleneck_is_maximal():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(3, 7)
        safe_range = rng.uniform(35, 80)
        nodes = connected_layout(rng, n, safe_range)
        g = LpGraph(nodes)
        src, dst = 1, n
        chosen = plan_route(g, src, dst, safe_range)
        candidates = enumerate_min_hop_paths(nodes, safe_range, src, dst)
        best = max(min_hop_length(nodes, p) for p in candidates)
        assert min_hop_length(nodes, chosen) == best


def test_bottleneck_tie_breaks_lexicographically():
    # Two symmetric 2-hop routes with identical hop lengths.
    g = LpGraph({1: (0.0, 0.0), 2: (0.0, 10.0), 3: (10.0, 0.0), 4: (10.0, 10.0)})
    assert plan_route(g, 1, 4, safe_range_m=10.0) == [1, 2, 4]


def test_favors_the_furthest_reachable_hop():
    # Both routes are 2 hops; via node 3 the shorter leg is 50 m, via
    # node 2 it is 40 m. The 50 m bottleneck wins.
    g = LpGraph({1: (0.0, 0.0), 2: (40.0, 0.0), 3: (50.0, 0.0), 4: (100.0, 0.0)})
    assert plan_route(g, 1, 4, safe_range_m=60.0) == [1, 3, 4]


def test_unreachable_and_unknown():
    g = LpGraph({1: (0.0, 0.0), 2: (500.0, 0.0)})
    with pytest.raises(Unreachable):
        plan_route(g, 1, 2, safe_range_m=100.0)
    with pytest.raises(UnknownNode):
        plan_route(g, 1, 9, safe_range_m=100.0)
    with pytest.raises(UnknownNode):
        plan_route(g, 9, 1, safe_range_m=100.0)


def test_blocked_edge_forces_detour():
    nodes = {1: (0.0, 0.0), 2: (50.0, 0.0), 3: (25.0, 30.0)}
    assert plan_route(LpGraph(nodes), 1, 2, 55.0) == [1, 2]
    detour = plan_route(LpGraph(nodes, blocked_edges=[(1, 2)]), 1, 2, 55.0)
    assert detour == [1, 3, 2]


def test_route_is_invariant_to_node_insertion_order():
    nodes = {1: (0.0, 0.0), 2: (40.0, 0.0), 3: (50.0, 0.0), 4: (100.0, 0.0)}
    forward = LpGraph(list(nodes.items()))
    backward = LpGraph(list(reversed(list(nodes.items()))))
    assert plan_route(forward, 1, 4, 60.0) == plan_route(backward, 1, 4, 60.0)


def test_from_config_document():
    g = LpGraph.from_config(
        {"lp_positions": [[0.0, 0.0], [50.0, 0.0]], "blocked_edges": []}
    )
    assert g.node_ids() == [1, 2]
    assert plan_route(g, 1, 2, 60.0) == [1, 2]


# --- reachable_lps ------------------------------------------------------------------


def test_reachable_empty_graph():
    assert reachable_lps(LpGraph({}), (0.0, 0.0), 100.0) == []


def test_reachable_boundary_inclusive_at_zero_range():
    g = LpGraph({5: (12.0, 7.0), 6: (12.0, 8.0)})
    assert reachable_lps(g, (12.0, 7.0), 0.0) == [5]


def test_reachable_matches_linear_scan_oracle():
    rng = random.Random(21)
    nodes = random_layout(rng, 20, span=200.0)
    g = LpGraph(nodes)
    for _ in range(50):
        query = (rng.uniform(0, 200), rng.uniform(0, 200))
        radius = rng.uniform(10, 150)
        expected = sorted(
            (sys_id for sys_id in nodes if math.dist(query, nodes[sys_id]) <= radius),
            key=lambda s: (math.dist(query, nodes[s]), s),
        )
        assert reachable_lps(g, query, radius) == expected


def test_reachable_sorted_by_distance():
    g = LpGraph({1: (0.0, 0.0), 2: (30.0, 0.0), 3: (10.0, 0.0)})
    assert reachable_lps(g, (0.0, 0.0), 100.0) == [1, 3, 2]


def test_vehicle_and_platforms_share_the_nearest_first_order():
    """A vehicle requests platforms in reachable_lps order, and only the
    first platform in that order reserves itself for a critical vehicle.
    Positions on a 5x5 integer grid make exact distance ties common."""
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
        order = reachable_lps(LpGraph(roster), position, math.inf)
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

        heartbeat = ExtendedHeartbeat(
            vehicle_type=VehicleType.AERIAL_PLATFORM,
            flight_stack=0,
            system_state=NodeState.OPERATING,
            battery_pct=5.0,
            pos_x=position[0],
            pos_y=position[1],
        )
        reserving = [
            sys_id
            for sys_id, lp_position in roster
            if LpNode(sys_id, lp_position, lp_roster=roster).consider_auto_reserve(
                heartbeat, ap_id, 0.0
            )
            is not None
        ]
        assert reserving == [order[0]]
    assert tied_rosters > 50
