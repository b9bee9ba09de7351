"""E10 — Section 4.1: the preprocessing/query trade-off of contraction hierarchies.

The centralized pipeline (and each federated map server) can preprocess its
road graph with contraction hierarchies to make queries cheap.  This
experiment reproduces the trade-off in deterministic work: preprocessing adds
shortcuts that grow with the graph, and from ~100 vertices up queries settle
about half the vertices plain Dijkstra does, at identical distances.  The
36-vertex scenario city is *below* CH's break-even (19.3 settled against
Dijkstra's 16.8): its row is reported with a note and no settled-vertices
band.  Host time for preprocessing and queries is perfbench's to measure
(``mapserver.route_self_s``).
"""

from __future__ import annotations

import math
import random

from repro.geometry.point import LatLng
from repro.routing.contraction import build_contraction_hierarchy
from repro.routing.graph import RoutingGraph, graph_from_map
from repro.routing.shortest_path import NoRouteError, astar, bidirectional_dijkstra, dijkstra

from _util import paper_world


def _grid_graph(rows: int, cols: int, drop_probability: float = 0.1, seed: int = 0) -> RoutingGraph:
    rng = random.Random(seed)
    graph = RoutingGraph()
    origin = LatLng(40.0, -80.0)
    for i in range(rows):
        for j in range(cols):
            graph.add_vertex(i * cols + j, origin.destination(0.0, i * 100.0).destination(90.0, j * 100.0))
    for i in range(rows):
        for j in range(cols):
            vertex = i * cols + j
            if j + 1 < cols and rng.random() > drop_probability:
                graph.connect(vertex, vertex + 1)
            if i + 1 < rows and rng.random() > drop_probability:
                graph.connect(vertex, vertex + cols)
    return graph


def _settled_per_query(query, pairs) -> dict:
    """Mean settled vertices over the pairs ``query`` can route; only "no
    route" excuses a pair, so any other failure is loud."""
    settled = []
    for source, target in pairs:
        try:
            settled.append(query(source, target).settled_vertices)
        except NoRouteError:
            continue
    return {
        "pairs": len(pairs),
        "routable_pairs": len(settled),
        "settled_per_query": sum(settled) / len(settled) if settled else None,
    }


def _ch_against_dijkstra(graph: RoutingGraph, pairs) -> dict:
    hierarchy = build_contraction_hierarchy(graph)
    routable = mismatches = plain_settled = fast_settled = 0
    for source, target in pairs:
        try:
            plain = dijkstra(graph, source, target)
        except NoRouteError:
            continue
        fast = hierarchy.query(source, target)  # on a pair Dijkstra routes, a CH failure is a finding: let it raise
        routable += 1
        mismatches += not math.isclose(fast.cost, plain.cost, rel_tol=1e-9, abs_tol=1e-12)
        plain_settled += plain.settled_vertices
        fast_settled += fast.settled_vertices
    return {
        "shortcuts": hierarchy.shortcut_count,
        "pairs": len(pairs),
        "routable_pairs": routable,
        "cost_mismatches": mismatches,
        "dijkstra_settled_per_query": plain_settled / routable if routable else None,
        "ch_settled_per_query": fast_settled / routable if routable else None,
    }


def preprocessing() -> dict:
    rows = {}
    for side in (6, 10, 14):
        graph = _grid_graph(side, side, seed=side)
        rng = random.Random(1)
        pairs = [(rng.randrange(graph.vertex_count), rng.randrange(graph.vertex_count)) for _ in range(20)]
        rows[str(graph.vertex_count)] = _ch_against_dijkstra(graph, pairs)
    return rows


def algorithms() -> dict:
    """Dijkstra, A*, bidirectional and CH on one 144-vertex graph."""
    graph = _grid_graph(12, 12, seed=7)
    hierarchy = build_contraction_hierarchy(graph)
    rng = random.Random(2)
    pairs = [(rng.randrange(graph.vertex_count), rng.randrange(graph.vertex_count)) for _ in range(20)]
    queries = {
        "dijkstra": lambda s, t: dijkstra(graph, s, t),
        "astar": lambda s, t: astar(graph, s, t),
        "bidirectional": lambda s, t: bidirectional_dijkstra(graph, s, t),
        "contraction hierarchy": hierarchy.query,
    }
    return {name: _settled_per_query(query, pairs) for name, query in queries.items()}


def city_graph() -> dict:
    """The same comparison on the generated city graph the experiments use."""
    world, _ = paper_world()
    graph = graph_from_map(world.city.map_data)
    rng = random.Random(5)
    vertices = list(graph.vertices())
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(15)]
    return {
        "scenario city": {
            "vertices": graph.vertex_count,
            **_ch_against_dijkstra(graph, pairs),
            "note": "36 vertices is below CH's break-even, no settled-vertices band",
        }
    }


CELLS = {"preprocessing": preprocessing, "algorithms": algorithms, "city_graph": city_graph}


def bands(t: dict) -> dict[str, bool]:
    plain, hierarchy = t["algorithms"]["dijkstra"], t["algorithms"]["contraction hierarchy"]
    small, large = t["preprocessing"]["36"], t["preprocessing"]["196"]
    city = t["city_graph"]["scenario city"]
    return {
        **{
            f"{vertices}-vertex grid: >= 15 of 20 pairs routable, 0 cost mismatches, CH settles <= 1.05x Dijkstra's "
            f"vertices: {row}": (
                row["routable_pairs"] >= 15
                and row["cost_mismatches"] == 0
                and row["ch_settled_per_query"] <= row["dijkstra_settled_per_query"] * 1.05
            )
            for vertices, row in t["preprocessing"].items()
        },
        f"preprocessing work (shortcuts) grows with the graph: {small} -> {large}": (
            large["shortcuts"] > small["shortcuts"] > 0
        ),
        **{
            f"{name} routes the same >= 15 of 20 pairs Dijkstra does: {row} vs {plain}": (
                row["routable_pairs"] == plain["routable_pairs"] >= 15
            )
            for name, row in t["algorithms"].items()
        },
        f"on 144 vertices CH settles no more vertices per query than Dijkstra: {hierarchy} vs {plain}": (
            plain["routable_pairs"] >= 15 and hierarchy["settled_per_query"] <= plain["settled_per_query"]
        ),
        f"city graph: 0 CH/Dijkstra cost mismatches over >= 12 of 15 routable pairs: {city}": (
            city["routable_pairs"] >= 12 and city["cost_mismatches"] == 0
        ),
    }
