"""Routing substrate: graphs, shortest paths, contraction hierarchies, stitching."""

from repro.routing.contraction import ContractionHierarchy, build_contraction_hierarchy
from repro.routing.graph import (
    ROUTABLE_TAGS,
    Edge,
    GraphError,
    RoutingGraph,
    graph_from_map,
)
from repro.routing.shortest_path import (
    NoRouteError,
    Route,
    astar,
    bidirectional_dijkstra,
    dijkstra,
)
from repro.routing.stitching import (
    RouteLeg,
    RouteStitcher,
    StitchError,
    StitchedRoute,
)

__all__ = [
    "ContractionHierarchy",
    "Edge",
    "GraphError",
    "NoRouteError",
    "ROUTABLE_TAGS",
    "Route",
    "RouteLeg",
    "RouteStitcher",
    "RoutingGraph",
    "StitchError",
    "StitchedRoute",
    "astar",
    "bidirectional_dijkstra",
    "build_contraction_hierarchy",
    "dijkstra",
    "graph_from_map",
]
