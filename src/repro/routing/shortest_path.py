"""Shortest-path algorithms: Dijkstra, A*, bidirectional Dijkstra.

These are the baseline query algorithms of the centralized model's routing
server (Section 4.1) and of each federated map server's routing service.  The
contraction-hierarchy preprocessing in ``contraction.py`` builds on the same
graph abstraction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.geometry.point import LatLng
from repro.routing.graph import GraphError, RoutingGraph


@dataclass(frozen=True, slots=True)
class Route:
    """A computed route: ordered vertex ids plus total cost."""

    vertices: tuple[int, ...]
    cost: float
    metric: str = "distance"
    settled_vertices: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def source(self) -> int:
        if self.is_empty:
            raise GraphError("empty route has no source")
        return self.vertices[0]

    @property
    def target(self) -> int:
        if self.is_empty:
            raise GraphError("empty route has no target")
        return self.vertices[-1]

    def locations(self, graph: RoutingGraph) -> list[LatLng]:
        return graph.path_locations(list(self.vertices))


class NoRouteError(GraphError):
    """Raised when no path exists between the requested endpoints."""


@dataclass
class _SearchState:
    distances: dict[int, float] = field(default_factory=dict)
    predecessors: dict[int, int] = field(default_factory=dict)
    settled: set[int] = field(default_factory=set)


def dijkstra(graph: RoutingGraph, source: int, target: int, metric: str = "distance") -> Route:
    """Plain Dijkstra search from ``source`` to ``target``."""
    _check_endpoints(graph, source, target)
    if source == target:
        return Route((source,), 0.0, metric)

    state = _SearchState()
    state.distances[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]

    while heap:
        distance, vertex = heapq.heappop(heap)
        if vertex in state.settled:
            continue
        state.settled.add(vertex)
        if vertex == target:
            return _build_route(state, source, target, metric)
        for edge in graph.out_edges(vertex):
            new_distance = distance + edge.cost(metric)
            if new_distance < state.distances.get(edge.target, float("inf")):
                state.distances[edge.target] = new_distance
                state.predecessors[edge.target] = vertex
                heapq.heappush(heap, (new_distance, edge.target))

    raise NoRouteError(f"no route from {source} to {target}")


def astar(graph: RoutingGraph, source: int, target: int, metric: str = "distance") -> Route:
    """A* search using great-circle distance as an admissible heuristic.

    The heuristic is only admissible for the distance metric; for other
    metrics the function falls back to Dijkstra.
    """
    if metric != "distance":
        return dijkstra(graph, source, target, metric)
    _check_endpoints(graph, source, target)
    if source == target:
        return Route((source,), 0.0, metric)

    target_location = graph.location(target)

    def heuristic(vertex: int) -> float:
        return graph.location(vertex).distance_to(target_location)

    state = _SearchState()
    state.distances[source] = 0.0
    heap: list[tuple[float, int]] = [(heuristic(source), source)]

    while heap:
        _, vertex = heapq.heappop(heap)
        if vertex in state.settled:
            continue
        state.settled.add(vertex)
        if vertex == target:
            return _build_route(state, source, target, metric)
        base = state.distances[vertex]
        for edge in graph.out_edges(vertex):
            new_distance = base + edge.cost(metric)
            if new_distance < state.distances.get(edge.target, float("inf")):
                state.distances[edge.target] = new_distance
                state.predecessors[edge.target] = vertex
                heapq.heappush(heap, (new_distance + heuristic(edge.target), edge.target))

    raise NoRouteError(f"no route from {source} to {target}")


def bidirectional_dijkstra(
    graph: RoutingGraph, source: int, target: int, metric: str = "distance"
) -> Route:
    """Bidirectional Dijkstra: simultaneous forward and backward searches."""
    _check_endpoints(graph, source, target)
    if source == target:
        return Route((source,), 0.0, metric)

    forward = _SearchState()
    backward = _SearchState()
    forward.distances[source] = 0.0
    backward.distances[target] = 0.0
    forward_heap: list[tuple[float, int]] = [(0.0, source)]
    backward_heap: list[tuple[float, int]] = [(0.0, target)]

    best_cost = float("inf")
    meeting_vertex: int | None = None

    def scan(
        heap: list[tuple[float, int]],
        state: _SearchState,
        other: _SearchState,
        use_reverse_edges: bool,
    ) -> None:
        nonlocal best_cost, meeting_vertex
        distance, vertex = heapq.heappop(heap)
        if vertex in state.settled:
            return
        state.settled.add(vertex)
        if vertex in other.distances:
            total = distance + other.distances[vertex]
            if total < best_cost:
                best_cost = total
                meeting_vertex = vertex
        edges = graph.in_edges(vertex) if use_reverse_edges else graph.out_edges(vertex)
        for edge in edges:
            neighbor = edge.source if use_reverse_edges else edge.target
            new_distance = distance + edge.cost(metric)
            if new_distance < state.distances.get(neighbor, float("inf")):
                state.distances[neighbor] = new_distance
                state.predecessors[neighbor] = vertex
                heapq.heappush(heap, (new_distance, neighbor))

    while forward_heap and backward_heap:
        top_sum = forward_heap[0][0] + backward_heap[0][0]
        if top_sum >= best_cost:
            break
        if forward_heap[0][0] <= backward_heap[0][0]:
            scan(forward_heap, forward, backward, use_reverse_edges=False)
        else:
            scan(backward_heap, backward, forward, use_reverse_edges=True)

    if meeting_vertex is None:
        raise NoRouteError(f"no route from {source} to {target}")

    forward_path = _reconstruct(forward.predecessors, source, meeting_vertex)
    backward_path = _reconstruct(backward.predecessors, target, meeting_vertex)
    full_path = forward_path + list(reversed(backward_path[:-1]))
    settled = len(forward.settled) + len(backward.settled)
    return Route(tuple(full_path), best_cost, metric, settled_vertices=settled)


def _check_endpoints(graph: RoutingGraph, source: int, target: int) -> None:
    if not graph.has_vertex(source):
        raise GraphError(f"unknown source vertex {source}")
    if not graph.has_vertex(target):
        raise GraphError(f"unknown target vertex {target}")


def _build_route(state: _SearchState, source: int, target: int, metric: str) -> Route:
    path = _reconstruct(state.predecessors, source, target)
    return Route(tuple(path), state.distances[target], metric, settled_vertices=len(state.settled))


def _reconstruct(predecessors: dict[int, int], source: int, target: int) -> list[int]:
    path = [target]
    current = target
    while current != source:
        current = predecessors[current]
        path.append(current)
    path.reverse()
    return path
