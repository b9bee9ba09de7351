"""Contraction hierarchies (CH) preprocessing and queries.

Section 4.1 notes that centralized providers preprocess their road graph
"using the contraction hierarchies algorithm which makes routing queries
faster to compute" (citing Geisberger et al.).  This module implements CH
from scratch: a node-ordering heuristic (edge difference + deleted
neighbours), shortcut insertion, and the bidirectional upward query.

The implementation favours clarity over raw speed, but still demonstrates the
characteristic trade-off measured in experiment E10: expensive one-off
preprocessing in exchange for queries that settle far fewer vertices than
Dijkstra.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.routing.graph import GraphError, RoutingGraph
from repro.routing.shortest_path import NoRouteError, Route


@dataclass(frozen=True, slots=True)
class _ShortcutEdge:
    """A CH edge: either an original edge or a shortcut bridging a contracted node."""

    source: int
    target: int
    cost: float
    via: int | None = None  # contracted middle vertex for shortcuts


@dataclass
class ContractionHierarchy:
    """The preprocessed structure produced by :func:`build_contraction_hierarchy`."""

    order: dict[int, int]
    upward: dict[int, list[_ShortcutEdge]]
    downward: dict[int, list[_ShortcutEdge]]
    shortcut_count: int
    metric: str = "distance"
    _shortcut_via: dict[tuple[int, int], int] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> Route:
        """Bidirectional upward search over the hierarchy."""
        if source not in self.order or target not in self.order:
            raise GraphError("query endpoints must be part of the preprocessed graph")
        if source == target:
            return Route((source,), 0.0, self.metric)

        forward_cost, forward_parent = self._upward_search(source, self.upward)
        backward_cost, backward_parent = self._upward_search(target, self.downward)

        best_cost = float("inf")
        meeting: int | None = None
        for vertex, cost in forward_cost.items():
            other = backward_cost.get(vertex)
            if other is not None and cost + other < best_cost:
                best_cost = cost + other
                meeting = vertex
        if meeting is None:
            raise NoRouteError(f"no route from {source} to {target}")

        forward_path = self._reconstruct(forward_parent, source, meeting)
        backward_path = self._reconstruct(backward_parent, target, meeting)
        combined = forward_path + list(reversed(backward_path[:-1]))
        expanded = self._expand_path(combined)
        settled = len(forward_cost) + len(backward_cost)
        return Route(tuple(expanded), best_cost, self.metric, settled_vertices=settled)

    def _upward_search(
        self, start: int, adjacency: dict[int, list[_ShortcutEdge]]
    ) -> tuple[dict[int, float], dict[int, int]]:
        distances: dict[int, float] = {start: 0.0}
        parents: dict[int, int] = {}
        settled: set[int] = set()
        heap: list[tuple[float, int]] = [(0.0, start)]
        while heap:
            distance, vertex = heapq.heappop(heap)
            if vertex in settled:
                continue
            settled.add(vertex)
            for edge in adjacency.get(vertex, []):
                new_distance = distance + edge.cost
                if new_distance < distances.get(edge.target, float("inf")):
                    distances[edge.target] = new_distance
                    parents[edge.target] = vertex
                    heapq.heappush(heap, (new_distance, edge.target))
        return distances, parents

    @staticmethod
    def _reconstruct(parents: dict[int, int], source: int, target: int) -> list[int]:
        path = [target]
        current = target
        while current != source:
            current = parents[current]
            path.append(current)
        path.reverse()
        return path

    def _expand_path(self, path: list[int]) -> list[int]:
        """Replace shortcut hops with the original vertices they bypass."""
        if self._shortcut_via is None:
            # The expansion table only depends on the preprocessed edges, so
            # it is built once on first use rather than per query.
            # Keyed in travel direction.  Downward edges are stored reversed
            # for the backward search, so a stored ``source -> target`` is
            # travelled ``target -> source``.
            shortcut_via: dict[tuple[int, int], int] = {}
            for edges in self.upward.values():
                for edge in edges:
                    if edge.via is not None:
                        shortcut_via[(edge.source, edge.target)] = edge.via
            for edges in self.downward.values():
                for edge in edges:
                    if edge.via is not None:
                        shortcut_via[(edge.target, edge.source)] = edge.via
            self._shortcut_via = shortcut_via
        shortcut_via = self._shortcut_via

        def expand(a: int, b: int) -> list[int]:
            via = shortcut_via.get((a, b))
            if via is None:
                return [a, b]
            left = expand(a, via)
            right = expand(via, b)
            return left[:-1] + right

        expanded = [path[0]]
        for a, b in zip(path, path[1:]):
            expanded.extend(expand(a, b)[1:])
        return expanded


def build_contraction_hierarchy(graph: RoutingGraph, metric: str = "distance") -> ContractionHierarchy:
    """Preprocess ``graph`` into a contraction hierarchy."""
    # Working adjacency (mutated as nodes are contracted).
    forward: dict[int, dict[int, _ShortcutEdge]] = {v: {} for v in graph.vertices()}
    backward: dict[int, dict[int, _ShortcutEdge]] = {v: {} for v in graph.vertices()}
    for vertex in graph.vertices():
        for edge in graph.out_edges(vertex):
            cost = edge.cost(metric)
            existing = forward[edge.source].get(edge.target)
            if existing is None or cost < existing.cost:
                shortcut = _ShortcutEdge(edge.source, edge.target, cost)
                forward[edge.source][edge.target] = shortcut
                backward[edge.target][edge.source] = shortcut

    contracted: set[int] = set()
    deleted_neighbors: dict[int, int] = {v: 0 for v in graph.vertices()}
    order: dict[int, int] = {}
    shortcut_count = 0

    def simulate_contraction(vertex: int) -> list[_ShortcutEdge]:
        """Shortcuts that contracting ``vertex`` would need."""
        needed: list[_ShortcutEdge] = []
        incoming = [e for s, e in backward[vertex].items() if s not in contracted]
        outgoing = [e for t, e in forward[vertex].items() if t not in contracted]
        for in_edge in incoming:
            for out_edge in outgoing:
                if in_edge.source == out_edge.target:
                    continue
                through_cost = in_edge.cost + out_edge.cost
                witness = _witness_search(
                    forward, contracted, in_edge.source, out_edge.target, vertex, through_cost
                )
                if witness > through_cost - 1e-12:
                    needed.append(
                        _ShortcutEdge(in_edge.source, out_edge.target, through_cost, via=vertex)
                    )
        return needed

    def priority(vertex: int) -> float:
        shortcuts = simulate_contraction(vertex)
        degree = sum(1 for s in backward[vertex] if s not in contracted) + sum(
            1 for t in forward[vertex] if t not in contracted
        )
        edge_difference = len(shortcuts) - degree
        return edge_difference * 2.0 + deleted_neighbors[vertex]

    queue: list[tuple[float, int]] = [(priority(v), v) for v in graph.vertices()]
    heapq.heapify(queue)
    rank = 0

    while queue:
        _, vertex = heapq.heappop(queue)
        if vertex in contracted:
            continue
        # Lazy update: re-evaluate priority and requeue if it is now worse
        # than the head of the queue.
        current_priority = priority(vertex)
        if queue and current_priority > queue[0][0] + 1e-12:
            heapq.heappush(queue, (current_priority, vertex))
            continue

        shortcuts = simulate_contraction(vertex)
        for shortcut in shortcuts:
            existing = forward[shortcut.source].get(shortcut.target)
            if existing is None or shortcut.cost < existing.cost:
                forward[shortcut.source][shortcut.target] = shortcut
                backward[shortcut.target][shortcut.source] = shortcut
                shortcut_count += 1
        for neighbor in list(forward[vertex]) + list(backward[vertex]):
            if neighbor not in contracted:
                deleted_neighbors[neighbor] += 1
        contracted.add(vertex)
        order[vertex] = rank
        rank += 1

    # Build the upward/downward search graphs: an edge (u, v) is "upward" if
    # rank(v) > rank(u).
    upward: dict[int, list[_ShortcutEdge]] = {v: [] for v in graph.vertices()}
    downward: dict[int, list[_ShortcutEdge]] = {v: [] for v in graph.vertices()}
    for source, edges in forward.items():
        for target, edge in edges.items():
            if order[target] > order[source]:
                upward[source].append(edge)
            else:
                downward[target].append(_ShortcutEdge(target, source, edge.cost, edge.via))

    return ContractionHierarchy(
        order=order,
        upward=upward,
        downward=downward,
        shortcut_count=shortcut_count,
        metric=metric,
    )


def _witness_search(
    forward: dict[int, dict[int, _ShortcutEdge]],
    contracted: set[int],
    source: int,
    target: int,
    excluded: int,
    limit: float,
    max_settled: int = 200,
) -> float:
    """Shortest path from source to target avoiding ``excluded``, up to ``limit``.

    Bounded Dijkstra used to decide whether a shortcut is necessary.  Returns
    the best distance found (may be infinity).
    """
    distances = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: set[int] = set()
    while heap and len(settled) < max_settled:
        distance, vertex = heapq.heappop(heap)
        if vertex in settled:
            continue
        settled.add(vertex)
        if vertex == target:
            return distance
        if distance > limit:
            break
        for neighbor, edge in forward[vertex].items():
            if neighbor == excluded or neighbor in contracted:
                continue
            new_distance = distance + edge.cost
            if new_distance < distances.get(neighbor, float("inf")):
                distances[neighbor] = new_distance
                heapq.heappush(heap, (new_distance, neighbor))
    return distances.get(target, float("inf"))
