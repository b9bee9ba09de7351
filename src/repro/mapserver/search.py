"""Location-based search within one map.

Section 4: "Searching for map nodes using their metadata or features as
keywords in or around a region is called location-based search.  This service
serves requests of the form 'restaurants around me', 'parking spot near the
theater', etc.  Map providers index map node features and metadata against
their location to provide this service."
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.geometry.point import LatLng
from repro.osm.elements import Node
from repro.osm.mapdata import MapData
from repro.simulation.lru import answer_memo


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One matching map node with its relevance and distance."""

    node_id: int
    location: LatLng
    label: str
    relevance: float
    distance_meters: float
    map_name: str
    tags: tuple[tuple[str, str], ...] = ()

    def tag_dict(self) -> dict[str, str]:
        return dict(self.tags)


def _tokenise(text: str) -> list[str]:
    return [token for token in re.split(r"[^a-z0-9]+", text.strip().lower()) if token]


@dataclass
class SearchIndex:
    """An inverted index from keyword tokens to node ids, over the map as it
    was when built (:class:`SearchService` holds it on the map, so a changed
    map gets a new one)."""

    map_data: MapData
    _postings: dict[str, set[int]] = field(default_factory=dict, init=False)
    _document_tokens: dict[int, set[str]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        """Index every node's name, tag keys and tag values."""
        for node in self.map_data.nodes():
            tokens: set[str] = set()
            for key, value in node.tags.items():
                tokens.update(_tokenise(key))
                tokens.update(_tokenise(value))
            if not tokens:
                continue
            self._document_tokens[node.node_id] = tokens
            for token in tokens:
                self._postings.setdefault(token, set()).add(node.node_id)

    @property
    def indexed_nodes(self) -> int:
        return len(self._document_tokens)

    def candidates(self, query: str) -> dict[int, float]:
        """Node ids matching any query token, scored by token overlap."""
        query_tokens = _tokenise(query)
        if not query_tokens:
            return {}
        scores: dict[int, float] = {}
        for token in query_tokens:
            for node_id in self._postings.get(token, ()):  # exact token match
                scores[node_id] = scores.get(node_id, 0.0) + 1.0
        return {
            node_id: count / len(query_tokens)
            for node_id, count in scores.items()
        }


@dataclass
class SearchService:
    """Keyword + proximity search over one map.

    A search is a pure function of the request and the map, so the map holds
    its index and an answer memo (:meth:`MapData.derive`): each distinct
    request is ranked once per state of the map, by whichever service over
    it asks first, and ``queries_served`` counts every request either way.
    """

    map_data: MapData
    queries_served: int = field(default=0, init=False)

    @property
    def index(self) -> SearchIndex:
        return self.map_data.derive("search index", SearchIndex)

    def search(
        self,
        query: str,
        near: LatLng | None = None,
        radius_meters: float | None = None,
        limit: int = 10,
        visible: Callable[[Node], bool] | None = None,
    ) -> list[SearchResult]:
        """Search for nodes matching ``query``, optionally constrained to a radius.

        Relevance combines keyword overlap with proximity (closer results rank
        higher when a reference location is given).  ``visible`` (``None``:
        every node) drops candidates before the ``limit`` cut, so a restricted
        caller still gets up to ``limit`` results.
        """
        self.queries_served += 1
        # ``visible`` is in the key: callers with different views of the map
        # never share an answer.
        key = (query, near, radius_meters, limit, visible)
        answers = self.map_data.derive("search answers", answer_memo)
        answer = answers.lookup(key)
        if answer is None:
            answer = self._rank(query, near, radius_meters, limit, visible)
            answers.store(key, answer)
        return list(answer)

    def _rank(
        self,
        query: str,
        near: LatLng | None,
        radius_meters: float | None,
        limit: int,
        visible: Callable[[Node], bool] | None,
    ) -> tuple[SearchResult, ...]:
        scored = self.index.candidates(query)
        if not scored:
            return ()

        # Rank on (-relevance, candidate index): the order a stable descending
        # sort on relevance gives, without building a result per candidate.
        ranked: list[tuple[float, int, float, Node]] = []
        for position, (node_id, keyword_score) in enumerate(scored.items()):
            node = self.map_data.node(node_id)
            distance = near.distance_to(node.location) if near is not None else 0.0
            if radius_meters is not None and near is not None and distance > radius_meters:
                continue
            if visible is not None and not visible(node):
                continue
            proximity = 1.0 / (1.0 + distance / 100.0) if near is not None else 1.0
            relevance = 0.7 * keyword_score + 0.3 * proximity
            ranked.append((-relevance, position, distance, node))
        ranked.sort()
        map_name = self.map_data.metadata.name
        return tuple(
            SearchResult(
                node_id=node.node_id,
                location=node.location,
                label=self._label(node),
                relevance=-negated_relevance,
                distance_meters=distance,
                map_name=map_name,
                tags=tuple(sorted(node.tags.items())),
            )
            for negated_relevance, _, distance, node in ranked[:limit]
        )

    @staticmethod
    def _label(node: Node) -> str:
        return node.name or node.tags.get("product") or f"node {node.node_id}"
