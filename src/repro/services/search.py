"""Federated location-based search.

Section 5.2 (Reverse geocode and location-based search): "Searching for map
nodes around a location would begin by the client discovering map servers
around a given location.  The client would then ask each map server to search
for the relevant items within their maps and return relevant results, if any.
The client would then rank results from multiple map servers and present them
to the application."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng
from repro.mapserver.search import SearchResult
from repro.services.context import FederationContext, RequestOutcome


@dataclass(frozen=True, slots=True)
class FederatedSearchResult:
    """The merged, ranked result of a federated search."""

    results: tuple[SearchResult, ...]
    servers_consulted: int
    servers_with_results: int
    dns_lookups: int
    outcome: RequestOutcome

    def __len__(self) -> int:
        return len(self.results)


@dataclass
class FederatedSearch:
    """Fan-out search across discovered map servers with client-side ranking."""

    context: FederationContext
    queries: int = field(default=0, init=False)

    def search(
        self,
        query: str,
        near: LatLng,
        radius_meters: float,
        limit: int = 10,
    ) -> FederatedSearchResult:
        """Search for ``query`` around ``near`` across every discovered server."""
        self.queries += 1
        discovery = self.context.discover_at(near, radius_meters)
        targets = self.context.targets(discovery.server_ids)
        answers, served = self.context.fan_out(
            targets,
            lambda server: server.search(
                query,
                near=near,
                radius_meters=radius_meters,
                credential=self.context.credential,
                limit=limit,
            ),
        )
        answers = [results for results in answers if results]
        ranked = self._rank([result for results in answers for result in results])
        return FederatedSearchResult(
            results=tuple(ranked[:limit]),
            servers_consulted=len(targets),
            servers_with_results=len(answers),
            dns_lookups=discovery.dns_lookups,
            outcome=RequestOutcome.of(served, discovery),
        )

    @staticmethod
    def _rank(results: list[SearchResult]) -> list[SearchResult]:
        """Client-side ranking across servers.

        Results from different servers are directly comparable because each
        carries both a keyword relevance and a distance; the client ranks by
        relevance and breaks ties by distance.
        """
        deduped: dict[tuple[str, int], SearchResult] = {}
        for result in results:
            key = (result.map_name, result.node_id)
            existing = deduped.get(key)
            if existing is None or result.relevance > existing.relevance:
                deduped[key] = result
        ranked = list(deduped.values())
        ranked.sort(key=lambda r: (-r.relevance, r.distance_meters))
        return ranked
