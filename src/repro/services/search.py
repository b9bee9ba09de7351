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
from repro.services.context import FederationContext
from repro.services.failover import TargetUnavailableError


@dataclass(frozen=True, slots=True)
class FederatedSearchResult:
    """The merged, ranked result of a federated search."""

    results: tuple[SearchResult, ...]
    servers_consulted: int
    servers_with_results: int
    dns_lookups: int

    def __len__(self) -> int:
        return len(self.results)


@dataclass
class FederatedSearch:
    """Fan-out search across discovered map servers with client-side ranking."""

    context: FederationContext
    search_radius_meters: float = 500.0
    queries: int = field(default=0, init=False)

    def search(
        self,
        query: str,
        near: LatLng,
        radius_meters: float | None = None,
        limit: int = 10,
    ) -> FederatedSearchResult:
        """Search for ``query`` around ``near`` across every discovered server."""
        self.queries += 1
        radius = radius_meters if radius_meters is not None else self.search_radius_meters
        discovery = self.context.discover_at(near, radius)

        all_results: list[SearchResult] = []
        servers_consulted = 0
        servers_with_results = 0
        for target in self.context.targets(discovery.server_ids):
            servers_consulted += 1
            try:
                results = self.context.request(
                    target,
                    lambda server: server.search(
                        query,
                        near=near,
                        radius_meters=radius,
                        credential=self.context.credential,
                        limit=limit,
                    ),
                )
            except TargetUnavailableError:
                continue
            if results:
                servers_with_results += 1
                all_results.extend(results)

        ranked = self._rank(all_results)
        return FederatedSearchResult(
            results=tuple(ranked[:limit]),
            servers_consulted=servers_consulted,
            servers_with_results=servers_with_results,
            dns_lookups=discovery.dns_lookups,
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
