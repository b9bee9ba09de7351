"""Federated forward and reverse geocoding.

Section 5.2 (Geocode): "Given a text string of a hierarchical address, the
client first uses the geocode service of a large world-map provider to get
the coarse location of a part of the address.  The client then discovers
finer map servers in the coarse location which search in their own maps for
the exact address."

The "large world-map provider" role is played by any map server designated as
the *world provider* (in our scenarios, the city-scale outdoor map).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng
from repro.mapserver.geocode import Address, GeocodeResult, ReverseGeocodeResult
from repro.mapserver.policy import AccessDenied
from repro.mapserver.server import MapServer
from repro.services.context import FederationContext, RequestOutcome
from repro.simulation.queueing import ServerOverloadedError

GEOCODE_DISCOVERY_RADIUS_METERS = 300.0
"""How far around the coarse world-map fix discovery looks for the maps
that refine it."""


@dataclass(frozen=True, slots=True)
class FederatedGeocodeResult:
    """The outcome of a federated forward-geocode query."""

    best: GeocodeResult | None
    candidates: tuple[GeocodeResult, ...]
    coarse_location: LatLng | None
    servers_consulted: int
    dns_lookups: int
    outcome: RequestOutcome


@dataclass(frozen=True, slots=True)
class FederatedReverseGeocodeResult:
    """The outcome of a federated reverse-geocode query."""

    best: ReverseGeocodeResult | None
    candidates: tuple[ReverseGeocodeResult, ...]
    servers_consulted: int
    dns_lookups: int
    outcome: RequestOutcome


@dataclass
class FederatedGeocoder:
    """Two-stage geocoding: coarse world-map lookup, then fine discovered maps."""

    context: FederationContext
    world_provider: MapServer | None = None
    queries: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # Forward geocode
    # ------------------------------------------------------------------
    def geocode(self, address: Address, limit: int = 5) -> FederatedGeocodeResult:
        """Resolve a textual address to precise candidates across the federation."""
        self.queries += 1
        coarse = self._coarse_location(address)
        discovery = None
        candidates: list[GeocodeResult] = []
        servers_consulted = 0
        served = True

        if coarse is not None:
            discovery = self.context.discover_at(coarse, GEOCODE_DISCOVERY_RADIUS_METERS)
            targets = self.context.targets(discovery.server_ids)
            answers, served = self.context.fan_out(
                targets, lambda server: server.geocode(address, self.context.credential, limit)
            )
            candidates = [result for results in answers for result in results]
            servers_consulted = len(targets)

        # Fall back to (or augment with) the world provider's own answers.
        if self.world_provider is not None:
            self.context.charge_map_server_request()
            servers_consulted += 1
            try:
                candidates.extend(
                    self.world_provider.geocode(address, self.context.credential, limit)
                )
            except (AccessDenied, ServerOverloadedError):
                pass

        deduped = self._dedupe(candidates)
        deduped.sort(key=lambda r: r.score, reverse=True)
        best = deduped[0] if deduped else None
        return FederatedGeocodeResult(
            best=best,
            candidates=tuple(deduped[:limit]),
            coarse_location=coarse,
            servers_consulted=servers_consulted,
            dns_lookups=discovery.dns_lookups if discovery is not None else 0,
            outcome=RequestOutcome.of(served, discovery),
        )

    # ------------------------------------------------------------------
    # Reverse geocode
    # ------------------------------------------------------------------
    def reverse_geocode(
        self, location: LatLng, max_distance_meters: float = 250.0
    ) -> FederatedReverseGeocodeResult:
        """Snap a location to the most precise node any discovered map offers."""
        self.queries += 1
        discovery = self.context.discover_at(location, max_distance_meters)
        targets = self.context.targets(discovery.server_ids)
        answers, served = self.context.fan_out(
            targets,
            lambda server: server.reverse_geocode(
                location, self.context.credential, max_distance_meters
            ),
        )
        candidates = [result for result in answers if result is not None]
        servers_consulted = len(targets)
        if self.world_provider is not None:
            self.context.charge_map_server_request()
            servers_consulted += 1
            try:
                result = self.world_provider.reverse_geocode(
                    location, self.context.credential, max_distance_meters
                )
                if result is not None:
                    candidates.append(result)
            except (AccessDenied, ServerOverloadedError):
                pass
        candidates.sort(key=lambda r: r.distance_meters)
        best = candidates[0] if candidates else None
        return FederatedReverseGeocodeResult(
            best=best,
            candidates=tuple(candidates),
            servers_consulted=servers_consulted,
            dns_lookups=discovery.dns_lookups,
            outcome=RequestOutcome.of(served, discovery),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _coarse_location(self, address: Address) -> LatLng | None:
        """Stage one: ask the world provider for a coarse location."""
        if self.world_provider is None:
            return None
        self.context.charge_map_server_request()
        try:
            results = self.world_provider.geocode(address, self.context.credential, limit=1)
        except (AccessDenied, ServerOverloadedError):
            return None
        if not results:
            return None
        return results[0].location

    @staticmethod
    def _dedupe(results: list[GeocodeResult]) -> list[GeocodeResult]:
        seen: set[tuple[str, int]] = set()
        unique: list[GeocodeResult] = []
        for result in results:
            key = (result.map_name, result.node_id)
            if key not in seen:
                seen.add(key)
                unique.append(result)
        return unique
