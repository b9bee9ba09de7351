"""Federated forward and reverse geocoding.

Section 5.2 (Geocode): "Given a text string of a hierarchical address, the
client first uses the geocode service of a large world-map provider to get
the coarse location of a part of the address.  The client then discovers
finer map servers in the coarse location which search in their own maps for
the exact address."

The "large world-map provider" role is played by any map server designated as
the *world provider* (in our scenarios, the city-scale outdoor map).  It is
asked by id through the same targets and failover as every discovered server,
so a crashed or partitioned-away provider answers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.geometry.point import LatLng
from repro.mapserver.geocode import Address, GeocodeResult, ReverseGeocodeResult
from repro.mapserver.server import MapServer
from repro.services.context import FederationContext, RequestOutcome

T = TypeVar("T")

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
    world_provider_id: str | None = None
    queries: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # Forward geocode
    # ------------------------------------------------------------------
    def geocode(self, address: Address, limit: int = 5) -> FederatedGeocodeResult:
        """Resolve a textual address to precise candidates across the federation."""
        self.queries += 1
        credential = self.context.credential
        coarse_answers, coarse_served, _ = self._ask_world(
            lambda server: server.geocode(address, credential, limit=1)
        )
        coarse = next((results[0].location for results in coarse_answers if results), None)
        discovery = None
        answers: list[list[GeocodeResult]] = []
        served, servers_consulted = True, 0
        if coarse is not None:
            discovery = self.context.discover_at(coarse, GEOCODE_DISCOVERY_RADIUS_METERS)
            targets = self.context.targets(discovery.server_ids)
            answers, served = self.context.fan_out(targets, lambda server: server.geocode(address, credential, limit))
            servers_consulted = len(targets)
        # Fall back to (or augment with) the world provider's own answers.
        world_answers, world_served, world_consulted = self._ask_world(
            lambda server: server.geocode(address, credential, limit)
        )

        deduped = self._dedupe([result for results in answers + world_answers for result in results])
        deduped.sort(key=lambda r: r.score, reverse=True)
        best = deduped[0] if deduped else None
        return FederatedGeocodeResult(
            best=best,
            candidates=tuple(deduped[:limit]),
            coarse_location=coarse,
            servers_consulted=servers_consulted + world_consulted,
            dns_lookups=discovery.dns_lookups if discovery is not None else 0,
            # Served as one fan-out over all three asks (see RequestOutcome).
            outcome=RequestOutcome.of(
                bool(coarse_answers or answers or world_answers) or (coarse_served and served and world_served),
                discovery,
            ),
        )

    # ------------------------------------------------------------------
    # Reverse geocode
    # ------------------------------------------------------------------
    def reverse_geocode(
        self, location: LatLng, max_distance_meters: float = 250.0
    ) -> FederatedReverseGeocodeResult:
        """Snap a location to the most precise node any discovered map offers."""
        self.queries += 1
        credential = self.context.credential
        discovery = self.context.discover_at(location, max_distance_meters)
        targets = self.context.targets(discovery.server_ids)
        answers, served = self.context.fan_out(
            targets,
            lambda server: server.reverse_geocode(location, credential, max_distance_meters),
        )
        world_answers, world_served, world_consulted = self._ask_world(
            lambda server: server.reverse_geocode(location, credential, max_distance_meters)
        )
        candidates = [result for result in answers + world_answers if result is not None]
        candidates.sort(key=lambda r: r.distance_meters)
        best = candidates[0] if candidates else None
        return FederatedReverseGeocodeResult(
            best=best,
            candidates=tuple(candidates),
            servers_consulted=len(targets) + world_consulted,
            dns_lookups=discovery.dns_lookups,
            outcome=RequestOutcome.of(bool(answers or world_answers) or (served and world_served), discovery),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ask_world(self, operation: Callable[[MapServer], T]) -> tuple[list[T], bool, int]:
        """One ask of the world provider, by id, as a one-target fan-out.

        ``(answers, served, targets)``: the provider's answer as a list
        (empty when there is no world provider, it is not a target — crashed,
        with no retry policy to time out on — or its chain failed), whether
        the ask served in :meth:`FederationContext.fan_out`'s sense, and how
        many targets it asked (0 or 1).
        """
        if self.world_provider_id is None:
            return [], True, 0
        targets = self.context.targets([self.world_provider_id])
        answers, served = self.context.fan_out(targets, operation)
        return answers, served, len(targets)

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

