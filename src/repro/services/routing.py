"""Federated routing with client-side stitching.

Section 5.2 (Routing): "The client first obtains the location of the source
and destination addresses using the Geocode service... Then it discovers all
the map servers that lie along the way from the source to the destination.
Each map server would calculate the route that is relevant for the region
that they cover.  The client would collect paths from all relevant map
servers, and stitch them together such that the final path optimizes a metric
of interest."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng
from repro.mapserver.server import MapServer
from repro.osm.mapdata import MapData
from repro.routing.stitching import (
    EndpointGaps,
    RouteLeg,
    RouteStitcher,
    StitchedRoute,
    StitchError,
)
from repro.services.context import FederationContext
from repro.services.failover import RequestTarget, TargetUnavailableError


def _entrances_of(map_data: MapData) -> tuple[LatLng, ...]:
    """Where a map's ``entrance`` nodes are: every leg request clamps both
    endpoints to the serving map, and finding them is a scan of its nodes."""
    return tuple(node.location for node in map_data.find_nodes_by_tag("entrance"))


class FederatedRoutingError(Exception):
    """Raised when no combination of discovered servers can serve the route."""


@dataclass(frozen=True, slots=True)
class FederatedRouteResult:
    """A stitched end-to-end route plus federation bookkeeping."""

    route: StitchedRoute
    servers_consulted: int
    legs_used: int
    dns_lookups: int

    @property
    def length_meters(self) -> float:
        return self.route.length_meters()

    @property
    def servers(self) -> tuple[str, ...]:
        return self.route.servers


@dataclass
class FederatedRouter:
    """Plans multi-map routes by delegating legs to map servers and stitching."""

    context: FederationContext
    stitcher: RouteStitcher = field(default_factory=lambda: RouteStitcher(max_gap_meters=200.0))
    corridor_meters: float = 250.0
    queries: int = field(default=0, init=False)

    def route(
        self,
        origin: LatLng,
        destination: LatLng,
        metric: str = "distance",
        waypoints: list[LatLng] | None = None,
    ) -> FederatedRouteResult:
        """Compute a stitched route from ``origin`` to ``destination``.

        ``waypoints`` (if given) refine discovery along the way — typically
        the coarse outdoor route's points, which is how the grocery-store
        scenario discovers both the city map and the store map.
        """
        self.queries += 1
        probe_points = [origin, destination] + list(waypoints or [])
        discovery = self.context.discover_along(probe_points, self.corridor_meters)
        targets = self.context.targets(discovery.server_ids)
        if not targets:
            raise FederatedRoutingError("discovery found no map servers along the route")

        legs, servers_consulted = self._collect_legs(targets, origin, destination, metric)
        if not legs:
            raise FederatedRoutingError("no discovered map server could compute a route leg")

        stitched = self._stitch_best(origin, destination, legs)
        return FederatedRouteResult(
            route=stitched,
            servers_consulted=servers_consulted,
            legs_used=len(stitched.legs),
            dns_lookups=discovery.dns_lookups,
        )

    # ------------------------------------------------------------------
    # Leg collection
    # ------------------------------------------------------------------
    def _collect_legs(
        self,
        targets: list[RequestTarget],
        origin: LatLng,
        destination: LatLng,
        metric: str,
    ) -> tuple[list[RouteLeg], int]:
        """Ask every relevant target for the part of the route it can serve.

        Each server routes between the origin/destination clamped to its own
        coverage (clamping happens per replica, inside the failover chain);
        servers covering neither endpoint nor anything in between return
        nothing useful and are dropped.
        """

        def route_leg(server: MapServer):
            leg_origin = self._clamp_to_coverage(server, origin)
            leg_destination = self._clamp_to_coverage(server, destination)
            response = server.route(leg_origin, leg_destination, self.context.credential, metric)
            if response is None or len(response.points) < 2:
                return None
            return response.as_leg(server.server_id)

        legs: list[RouteLeg] = []
        consulted = 0
        for target in targets:
            consulted += 1
            try:
                leg = self.context.request(target, route_leg)
            except TargetUnavailableError:
                continue
            if leg is not None:
                legs.append(leg)
        return legs, consulted

    @staticmethod
    def _clamp_to_coverage(server: MapServer, point: LatLng) -> LatLng:
        """Move a point outside the server's coverage to its hand-over point.

        The hand-over point where one server's leg ends and the next begins is
        the map's nearest *entrance* when it declares one (the storefront of
        the Section 2 walkthrough — an indoor leg must start at a door, not at
        whichever shelf happens to be closest to the street), falling back to
        the nearest node otherwise.  The containment test uses the map's exact
        coverage polygon: a point on the sidewalk just outside the store must
        still be routed via the entrance, not teleported through the wall.
        """
        if server.map_data.covers_point(point):
            return point
        entrances = server.map_data.derive("entrances", _entrances_of)
        if entrances:
            return min(entrances, key=point.distance_to)
        nearest = server.map_data.nearest_nodes(point, count=1)
        return nearest[0].location if nearest else point

    # ------------------------------------------------------------------
    # Stitching
    # ------------------------------------------------------------------
    def _stitch_best(
        self, origin: LatLng, destination: LatLng, legs: list[RouteLeg]
    ) -> StitchedRoute:
        """Stitch the legs, dropping redundant ones if the full set fails.

        Overlapping maps can produce redundant legs (two servers covering the
        same stretch); when stitching the full set fails or is clearly
        suboptimal, subsets ordered by leg cost are tried.
        """
        gaps = EndpointGaps(origin, destination, legs)
        count = len(legs)
        if count <= 5:
            # Overlap between maps keeps the leg count small, so the subset
            # space can be searched exhaustively.
            subsets = [
                [index for index in range(count) if mask & (1 << index)]
                for mask in range(1, 1 << count)
            ]
        else:
            by_cost = sorted(range(count), key=lambda index: legs[index].cost)
            subsets = [list(range(count))]
            subsets.extend(by_cost[:size] for size in range(1, count + 1))

        # Every subset joins the same few endpoints, so all of them — and the
        # scoring below — read one table in which each gap is measured once.
        candidates: list[tuple[StitchedRoute, int, int]] = []
        for subset in subsets:
            try:
                candidates.append(self.stitcher.join(gaps, subset))
            except StitchError:
                continue

        if not candidates:
            raise FederatedRoutingError(
                "could not stitch any combination of route legs into a continuous route"
            )

        # Prefer routes that actually arrive at the endpoints: a route whose
        # last leg ends at the storefront but not at the shelf is worse than a
        # slightly longer route that reaches the shelf, so the gap between the
        # stitched legs and the requested endpoints is penalised heavily.
        def score(candidate: tuple[StitchedRoute, int, int]) -> float:
            route, first_point, last_point = candidate
            start_gap = gaps.between(0, first_point)
            end_gap = gaps.between(1, last_point)
            return route.total_cost + 10.0 * (start_gap + end_gap)

        return min(candidates, key=score)[0]
