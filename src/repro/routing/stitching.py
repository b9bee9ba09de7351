"""Client-side stitching of per-server partial routes.

Section 5.2 (Routing): "Each map server would calculate the route that is
relevant for the region that they cover.  The client would collect paths from
all relevant map servers, and stitch them together such that the final path
optimizes a metric of interest."

A :class:`RouteStitcher` takes partial routes expressed as geographic
polylines (so that routes computed in different maps/frames can be combined)
and joins them at their nearest endpoints, inserting connector segments where
two servers' coverage meets (e.g. the storefront where the city map hands
over to the grocery store map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.geometry.point import LatLng
from repro.simulation.metrics import float_sum


@dataclass(frozen=True, slots=True)
class RouteLeg:
    """A partial route computed by one map server."""

    server_id: str
    points: tuple[LatLng, ...]
    cost: float
    metric: str = "distance"

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError("a route leg needs at least one point")

    @property
    def start(self) -> LatLng:
        return self.points[0]

    @property
    def end(self) -> LatLng:
        return self.points[-1]

    def length_meters(self) -> float:
        return float_sum(a.distance_to(b) for a, b in zip(self.points, self.points[1:]))


@dataclass(frozen=True, slots=True)
class StitchedRoute:
    """The final end-to-end route presented to the application."""

    points: tuple[LatLng, ...]
    legs: tuple[RouteLeg, ...]
    connector_meters: float
    total_cost: float

    def length_meters(self) -> float:
        return float_sum(a.distance_to(b) for a, b in zip(self.points, self.points[1:]))

    @property
    def servers(self) -> tuple[str, ...]:
        return tuple(leg.server_id for leg in self.legs)


class StitchError(Exception):
    """Raised when legs cannot be combined into a continuous route."""


class EndpointGaps:
    """Great-circle gaps between the endpoints of one route's legs.

    Stitching only ever measures between the origin, the destination and the
    legs' two ends, so one table serves every subset of the legs that is
    tried: point 0 is the origin, point 1 the destination, and points
    ``2 + 2i`` / ``3 + 2i`` are leg ``i``'s start and end.  A pair is measured
    on first use and kept, whichever way round it is asked for — the
    haversine is symmetric to the bit (the differences negate exactly, the
    sines of them are squared, the cosines commute).
    """

    __slots__ = ("legs", "points", "_known")

    def __init__(self, origin: LatLng, destination: LatLng, legs: Sequence[RouteLeg]) -> None:
        self.legs = legs
        self.points = [origin, destination]
        for leg in legs:
            self.points += (leg.points[0], leg.points[-1])
        self._known: dict[tuple[int, int], float] = {}

    def between(self, a: int, b: int) -> float:
        pair = (a, b) if a < b else (b, a)
        gap = self._known.get(pair)
        if gap is None:
            gap = self._known[pair] = self.points[a].distance_to(self.points[b])
        return gap


@dataclass
class RouteStitcher:
    """Greedy nearest-endpoint stitcher.

    ``max_gap_meters`` bounds how far apart two legs' endpoints may be and
    still be considered joinable (the handover region); larger gaps mean the
    servers' coverages do not actually meet and stitching fails loudly.
    """

    max_gap_meters: float = 150.0

    def __post_init__(self) -> None:
        # ``gap > nan`` is false: a NaN bound would join legs a continent apart.
        if not (0.0 <= self.max_gap_meters < math.inf):
            raise ValueError(f"max_gap_meters must be finite and >= 0, got {self.max_gap_meters}")

    def stitch(
        self,
        origin: LatLng,
        destination: LatLng,
        legs: list[RouteLeg],
    ) -> StitchedRoute:
        """Order and join ``legs`` into a continuous origin→destination route."""
        return self.join(EndpointGaps(origin, destination, legs), range(len(legs)))[0]

    def join(self, gaps: EndpointGaps, subset: Sequence[int]) -> tuple[StitchedRoute, int, int]:
        """Stitch the legs of ``gaps`` picked by ``subset`` (leg indices, in
        the order they would be handed to :meth:`stitch`).

        Also returns the points (indices into ``gaps.points``) the stitched
        route's first leg starts at and its last leg ends at, so a caller
        ranking several subsets can read their gaps to the requested
        endpoints off the same table.
        """
        if not subset:
            raise StitchError("no route legs to stitch")

        between = gaps.between
        remaining = list(subset)
        ordered: list[RouteLeg] = []
        first_point = current = 0
        connector = 0.0

        while remaining:
            # The leg whose start (or end, if reversed) is nearest to the
            # current point; the first one tried wins a tie.
            best, best_reversed, best_gap = remaining[0], False, math.inf
            for index in remaining:
                start = 2 + 2 * index
                gap_forward = between(current, start)
                gap_backward = between(current, start + 1)
                if gap_forward < best_gap:
                    best, best_reversed, best_gap = index, False, gap_forward
                if gap_backward < best_gap:
                    best, best_reversed, best_gap = index, True, gap_backward
            if best_gap > self.max_gap_meters:
                raise StitchError(
                    f"gap of {best_gap:.1f} m to the nearest remaining leg exceeds "
                    f"max_gap_meters={self.max_gap_meters}"
                )
            remaining.remove(best)
            leg = gaps.legs[best]
            entered, left = 2 + 2 * best, 3 + 2 * best
            if best_reversed:
                leg = RouteLeg(leg.server_id, tuple(reversed(leg.points)), leg.cost, leg.metric)
                entered, left = left, entered
            if not ordered:
                first_point = entered
            ordered.append(leg)
            connector += best_gap
            current = left

        final_gap = between(current, 1)
        if final_gap > self.max_gap_meters:
            raise StitchError(
                f"stitched route ends {final_gap:.1f} m from the destination "
                f"(max allowed {self.max_gap_meters})"
            )
        connector += final_gap

        origin, destination = gaps.points[0], gaps.points[1]
        points: list[LatLng] = [origin]
        for leg in ordered:
            if points[-1] != leg.start:
                points.append(leg.start)
            points.extend(leg.points[1:] if leg.points[0] == points[-1] else leg.points)
        if points[-1] != destination:
            points.append(destination)

        total_cost = float_sum(leg.cost for leg in ordered) + connector
        return StitchedRoute(tuple(points), tuple(ordered), connector, total_cost), first_point, current
