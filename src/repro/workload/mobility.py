"""Mobility models for simulated client fleets.

Each model is a small deterministic state machine: given the same seed-derived
``random.Random`` it produces the same trajectory, which is what makes whole
workload runs reproducible.  Positions are geographic (:class:`LatLng`) so the
models compose directly with the client API regardless of whether the walk is
outdoors (random waypoint), inside one store (aisle walk) or between adjacent
map servers (commuter handoff).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.worldgen.indoor import IndoorWorld


class MobilityModel(Protocol):
    """A deterministic trajectory generator."""

    def reset(self, rng: random.Random) -> LatLng:
        """Start (or restart) the trajectory; returns the initial position."""
        ...

    def step(self, rng: random.Random) -> LatLng:
        """Advance one step and return the new position."""
        ...


def _toward(current: LatLng, target: LatLng, step_meters: float) -> LatLng:
    """Move up to ``step_meters`` from ``current`` toward ``target``."""
    distance = current.distance_to(target)
    if distance <= step_meters:
        return target
    return current.destination(current.initial_bearing_to(target), step_meters)


@dataclass
class RandomWaypoint:
    """Classic random-waypoint mobility across an outdoor region.

    The device picks a uniform random waypoint inside ``bounds``, walks toward
    it in ``step_meters`` increments, then picks the next waypoint.
    """

    bounds: BoundingBox
    step_meters: float = 40.0
    position: LatLng = field(init=False)
    _target: LatLng = field(init=False)

    def reset(self, rng: random.Random) -> LatLng:
        self.position = self._random_point(rng)
        self._target = self._random_point(rng)
        return self.position

    def step(self, rng: random.Random) -> LatLng:
        if self.position.distance_to(self._target) < 1.0:
            self._target = self._random_point(rng)
        self.position = _toward(self.position, self._target, self.step_meters)
        return self.position

    def _random_point(self, rng: random.Random) -> LatLng:
        return LatLng(
            rng.uniform(self.bounds.south, self.bounds.north),
            rng.uniform(self.bounds.west, self.bounds.east),
        )


@dataclass
class AisleWalk:
    """Indoor shopping mobility: entrance → shelf → shelf … inside one store.

    Targets are the store's stocked shelf locations, so the walk visits the
    same places localization fingerprints and product search results live.
    """

    store: IndoorWorld
    step_meters: float = 3.0
    position: LatLng = field(init=False)
    _target: LatLng = field(init=False)
    _shelves: list[LatLng] = field(init=False)

    def __post_init__(self) -> None:
        self._shelves = [
            self.store.product_locations[name]
            for name in sorted(self.store.product_locations)
        ]

    def reset(self, rng: random.Random) -> LatLng:
        self.position = self.store.entrance
        self._target = self._random_shelf(rng)
        return self.position

    def step(self, rng: random.Random) -> LatLng:
        if self.position.distance_to(self._target) < 0.5:
            self._target = self._random_shelf(rng)
        self.position = _toward(self.position, self._target, self.step_meters)
        return self.position

    def _random_shelf(self, rng: random.Random) -> LatLng:
        if not self._shelves:
            return self.store.entrance
        return self._shelves[rng.randrange(len(self._shelves))]


@dataclass
class CommuterTrace:
    """A scripted multi-stop commute with dwell time: journeys that outlive TTLs.

    :class:`CommuterHandoff` ping-pongs fast enough that a device usually
    crosses a coverage boundary with its caches still warm.  Real commutes
    are slower: walk to the station, dwell, ride across town, dwell again —
    by the time the commuter re-enters a zone its discovery records, device
    cache entries and even the servers' registrations may have expired.
    ``dwell_steps`` holds the device at each stop for that many steps, so
    with the workload engine's ``step_seconds`` pacing a full circuit spans
    ``(travel + dwell) * stops`` simulated seconds — configure it longer
    than the registration TTL and every lap exercises the gone-stale path:
    re-resolution, renewed discovery traffic, and (under churn) stale
    records for servers that died while the commuter was across town.
    """

    stops: list[LatLng]
    dwell_steps: int = 4
    step_meters: float = 60.0
    position: LatLng = field(init=False)
    _next_stop: int = field(init=False, default=1)
    _dwell_remaining: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if len(self.stops) < 2:
            raise ValueError("a commute trace needs at least two stops")
        if self.dwell_steps < 0:
            raise ValueError("dwell steps cannot be negative")

    def reset(self, rng: random.Random) -> LatLng:
        self.position = self.stops[0]
        self._next_stop = 1
        self._dwell_remaining = self.dwell_steps
        return self.position

    def step(self, rng: random.Random) -> LatLng:
        if self._dwell_remaining > 0:
            self._dwell_remaining -= 1
            return self.position
        target = self.stops[self._next_stop]
        self.position = _toward(self.position, target, self.step_meters)
        if self.position.distance_to(target) < 1.0:
            self._next_stop = (self._next_stop + 1) % len(self.stops)
            self._dwell_remaining = self.dwell_steps
        return self.position


@dataclass
class CommuterHandoff:
    """Back-and-forth commute between fixed stops (e.g. two store entrances).

    Walking the leg between stops crosses the coverage boundary between
    adjacent map servers, which is exactly the discovery-handoff case the
    federated client must keep consistent.
    """

    stops: list[LatLng]
    step_meters: float = 30.0
    position: LatLng = field(init=False)
    _next_stop: int = field(init=False, default=1)

    def __post_init__(self) -> None:
        if len(self.stops) < 2:
            raise ValueError("a commute needs at least two stops")

    def reset(self, rng: random.Random) -> LatLng:
        self.position = self.stops[0]
        self._next_stop = 1
        return self.position

    def step(self, rng: random.Random) -> LatLng:
        target = self.stops[self._next_stop]
        self.position = _toward(self.position, target, self.step_meters)
        if self.position.distance_to(target) < 1.0:
            self._next_stop = (self._next_stop + 1) % len(self.stops)
        return self.position
