"""Fleet construction: one device object per simulated client, or per tracer.

:class:`FleetBuilder` turns a scenario and a :class:`WorkloadConfig` into
the list of :class:`FleetClient` devices the engine drives — every device
on the exact path, only each cohort's tracers on the cohort fast path
(:mod:`repro.workload.cohort`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.core.client import OpenFlameClient
from repro.geometry.point import LatLng
from repro.workload.cohort import Cohort, plan_cohorts
from repro.workload.config import WorkloadConfig, derived_seed_streams
from repro.workload.mobility import (
    AisleWalk,
    CommuterHandoff,
    CommuterTrace,
    MobilityModel,
    RandomWaypoint,
)
from repro.worldgen.scenario import FederatedScenario

TRACERS_PER_COHORT = 16
"""Fully simulated devices per cohort on the fast path.  Tracers keep their
true index-derived RNG streams and all individual state (caches,
replica-health memories, SRV views) — they are the slow-path escape hatch —
so more tracers buys fidelity at the cost of scale."""


@dataclass
class FleetClient:
    """One simulated device: client stack + mobility + its own RNG stream."""

    index: int
    client: OpenFlameClient
    mobility: MobilityModel
    rng: random.Random
    net_rng: random.Random | None = None
    """Jitter/loss RNG stream for this device's network exchanges (only set
    when the federation's latency model is stochastic)."""
    weight: int = 1
    """Devices this client stands for: 1 on the exact path; a tracer on the
    cohort fast path answers for itself plus ``weight - 1`` phantoms."""
    position: LatLng = field(init=False)

    def __post_init__(self) -> None:
        self.position = self.mobility.reset(self.rng)

    def advance(self) -> LatLng:
        self.position = self.mobility.step(self.rng)
        return self.position


@dataclass
class FleetBuilder:
    """Builds the fleet (and, on the fast path, plans its cohorts)."""

    scenario: FederatedScenario
    config: WorkloadConfig
    cohorts: list[Cohort] = field(default_factory=list)
    """The planned cohorts, tracers attached; empty on the exact path."""

    def _mobility_spec(self, index: int) -> tuple[str, int]:
        """Which mobility family (and store, for aisle walks) a device gets.

        Shared by both fleet builders so the cohort planner's equivalence
        classes are exactly the families the exact path would construct.
        """
        if self.scenario.stores and index % 3 == 1:
            return ("aisle", (index // 3) % len(self.scenario.stores))
        if index % 3 == 2:
            return ("trace" if self.config.long_traces else "commute", 0)
        return ("waypoint", 0)

    def _cohort_period(self, pool_count: int) -> int:
        """Index period of a device's cohort key ``(_mobility_spec(i), i % pool_count)``.

        ``_mobility_spec`` depends on ``i % 3`` and, for aisle walks, on
        ``(i // 3) % stores``, so it repeats every ``3 × stores`` indices
        (every 3 with no stores); the pool index repeats every
        ``pool_count``.  Kept beside ``_mobility_spec`` so the two change
        together.
        """
        return math.lcm(3 * max(1, len(self.scenario.stores)), pool_count)

    def _commute_routes(self) -> tuple[list[LatLng], list[LatLng]]:
        stores = self.scenario.stores
        city_bounds = self.scenario.city.bounds
        commute_stops = [store.entrance for store in stores[:2]]
        if len(commute_stops) < 2:
            commute_stops = [
                city_bounds.south_west,
                stores[0].entrance if stores else city_bounds.north_east,
            ]
        # Long traces tour the whole city: every store plus the far corners,
        # so a circuit crosses each coverage boundary and — with dwell —
        # outlives the registration TTLs.
        trace_stops = [store.entrance for store in stores] + [
            city_bounds.south_west,
            city_bounds.north_east,
        ]
        return commute_stops, trace_stops

    def _make_mobility(
        self,
        spec: tuple[str, int],
        commute_stops: list[LatLng],
        trace_stops: list[LatLng],
    ) -> MobilityModel:
        family, store_index = spec
        if family == "aisle":
            return AisleWalk(self.scenario.stores[store_index])
        if family == "trace":
            return CommuterTrace(
                list(trace_stops), dwell_steps=self.config.trace_dwell_steps
            )
        if family == "commute":
            return CommuterHandoff(list(commute_stops))
        return RandomWaypoint(self.scenario.city.bounds)

    def _make_device(
        self,
        index: int,
        pools,
        stochastic: bool,
        mobility: MobilityModel,
        weight: int = 1,
    ) -> FleetClient:
        seeds = derived_seed_streams(self.config.seed, index)
        return FleetClient(
            index=index,
            client=self.scenario.federation.client(
                stub_resolver=pools[index % len(pools)],
                # A distinct weighted-selection stream per device: replica
                # draws must not depend on fleet interleaving.
                selection_seed=seeds["selection"],
                backoff_seed=seeds["backoff"],
            ),
            mobility=mobility,
            rng=random.Random(seeds["base"]),
            # A distinct stream per device: network draws must not depend
            # on how the fleet's requests interleave.
            net_rng=random.Random(seeds["jitter"]) if stochastic else None,
            weight=weight,
        )

    def build_fleet(self, cohort_mode: bool) -> list[FleetClient]:
        federation = self.scenario.federation
        pools = federation.resolver_pool(self.config.resolver_pools)
        # Fault runs always get per-device jitter streams: a gray failure can
        # make a deterministic latency model draw loss mid-run, and those
        # draws must not depend on how the fleet's requests interleave.
        stochastic = (
            federation.network.latency.is_stochastic or self.config.faults is not None
        )
        commute_stops, trace_stops = self._commute_routes()
        if cohort_mode:
            return self._build_cohort_fleet(pools, stochastic, commute_stops, trace_stops)
        fleet: list[FleetClient] = []
        for index in range(self.config.clients):
            mobility = self._make_mobility(
                self._mobility_spec(index), commute_stops, trace_stops
            )
            fleet.append(self._make_device(index, pools, stochastic, mobility))
        return fleet

    def _cohort_assignment(self, index: int, pool_count: int) -> tuple[int, tuple, str]:
        spec = self._mobility_spec(index)
        pool_index = index % pool_count
        return index, (spec, pool_index), f"{spec[0]}{spec[1]}-pool{pool_index}"

    def plan(self, pool_count: int) -> list[Cohort]:
        """The fleet's cohorts, in ``O(period × TRACERS_PER_COHORT)`` time.

        A device's cohort key repeats with :meth:`_cohort_period` ``P``, so
        the first ``P × TRACERS_PER_COHORT`` indices hold every cohort's
        tracers and fix the cohorts' order and labels: ``plan_cohorts``
        runs over that head only.  Each residue class past the head then
        adds its remaining count to its cohort's population in one step.
        The result equals ``plan_cohorts`` over every index.
        """
        clients = self.config.clients
        period = self._cohort_period(pool_count)
        head = min(clients, period * TRACERS_PER_COHORT)
        cohorts = plan_cohorts(
            (self._cohort_assignment(index, pool_count) for index in range(head)),
            TRACERS_PER_COHORT,
        )
        by_key = {cohort.key: cohort for cohort in cohorts}
        for first in range(head, min(clients, head + period)):
            _, key, _ = self._cohort_assignment(first, pool_count)
            by_key[key].population += (clients - 1 - first) // period + 1
        return cohorts

    def _build_cohort_fleet(
        self,
        pools,
        stochastic: bool,
        commute_stops: list[LatLng],
        trace_stops: list[LatLng],
    ) -> list[FleetClient]:
        """Plan cohorts over the whole fleet, materialize only the tracers.

        A cohort is (mobility spec, resolver pool index): every device in it
        would be built from the same store/route/bounds and talk to the same
        shared resolver, so they differ only by RNG stream — exactly the
        statistical identity tracer sampling needs.  Device objects exist
        only for tracers, which is what makes million-client fleets
        affordable.
        """
        self.cohorts = self.plan(len(pools))
        fleet: list[FleetClient] = []
        for cohort in self.cohorts:
            spec, _pool_index = cohort.key
            weights = cohort.tracer_weights()
            for tracer_index, weight in zip(cohort.tracer_indices, weights):
                device = self._make_device(
                    tracer_index,
                    pools,
                    stochastic,
                    self._make_mobility(spec, commute_stops, trace_stops),
                    weight=weight,
                )
                cohort.tracers.append(device)
                fleet.append(device)
        # Fleet order (and thus every per-round interleaving) stays index
        # order regardless of how cohorts were discovered.
        fleet.sort(key=lambda device: device.index)
        return fleet
