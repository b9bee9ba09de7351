"""The correlated-disaster scenario library.

Each :class:`DisasterSpec` is a complete, named, deterministic incident:
a world (the standard two-store replicated city), a fleet workload, a
:class:`~repro.faults.schedule.FaultPlan` tape (plus, for one scenario, a
conflicting operator :class:`~repro.control.schedule.ControlSchedule`),
and *acceptance bands* — the availability/latency envelope a resilient
client stack must stay inside while the disaster plays out.

The five disasters cover the correlated-failure families the fault
subsystem models:

* ``regional-outage`` — every store's replica 0 drops off the network at
  once (a rack loses its uplink); clients must fail over to replica 1
  and keep failed requests near zero.
* ``stadium-flash-crowd`` — external demand slams store 0's replicas
  with more arrivals than their queues admit; the overload must shed
  load server-side without collapsing fleet-wide availability.
* ``authority-outage`` — the discovery DNS authority goes dark for two
  minutes; warm devices must coast on stale-while-unreachable cached SRV
  views (bounded by ``stale_serve_max_ms``) and recover after it returns.
* ``asymmetric-partition`` — region 0 loses its path to store 0's
  replica 0 while operators, blind to the partition, drain replica 1 for
  maintenance; region-0 clients must still find service.
* ``rolling-gray`` — a bad kernel marches across the replica fleet: each
  replica rank in turn answers 8x slower and drops a third of its
  packets (bounded retransmits); tail latency inflates but requests
  must keep succeeding.

``benchmarks/bench_e17_faults.py`` runs every scenario twice — fault-free
baseline and faulted — and gates the band checks byte-for-byte via
``BENCH_e17.json``.  Everything is deterministic: tapes are plain data
and every RNG stream is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.churn.retry import RetryPolicy
from repro.control.schedule import ControlSchedule
from repro.core.config import FederationConfig
from repro.faults.schedule import FaultPlan
from repro.simulation.queueing import ServiceTimeModel
from repro.workload.config import WorkloadConfig
from repro.workload.report import WorkloadReport
from repro.worldgen.scenario import FederatedScenario, build_scenario

WORLD_SEED = 33
WORKLOAD_SEED = 7
STORE_COUNT = 2
STORE_REPLICAS = 2
STEP_SECONDS = 20.0
"""Long rounds (as in E14): a 10-step run spans >3 simulated minutes, so
fault windows, cache TTLs and health cooldowns all get room to play out."""

SERVICE_TIMES = ServiceTimeModel(
    default_ms=2.0,
    per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.5},
)
SERVER_QUEUE_CAPACITY = 256

RETRY_POLICY = RetryPolicy.full_jitter()
"""Full-jitter backoff with escalating per-attempt timeouts: the policy
built for correlated failures, where deterministic backoff synchronizes a
whole region's retry storm against the surviving replica."""


@dataclass(frozen=True)
class DisasterSpec:
    """One named disaster: world + workload + fault tape + acceptance bands."""

    name: str
    title: str
    description: str
    plan: Callable[[FederatedScenario], FaultPlan]
    """Builds the scenario's fault tape against a concrete world (tapes
    name server ids, which only exist once the world is built)."""
    bands: dict[str, tuple[float | None, float | None]]
    """Acceptance envelope: metric name -> (min, max), ``None`` = unbounded.
    Checked against :func:`scenario_metrics` of a baseline+faulted pair."""
    control: Callable[[FederatedScenario], ControlSchedule | None] = lambda _: None
    """Optional operator tape played *alongside* the disaster (the
    asymmetric-partition scenario's conflicting drain)."""
    clients: int = 24
    steps: int = 10
    resolver_pools: int = 2
    """Client regions: region = device index mod pools, the side a
    region-scoped partition cuts."""
    device_cache_ttl_seconds: float = 120.0
    registration_ttl_seconds: float = 3600.0
    stale_serve_max_ms: float = 0.0
    """How long past expiry a cached SRV view may serve when live
    discovery fails (graceful degradation; 0 disables)."""

    def federation_config(self) -> FederationConfig:
        return FederationConfig(
            device_discovery_cache_ttl_seconds=self.device_cache_ttl_seconds,
            registration_ttl_seconds=self.registration_ttl_seconds,
            client_tile_cache_entries=256,
            service_times=SERVICE_TIMES,
            server_queue_capacity=SERVER_QUEUE_CAPACITY,
            retry_policy=RETRY_POLICY,
            stale_serve_max_ms=self.stale_serve_max_ms,
        )

    def build(self) -> FederatedScenario:
        """The scenario's world: the standard two-store replicated city."""
        return build_scenario(
            store_count=STORE_COUNT,
            city_rows=5,
            city_cols=5,
            config=self.federation_config(),
            seed=WORLD_SEED,
            reuse_worlds=True,
            store_replicas=STORE_REPLICAS,
        )

    def workload(self, scenario: FederatedScenario, faulted: bool) -> WorkloadConfig:
        """The fleet config; ``faulted=False`` is the fault-free baseline."""
        return WorkloadConfig(
            clients=self.clients,
            steps=self.steps,
            seed=WORKLOAD_SEED,
            step_seconds=STEP_SECONDS,
            resolver_pools=self.resolver_pools,
            faults=self.plan(scenario) if faulted else None,
            control=self.control(scenario) if faulted else None,
        )


def scenario_metrics(
    baseline: WorkloadReport, faulted: WorkloadReport
) -> dict[str, float]:
    """The flat metric dict a scenario's acceptance bands are checked on."""
    base_avail = baseline.availability()
    fault_avail = faulted.availability()
    base_p95 = baseline.latency_percentiles()["p95"]
    fault_p95 = faulted.latency_percentiles()["p95"]
    total = faulted.requests + faulted.errors
    return {
        "baseline_failed_rate": base_avail["failed_request_rate"],
        "baseline_dropped": float(baseline.dropped_requests),
        "baseline_p95_ms": base_p95,
        "failed_rate": fault_avail["failed_request_rate"],
        "availability": 1.0 - fault_avail["failed_request_rate"],
        "failovers": fault_avail["failovers"],
        "p95_ms": fault_p95,
        "p95_inflation": fault_p95 / base_p95 if base_p95 > 0.0 else 0.0,
        "dropped_requests": float(faulted.dropped_requests),
        "degraded_rate": faulted.degraded_requests / total if total else 0.0,
        "stale_serves": faulted.fault_stats.get("stale_serves", 0.0),
        "events_applied": faulted.fault_stats.get("events_applied", 0.0),
        "control_events": faulted.control_stats.get("events_applied", 0.0),
    }


def check_bands(spec: DisasterSpec, metrics: dict[str, float]) -> list[str]:
    """Every band violation, as human-readable failure strings."""
    failures: list[str] = []
    for metric, (low, high) in sorted(spec.bands.items()):
        value = metrics.get(metric)
        if value is None:
            failures.append(f"{spec.name}: metric {metric!r} was not measured")
            continue
        if low is not None and value < low:
            failures.append(
                f"{spec.name}: {metric}={value:.4f} below acceptance band "
                f"minimum {low:.4f}"
            )
        if high is not None and value > high:
            failures.append(
                f"{spec.name}: {metric}={value:.4f} above acceptance band "
                f"maximum {high:.4f}"
            )
    return failures


# ----------------------------------------------------------------------
# The disasters
# ----------------------------------------------------------------------
def _first_replicas(scenario: FederatedScenario, rank: int = 0) -> tuple[str, ...]:
    """Replica ``rank`` of every store, in store order."""
    return tuple(
        scenario.store_replica_ids(index)[rank]
        for index in range(len(scenario.stores))
    )


def _regional_outage_plan(scenario: FederatedScenario) -> FaultPlan:
    # One rack hosts every store's replica 0; its uplink dies at t=45 and
    # comes back at t=145 (rounds ~3..7 of a 10-round run).
    return FaultPlan.partition(_first_replicas(scenario, 0), 45.0, 145.0)


def _flash_crowd_plan(scenario: FederatedScenario) -> FaultPlan:
    # The stadium next to store 0 fills: 300 extra search arrivals per
    # replica per round — past the 256-job queue, so load *must* shed.
    return FaultPlan.flash_crowd(
        tuple(scenario.store_replica_ids(0)), 45.0, 145.0, extra_load=300
    )


def _authority_outage_plan(scenario: FederatedScenario) -> FaultPlan:
    # The discovery authority goes dark for two minutes; with a 30s device
    # cache and 60s DNS record TTL, every cache layer expires mid-outage
    # and only the stale-serve grace keeps warm devices answering.
    return FaultPlan.authority_outage(45.0, 165.0)


def _asymmetric_partition_plan(scenario: FederatedScenario) -> FaultPlan:
    # Region 0 (even devices) loses its route to store 0's replica 0...
    return FaultPlan.partition(
        (scenario.store_replica_ids(0)[0],), 45.0, 145.0, regions=(0,)
    )


def _asymmetric_partition_control(scenario: FederatedScenario) -> ControlSchedule:
    # ...while operators, blind to the partition, drain replica 1 for
    # maintenance over the same window — the conflicting-action incident.
    return ControlSchedule.drain_window(scenario.store_replica_ids(0)[1], 45.0, 145.0)


def _rolling_gray_plan(scenario: FederatedScenario) -> FaultPlan:
    # A bad kernel rolls across the replica fleet, one rank at a time:
    # 12x latency and 35% loss (bounded retransmits) for a minute each.
    plan = FaultPlan()
    start = 45.0
    for rank in range(STORE_REPLICAS):
        plan = plan + FaultPlan.gray(
            _first_replicas(scenario, rank),
            start,
            start + 60.0,
            latency_multiplier=12.0,
            loss_probability=0.35,
        )
        start += 60.0
    return plan


SCENARIOS: tuple[DisasterSpec, ...] = (
    DisasterSpec(
        name="regional-outage",
        title="Full regional outage with cross-pool failover",
        description="Every store's replica 0 is cut from all client "
        "regions for 100s; clients must fail over to replica 1.",
        plan=_regional_outage_plan,
        bands={
            "baseline_failed_rate": (None, 0.01),
            "failed_rate": (None, 0.05),
            "availability": (0.95, None),
            "failovers": (1.0, None),
            "events_applied": (2.0, None),
        },
    ),
    DisasterSpec(
        name="stadium-flash-crowd",
        title="Stadium flash crowd overloads one store",
        description="External demand slams store 0's replicas with 300 "
        "extra search arrivals per round, past queue capacity.",
        plan=_flash_crowd_plan,
        bands={
            "baseline_dropped": (None, 0.0),
            "dropped_requests": (1.0, None),
            "failed_rate": (None, 0.25),
            "events_applied": (2.0, None),
        },
    ),
    DisasterSpec(
        name="authority-outage",
        title="DNS authority outage with cache coasting",
        description="The discovery authority is dark for 120s; warm "
        "devices coast on stale-while-unreachable cached SRV views.",
        plan=_authority_outage_plan,
        device_cache_ttl_seconds=30.0,
        registration_ttl_seconds=60.0,
        stale_serve_max_ms=60_000.0,
        bands={
            "baseline_failed_rate": (None, 0.01),
            "stale_serves": (1.0, None),
            "degraded_rate": (0.001, None),
            "failed_rate": (None, 0.5),
            "events_applied": (2.0, None),
        },
    ),
    DisasterSpec(
        name="asymmetric-partition",
        title="Asymmetric partition with conflicting operator drains",
        description="Region 0 loses store 0's replica 0 while operators "
        "drain the healthy replica 1 for maintenance.",
        plan=_asymmetric_partition_plan,
        control=_asymmetric_partition_control,
        bands={
            "failed_rate": (None, 0.1),
            "failovers": (1.0, None),
            "control_events": (1.0, None),
            "events_applied": (2.0, None),
        },
    ),
    DisasterSpec(
        name="rolling-gray",
        title="Rolling gray failure across the replica fleet",
        description="Each replica rank in turn answers 12x slower with "
        "35% loss for 60s; bounded retransmits keep requests succeeding.",
        plan=_rolling_gray_plan,
        bands={
            "failed_rate": (None, 0.1),
            "p95_inflation": (1.5, None),
            "events_applied": (4.0, None),
        },
    ),
)


def get_scenario(name: str) -> DisasterSpec:
    for spec in SCENARIOS:
        if spec.name == name:
            return spec
    known = ", ".join(spec.name for spec in SCENARIOS)
    raise KeyError(f"unknown disaster scenario {name!r}; known: {known}")
