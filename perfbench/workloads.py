"""The four perfbench workloads: inputs from a seed, set-up, timed section.

Each workload is a function ``(seed, quick) -> Prepared``.  Calling it is
the *set-up* (world generation, tape construction, engine or client
construction — what ``setup_s`` measures); ``Prepared.run()`` is the *timed
section* (``engine.run()`` or the request loop, nothing else) and
``Prepared.collect()`` turns what it returned into an :class:`Outcome`:
the simulated results, the layers' public counters and any output check
that did not hold.

Why these four (the table in ``perfbench/README.md`` has the long form):

* ``fleet_cohort`` — the cohort fast path at 200k clients: the batched
  queue model (``ServerQueue.phantom_arrivals``) is most of the run, the
  service internals almost none of it.
* ``fleet_exact`` — the exact per-device path below the saturation knee:
  time is spread over discovery/DNS/map-server internals, queueing is a
  few percent.  The opposite split of ``fleet_cohort``.
* ``fleet_chaos`` — the same engine with every tape, telemetry, the
  autoscaler and the operator API on: the only workload on which those
  layers make any call.
* ``request_direct`` — one ``OpenFlameClient``, no engine, no queues, no
  caches: a pure engine/queue optimisation must not move it at all.

The program is driven only through package-level public names; nothing
under ``src/`` knows the benchmark exists.  The world seed is fixed; the
workload seed is the only thing that changes generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.autoscale import AutoscalerConfig
from repro.churn import ChurnSchedule, RetryPolicy
from repro.control import ControlEvent, ControlEventKind, ControlSchedule
from repro.core import FederationConfig
from repro.faults import FaultPlan
from repro.geometry import BoundingBox
from repro.operator import OperatorConfig
from repro.simulation import ServiceTimeModel, percentile
from repro.telemetry import SLOConfig, TelemetryConfig
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen import build_scenario

WORLD_SEED = 33

SERVICE_TIMES = ServiceTimeModel(
    default_ms=2.0,
    per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.5},
)
"""E13's per-request service times, so saturation here composes with the
committed E13–E20 artifacts."""


REQUEST_KINDS = ("search", "route", "tiles", "localize", "geocode")


@dataclass
class Outcome:
    """What one timed section produced."""

    failed: int
    """Operations the simulator could not carry out (it raised).  A
    *simulated* refusal — a shed or unreachable request — is a simulated
    result and is counted in ``failed_share`` instead."""
    sim: dict[str, float]
    """Simulated results by metric name: ``sim_p50_ms``, ``sim_p95_ms``,
    ``failed_share``."""
    sim_digest: str
    counters: dict[str, float]
    """Per-layer counters read from the layers' public stats."""
    problems: list[str] = field(default_factory=list)
    """Output checks that did not hold (empty on a correct run)."""
    host_us: dict[str, float] = field(default_factory=dict)
    """``request_direct`` only: host microseconds per request as the driver
    itself timed them (``core.<kind>_p50_us``, ``core.req_p50/p90/p99_us``)."""


@dataclass
class Prepared:
    """A workload after set-up, ready for its timed section."""

    ops: int
    """Operations the timed section attempts: client-steps on the fleet
    workloads, requests on ``request_direct``."""
    run: Callable[[], object]
    collect: Callable[[object], Outcome]
    timings: dict[str, float]
    """Set-up phases in host seconds (``worldgen.build_s``,
    ``workload.fleet_build_s``)."""


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
def _prepare_fleet(
    world: dict[str, object],
    workload: Callable[[object], WorkloadConfig],
    check: Callable[[WorkloadEngine, object], list[str]] | None = None,
) -> Prepared:
    started = time.perf_counter()
    scenario = build_scenario(city_rows=5, city_cols=5, store_count=2, seed=WORLD_SEED, **world)
    built = time.perf_counter()
    config = workload(scenario)
    engine = WorkloadEngine(scenario, config)
    constructed = time.perf_counter()

    def collect(report) -> Outcome:
        outcome = _fleet_outcome(scenario, report)
        outcome.counters["workload.rounds"] = float(config.steps)
        if check is not None:
            outcome.problems.extend(check(engine, report))
        return outcome

    return Prepared(
        ops=config.clients * config.steps,
        run=engine.run,
        collect=collect,
        timings={
            "worldgen.build_s": built - started,
            "workload.fleet_build_s": constructed - built,
        },
    )


def _fleet_outcome(scenario, report) -> Outcome:
    tail = report.latency_percentiles()
    servers = report.server_stats.values()
    arrivals = sum(stats["arrivals"] for stats in servers)
    served = sum(stats["served"] for stats in servers)
    dropped = sum(stats["dropped"] for stats in servers)
    wait_ms = sum(stats["mean_wait_ms"] * stats["served"] for stats in servers)
    network = scenario.federation.network.stats
    sent_by_kind = network.messages_by_kind.items()
    availability = report.availability()
    telemetry = report.telemetry.summary() if report.telemetry is not None else {}
    counters = {
        "workload.tracers": report.sampling.get("tracers", 0.0),
        "workload.max_weight": report.sampling.get("max_weight", 0.0),
        "queue.served": served,
        "queue.dropped": dropped,
        "queue.drop_share": dropped / arrivals if arrivals else 0.0,
        "queue.mean_wait_ms": wait_ms / served if served else 0.0,
        "queue.util_max": max((stats["utilization"] for stats in servers), default=0.0),
        "network.exchanges": float(network.messages_sent),
        "network.retransmits": float(network.retransmissions),
        "network.timeouts": float(sum(n for kind, n in sent_by_kind if kind.endswith(".timeout"))),
        "discovery.device_cache_hit_rate": report.discovery_cache_hit_rate,
        "discovery.stale_serves": report.fault_stats.get("stale_serves", 0.0),
        "dns.cache_hit_rate": report.dns_cache_hit_rate,
        "tiles.cache_hit_rate": report.tile_cache_hit_rate,
        "churn.events_applied": float(report.churn_events_applied),
        "churn.failovers": availability["failovers"],
        "churn.stale_attempts": availability["stale_attempts"],
        "control.events_applied": report.control_stats.get("events_applied", 0.0),
        "faults.events_applied": report.fault_stats.get("events_applied", 0.0),
        "telemetry.record_calls": telemetry.get("records", 0.0),
        "telemetry.windows": telemetry.get("windows", 0.0),
        "autoscale.ops_applied": report.autoscale_stats.get("ops_applied", 0.0),
        "operator.requests": report.operator_stats.get("requests", 0.0),
        "operator.audit_records": report.operator_stats.get("audit_records", 0.0),
        "operator.timeouts": report.operator_stats.get("timeouts", 0.0),
    }
    problems = [
        f"{server_id}: arrivals {stats['arrivals']:.0f} != served + dropped "
        f"{stats['served'] + stats['dropped']:.0f}"
        for server_id, stats in sorted(report.server_stats.items())
        if stats["arrivals"] != stats["served"] + stats["dropped"]
    ]
    return Outcome(
        failed=0,
        sim={
            "sim_p50_ms": tail["p50"],
            "sim_p95_ms": tail["p95"],
            "failed_share": report.failed_request_rate,
        },
        sim_digest=_digest(report.snapshot()),
        counters=counters,
        problems=problems,
    )


def fleet_cohort(seed: int, quick: bool = False) -> Prepared:
    """200,000 clients × 3 steps on the cohort fast path, E16-style world."""
    clients = 6_000 if quick else 200_000

    def check(engine: WorkloadEngine, report) -> list[str]:
        problems = []
        if report.sampling.get("tracers") != 64.0:
            problems.append(f"expected 64 tracers, got {report.sampling.get('tracers')}")
        weight = sum(device.weight for device in engine.fleet)
        if weight != clients:
            problems.append(f"tracer weights sum to {weight}, not the fleet of {clients}")
        return problems

    return _prepare_fleet(
        world={
            "config": FederationConfig(
                device_discovery_cache_ttl_seconds=120.0,
                client_tile_cache_entries=256,
                service_times=SERVICE_TIMES,
                server_queue_capacity=512,
                server_workers=clients // 2000,
            )
        },
        workload=lambda scenario: WorkloadConfig(clients=clients, steps=3, seed=seed),
        check=check,
    )


def fleet_exact(seed: int, quick: bool = False) -> Prepared:
    """150 clients × 30 steps on the exact per-device path, E13 world.

    One worker per server, device and tile caches on, short of the
    saturation knee so almost nothing is shed.
    """
    clients, steps = (30, 6) if quick else (150, 30)
    return _prepare_fleet(
        world={
            "config": FederationConfig(
                device_discovery_cache_ttl_seconds=120.0,
                client_tile_cache_entries=256,
                service_times=SERVICE_TIMES,
                server_queue_capacity=256,
            )
        },
        workload=lambda scenario: WorkloadConfig(clients=clients, steps=steps, seed=seed),
    )


def fleet_chaos(seed: int, quick: bool = False) -> Prepared:
    """80 clients × 40 ten-second steps with every subsystem on, E19 world."""
    clients = 16 if quick else 80
    steps = 12 if quick else 40
    step_seconds = 10.0
    horizon = steps * step_seconds

    def workload(scenario) -> WorkloadConfig:
        store0 = scenario.store_replica_ids(0)
        store1 = scenario.store_replica_ids(1)
        # Pool the standbys before the tapes are cut, but after the base
        # replica ids are read: the crowd targets as-built capacity only.
        scenario.federation.attach_warm_pool(sorted(scenario.federation.replica_groups)[0], 2)
        faults = (
            FaultPlan.flash_crowd(store0, 0.15 * horizon, 0.45 * horizon, extra_load=300)
            + FaultPlan.partition(store1[:1], 0.30 * horizon, 0.50 * horizon, regions=(1,))
            + FaultPlan.gray(
                store1[1:],
                0.55 * horizon,
                0.75 * horizon,
                latency_multiplier=3.0,
                loss_probability=0.2,
            )
            + FaultPlan.authority_outage(0.80 * horizon, 0.90 * horizon)
        )
        return WorkloadConfig(
            clients=clients,
            steps=steps,
            seed=seed,
            step_seconds=step_seconds,
            resolver_pools=2,
            faults=faults,
            churn=ChurnSchedule.poisson(
                store1,
                rate_per_minute=1.0,
                horizon_seconds=horizon,
                downtime_seconds=40.0,
                seed=11,
            ),
            control=ControlSchedule.from_events(
                [
                    ControlEvent(0.20 * horizon, ControlEventKind.DRAIN, store0[1]),
                    ControlEvent(0.60 * horizon, ControlEventKind.UNDRAIN, store0[1]),
                ]
            ),
            telemetry=TelemetryConfig(
                window_seconds=40.0,
                slo=SLOConfig(latency_ms=250.0, availability_target=0.99),
            ),
            # E19's responsive profile.
            autoscale=AutoscalerConfig(
                wait_high_ms=25.0,
                wait_low_ms=8.0,
                burn_high=0.0,
                breach_evals=1,
                recover_evals=2,
                cooldown_seconds=60.0,
                ramp_cooldown_seconds=30.0,
                park_delay_seconds=40.0,
            ),
            operator=OperatorConfig(transport="network", timeout_ms=400.0),
        )

    return _prepare_fleet(
        world={
            "store_replicas": 2,
            "config": FederationConfig(
                device_discovery_cache_ttl_seconds=30.0,
                registration_ttl_seconds=60.0,
                client_tile_cache_entries=256,
                service_times=SERVICE_TIMES,
                server_queue_capacity=256,
                retry_policy=RetryPolicy.full_jitter(),
            ),
        },
        workload=workload,
    )


# ----------------------------------------------------------------------
# Direct client requests
# ----------------------------------------------------------------------
def request_direct(seed: int, quick: bool = False) -> Prepared:
    """One client, default config, requests cycling the five services.

    A closed loop of one caller: the next request is issued when the
    previous one returns.  Positions are seeded picks among the city's
    mapped buildings and POIs 20–400 m from a store entrance — points the
    street graph reaches, so no request fails — except localization, which
    happens inside the store.  Every request pays the full discovery walk
    (device caches are off).
    """
    count = 150 if quick else 2500
    started = time.perf_counter()
    scenario = build_scenario(store_count=2, city_rows=5, city_cols=5, seed=WORLD_SEED)
    built = time.perf_counter()
    client = scenario.federation.client()
    requests = _direct_requests(scenario, client, random.Random(seed), count)
    errors: list[str] = []

    def run() -> list[tuple[str, float, float, float]]:
        """The request loop: ``(kind, simulated ms, host us, answer size)`` per
        request; an answer of -1 marks a request that raised."""
        served = []
        for kind, issue in requests:
            before_ms = client.network_latency_ms
            begun = time.perf_counter_ns()
            try:
                answer = issue()
            except Exception as error:  # reported by collect(); keep measuring
                answer = -1.0
                errors.append(repr(error))
            host_us = (time.perf_counter_ns() - begun) / 1e3
            served.append((kind, client.network_latency_ms - before_ms, host_us, answer))
        return served

    def collect(served) -> Outcome:
        latencies = [sim_ms for _, sim_ms, _, _ in served]
        answers = [answer for _, _, _, answer in served]
        failed = sum(1 for answer in answers if answer < 0.0)
        # A search may legitimately match nothing; every other service has
        # an answer at every generated position.
        problems = [f"a request raised {error}" for error in errors] + [
            f"request {index} ({kind}) returned nothing"
            for index, (kind, _, _, answer) in enumerate(served)
            if answer == 0.0 and kind != "search"
        ]
        host_us = {
            f"core.{kind}_p50_us": percentile([us for k, _, us, _ in served if k == kind], 0.50)
            for kind in REQUEST_KINDS
        }
        every_us = [us for _, _, us, _ in served]
        for fraction in (0.50, 0.90, 0.99):
            host_us[f"core.req_p{round(fraction * 100)}_us"] = percentile(every_us, fraction)
        network = scenario.federation.network.stats
        return Outcome(
            failed=failed,
            sim={
                "sim_p50_ms": percentile(latencies, 0.50),
                "sim_p95_ms": percentile(latencies, 0.95),
                "failed_share": failed / count,
            },
            sim_digest=_digest([latencies, answers]),
            counters={
                "network.exchanges": float(network.messages_sent),
                "network.retransmits": float(network.retransmissions),
                "dns.cache_hit_rate": scenario.federation.resolver.cache.stats.hit_rate,
            },
            problems=problems,
            host_us=host_us,
        )

    return Prepared(
        ops=count,
        run=run,
        collect=collect,
        timings={"worldgen.build_s": built - started, "workload.fleet_build_s": 0.0},
    )


def _direct_requests(scenario, client, rng: random.Random, count: int):
    """``count`` ``(kind, thunk)`` requests; a thunk returns the size of its
    answer, so an empty answer (0) can be told from a served one."""
    city = scenario.city
    addresses = sorted(city.building_addresses)
    mapped = sorted(
        set(city.building_addresses.values()) | set(city.poi_locations.values()),
        key=lambda point: (point.latitude, point.longitude),
    )
    nearby = [
        [point for point in mapped if 20.0 <= point.distance_to(store.entrance) <= 400.0]
        for store in scenario.stores
    ]
    requests: list[tuple[str, Callable[[], float]]] = []
    for index in range(count):
        kind = REQUEST_KINDS[index % len(REQUEST_KINDS)]
        store_index = rng.randrange(len(scenario.stores))
        store = scenario.stores[store_index]
        position = rng.choice(nearby[store_index])
        product = rng.choice(sorted(store.product_locations))
        if kind == "search":
            issue = partial(_search, client, product, position)
        elif kind == "route":
            issue = partial(_route, client, position, store.product_locations[product])
        elif kind == "tiles":
            issue = partial(_tiles, client, BoundingBox.around(position, 120.0))
        elif kind == "localize":
            # Indoors, where the store's own server has beacons and imagery
            # to match (a street position carries only a satellite fix,
            # which no map server is asked about).
            indoors = store.random_interior_point(rng)
            cues = store.sense_cues(indoors, rng)
            issue = partial(_localize, client, store.local_to_geographic(indoors), cues)
        else:
            issue = partial(_geocode, client, f"{rng.choice(addresses)}, {city.city_name}")
        requests.append((kind, issue))
    return requests


def _search(client, query, near) -> float:
    return float(len(client.search(query, near=near)))


def _route(client, origin, destination) -> float:
    return client.route(origin, destination).length_meters


def _tiles(client, viewport) -> float:
    return float(len(client.render_viewport(viewport, zoom=17).composites))


def _localize(client, coarse, cues) -> float:
    return float(client.localize(coarse, cues).best is not None)


def _geocode(client, address) -> float:
    return float(client.geocode(address).best is not None)


WORKLOADS: dict[str, Callable[[int, bool], Prepared]] = {
    "fleet_cohort": fleet_cohort,
    "fleet_exact": fleet_exact,
    "fleet_chaos": fleet_chaos,
    "request_direct": request_direct,
}
