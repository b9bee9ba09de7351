"""The workload engine: run a fleet of clients against one federation.

The engine owns nothing but orchestration: it builds one
:class:`repro.core.client.OpenFlameClient` per simulated device (so every
device has its own discovery and tile caches), assigns each a mobility model
and a seed-derived RNG, and then drives the fleet through one plain round
loop (:meth:`WorkloadEngine.run`) over the shared
:class:`~repro.simulation.clock.SimulatedClock`: fault, churn and control
tapes land at the round boundary, every device takes one concurrent turn,
the clock advances by the slowest turn plus pacing, and the end-of-round
observations fire.  All latency comes from the federation's simulated
network, and per-service latency is recorded into percentile histograms so
a run can report tail latency (p50/p95/p99) alongside cache hit-rates.

Small fleets run every device through the full client stack (the *exact*
path).  At :attr:`WorkloadConfig.cohort_min_clients` and above the engine
switches to the cohort fast path (:mod:`repro.workload.cohort`): devices
that are statistically identical — same mobility family, same resolver
pool, no individual state — are represented by a few fully simulated *tracer*
devices plus integer phantom counts whose server-side load is charged in
batch, which is what lets one process reach 100k clients inside a smoke
budget and a million in a full sweep.

Everything is deterministic: the same scenario and :class:`WorkloadConfig`
produce byte-identical :meth:`WorkloadReport.snapshot` dictionaries.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.autoscale.scaler import Autoscaler
from repro.churn.controller import ChurnController
from repro.control.plane import ControlPlane
from repro.faults.injector import FaultInjector
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.localization.cues import CueBundle, GnssCue
from repro.operator.api import OperatorApi
from repro.operator.client import (
    NetworkedControlPlayer,
    OperatorClient,
    OperatorControlAdapter,
)
from repro.operator.permissions import ALL_PERMISSIONS, PrincipalRegistry
from repro.services.failover import FailoverRecorder
from repro.services.localization import FederatedLocalizationResult
from repro.services.routing import FederatedRouteResult, FederatedRoutingError
from repro.services.search import FederatedSearchResult
from repro.services.tiles import FederatedViewport
from repro.simulation.metrics import Histogram, MetricsRegistry, Summary
from repro.simulation.tape import TimelineEntry
from repro.spatialindex.cellid import CellId
from repro.telemetry import TelemetryPipeline
from repro.telemetry.pipeline import CELL_LEVEL
from repro.telemetry.reader import TelemetryReader
from repro.workload.cohort import Cohort
from repro.workload.config import (
    WorkloadConfig,
    client_base_seed,
    derived_seed_streams,
    operator_seed,
)
from repro.workload.fleet import FleetBuilder, FleetClient
from repro.workload.mobility import AisleWalk
from repro.workload.report import WorkloadReport
from repro.workload.traffic import RequestKind, RequestMix, ZipfSampler
from repro.worldgen.scenario import FederatedScenario

__all__ = [
    "FleetClient",
    "PointOfInterest",
    "RoundObserver",
    "WorkloadConfig",
    "WorkloadEngine",
    "WorkloadReport",
    "client_base_seed",
    "derived_seed_streams",
]

RoundObserver = Callable[[int, float], None]
"""A round-boundary hook: ``observer(round_index, now_seconds)``."""

REQUEST_MIX = RequestMix()
"""Relative weights of the four request kinds every device draws from."""

ZIPF_EXPONENT = 1.0
"""Skew of POI popularity: weight(rank) ∝ 1 / (rank + 1) ** exponent."""

SEARCH_RADIUS_METERS = 350.0
"""Radius of a device's location-based search around its target POI."""

VIEWPORT_METERS = 120.0
"""Half-width of the map viewport a device renders around itself."""

TILE_ZOOM = 17
"""Zoom level of the tiles a viewport render fetches."""

GNSS_ERROR_METERS = 12.0
"""Satellite-fix noise (sigma and reported accuracy) outside a store."""


@dataclass(frozen=True)
class PointOfInterest:
    """One named place requests can target, ranked by popularity."""

    name: str
    location: LatLng
    store_index: int | None = None


class WorkloadEngine:
    """Drives a fleet of simulated clients through a federated scenario."""

    def __init__(
        self,
        scenario: FederatedScenario,
        config: WorkloadConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or WorkloadConfig()
        self._cohort_mode = self.config.clients >= self.config.cohort_min_clients
        # Large fleets get bounded streaming histograms by default so a
        # million-client sweep does not retain one float per observation; an
        # explicitly supplied registry always wins.
        self.metrics = metrics or MetricsRegistry(streaming_histograms=self._cohort_mode)
        self.pois = self._build_poi_pool()
        self._poi_sampler: ZipfSampler[PointOfInterest] = ZipfSampler(self.pois, ZIPF_EXPONENT)
        builder = FleetBuilder(scenario, self.config)
        self.fleet = builder.build_fleet(self._cohort_mode)
        self.cohorts: list[Cohort] = builder.cohorts
        self._device_by_index = {device.index: device for device in self.fleet}
        # Multiplier applied to every metric a request records; 1 except
        # while a cohort tracer answers for its phantoms.
        self._active_weight = 1
        # Weighted request outcomes: served, failed in routing, served
        # nothing at all (either way), and served from a stale SRV view.
        self._requests = self._errors = self._failed = self._degraded = 0
        # The run's one history, shared by every actor below; _tallies counts
        # only the tape step's entries, per (source, applied).
        self.timeline: list[TimelineEntry] = []
        self._tallies: Counter[tuple[str, bool]] = Counter()
        self.fault_injector: FaultInjector | None = None
        if self.config.faults is not None:
            self.fault_injector = FaultInjector(
                federation=scenario.federation, plan=self.config.faults, timeline=self.timeline
            )
        self.churn_controller: ChurnController | None = None
        if self.config.churn is not None:
            self.churn_controller = ChurnController(
                federation=scenario.federation,
                schedule=self.config.churn,
                timeline=self.timeline,
            )
        # Rejoined servers whose return traffic has not been seen yet:
        # server_id -> (rejoin instant, served-requests baseline).
        self._pending_rediscovery: dict[str, tuple[float, int]] = {}
        self._rediscovery_seconds = Summary("rediscovery_seconds")
        self.operator_api: OperatorApi | None = None
        self.operator_client: OperatorClient | None = None
        if self.config.operator is not None:
            op_config = self.config.operator
            principals = PrincipalRegistry()
            principals.register(op_config.principal, ALL_PERMISSIONS)
            self.operator_api = OperatorApi(
                federation=scenario.federation,
                principals=principals,
                plane=ControlPlane(federation=scenario.federation, timeline=self.timeline),
            )
            endpoint_id = op_config.endpoint_id
            if endpoint_id is None:
                endpoint_id = scenario.federation.discovery_authority_id
            self.operator_client = OperatorClient(
                api=self.operator_api,
                principal=op_config.principal,
                transport=op_config.transport,
                endpoint_id=endpoint_id,
                region=op_config.region,
                timeout_ms=op_config.timeout_ms,
                # The console's own network-draw stream: save/restored
                # around each exchange, so device streams never shift.
                jitter_rng=(
                    random.Random(operator_seed(self.config.seed))
                    if op_config.transport == "network"
                    else None
                ),
            )
        self.control_plane: ControlPlane | NetworkedControlPlayer | None = None
        if self.config.control is not None:
            if self.operator_client is not None:
                self.control_plane = NetworkedControlPlayer(
                    schedule=self.config.control, client=self.operator_client
                )
            else:
                self.control_plane = ControlPlane(
                    federation=scenario.federation, schedule=self.config.control, timeline=self.timeline
                )
        # Devices holding a stale SRV view of a re-weighted server:
        # (device index, server_id) -> (event instant, target (prio, weight)).
        self._pending_convergence: dict[tuple[int, str], tuple[float, tuple[int, int]]] = {}
        self._devices_tracked = 0
        self._converge_seconds = Histogram("converge_seconds", streaming=self.metrics.streaming_histograms)
        # Round-boundary observers.  An empty list is a strict no-op, so
        # observer-free runs stay byte-identical.
        self._round_observers: list[RoundObserver] = []
        self.telemetry: TelemetryPipeline | None = None
        if self.config.telemetry is not None:
            registry = scenario.federation.registry
            self.telemetry = TelemetryPipeline(
                config=self.config.telemetry,
                server_cells={
                    server_id: tuple(cell.token for cell in registration.cells)
                    for server_id, registration in sorted(registry.registrations.items())
                },
            )
            self.add_round_observer(self._telemetry_flush)
        self.autoscaler: Autoscaler | None = None
        if self.config.autoscale is not None:
            # Registered after the telemetry flush observer, so each
            # evaluation sees the window that round just sealed.
            assert self.telemetry is not None  # enforced by WorkloadConfig
            if self.operator_client is not None:
                # The autoscaler's batches travel the operator API like any
                # console's: authenticated, audited, and (over the network
                # transport) paying the same control-hop latency and loss.
                scaler_control = OperatorControlAdapter(client=self.operator_client)
            else:
                scaler_control = ControlPlane(federation=scenario.federation, timeline=self.timeline)
            self.autoscaler = Autoscaler(
                federation=scenario.federation,
                reader=TelemetryReader(pipeline=self.telemetry),
                config=self.config.autoscale,
                control=scaler_control,
            )
            self.add_round_observer(self.autoscaler.observe)

    def add_round_observer(self, observer: RoundObserver) -> None:
        """Register a hook called as ``observer(round_index, now_seconds)``
        after each round's end-of-round observations, in registration
        order.  Observers must not mutate engine state — they exist so
        subsystems like telemetry can snapshot at round granularity without
        the loop knowing about them."""
        self._round_observers.append(observer)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_poi_pool(self) -> list[PointOfInterest]:
        """All POIs requests can target, in a deterministic popularity order.

        Products from every store are interleaved with the city POIs so the
        popular head of the Zipf distribution spans several map servers.
        """
        pois: list[PointOfInterest] = []
        for store_index, store in enumerate(self.scenario.stores):
            for name in sorted(store.product_locations):
                pois.append(
                    PointOfInterest(name, store.product_locations[name], store_index)
                )
        for name in sorted(self.scenario.city.poi_locations):
            pois.append(PointOfInterest(name, self.scenario.city.poi_locations[name]))
        if not pois:
            raise ValueError("scenario has no POIs to build a workload from")
        # Deterministic popularity shuffle so rank is not correlated with
        # store order.
        random.Random(self.config.seed).shuffle(pois)
        return pois

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> WorkloadReport:
        """Run the configured number of steps across the whole fleet.

        Clients within one round act *concurrently*: each runs serially from
        the same simulated instant and the clock is rewound between them, so
        a round advances time by its slowest request (plus the configured
        inter-round pacing) rather than by the sum over the whole fleet.
        Without this, large fleets would spuriously age every TTL between one
        client's consecutive requests.

        A round is, in statement order: tapes (faults, then churn, then
        control — which may itself advance the clock when control requests
        pay a network hop), every device's or cohort's turn from the
        instant the tapes left the clock at, the clock advance, the
        rediscovery/convergence checks, and the round observers.
        """
        network = self.scenario.federation.network
        clock = network.clock
        started_at = clock.now()
        self._telemetry_begin(started_at)
        try:
            for round_index in range(self.config.steps):
                self._apply_tapes()
                round_start = clock.now()
                self._round_slowest = 0.0
                if self._cohort_mode:
                    for cohort in self.cohorts:
                        self._run_cohort(cohort, round_start)
                else:
                    for device in self.fleet:
                        self._run_device(device, round_start)
                clock.advance(self._round_slowest + self.config.step_seconds)
                self._observe_rediscoveries(clock.now())
                self._observe_convergence(clock.now())
                for observer in self._round_observers:
                    observer(round_index, clock.now())
        finally:
            # Leave the shared network on its default jitter stream: direct
            # (non-fleet) use after a run must not inherit the last device's.
            network.set_jitter_stream(None)
        return self._report(clock.now() - started_at)

    def _run_device(self, device: FleetClient, round_start: float) -> None:
        """One device's round: advance, issue, track the slowest, rewind."""
        clock = self.scenario.federation.network.clock
        device.advance()
        kind = REQUEST_MIX.sample(device.rng)
        self._issue(device, kind)
        self._round_slowest = max(self._round_slowest, clock.now() - round_start)
        clock.rewind_to(round_start)

    def _run_cohort(self, cohort: Cohort, round_start: float) -> None:
        """One cohort's round: tracers run for real, phantoms ride along.

        Each tracer runs the full client stack with ``_active_weight`` set,
        so every metric it records counts for its whole share of the cohort.
        Server-side, the tracer's per-kind queue arrivals are diffed around
        its turn and replayed ``weight − 1`` times as batch phantom load at
        the same instant — phantoms occupy real worker capacity (later
        requests queue behind them, overflow is dropped) without the engine
        simulating their client stacks.
        """
        federation = self.scenario.federation
        queues = {
            server_id: server.queue
            for server_id, server in federation.all_servers.items()
            if server.queue is not None
        }
        for device in cohort.tracers:
            weight = device.weight
            before = (
                {server_id: dict(queue.kind_arrivals) for server_id, queue in queues.items()}
                if weight > 1 and queues
                else None
            )
            self._active_weight = weight
            try:
                self._run_device(device, round_start)
            finally:
                self._active_weight = 1
            if before is None:
                continue
            for server_id, queue in queues.items():
                prior = before[server_id]
                for kind, arrivals in queue.kind_arrivals.items():
                    delta = arrivals - prior.get(kind, 0)
                    if delta > 0:
                        # The clock is back at round_start, so phantom jobs
                        # land at the same instant their tracer's did.
                        queue.phantom_arrivals(kind, delta * (weight - 1))

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _telemetry_begin(self, now: float) -> None:
        """Open the pipeline's first window, priming server baselines so
        queue activity predating the run is never attributed to it."""
        if self.telemetry is not None:
            self.telemetry.begin(now, self._telemetry_frames())
        if self.autoscaler is not None:
            self.autoscaler.begin(now)

    def _telemetry_frames(self) -> dict[str, dict[str, object]]:
        """Cumulative queue frames for every server (offline ones included:
        a server that crashed mid-window still emitted into it)."""
        frames: dict[str, dict[str, object]] = {}
        for server_id, server in sorted(self.scenario.federation.all_servers.items()):
            frame = server.telemetry_frame()
            if frame is not None:
                frames[server_id] = frame
        return frames

    def _telemetry_flush(self, round_index: int, now: float) -> None:
        """The pipeline's round observer: fold this round's server deltas
        in, annotate active fault families, and seal the window if due."""
        del round_index  # windows key on simulated time, not round count
        assert self.telemetry is not None
        self.telemetry.observe_servers(self._telemetry_frames())
        faults_active: tuple[str, ...] = ()
        if self.fault_injector is not None:
            faults_active = self.fault_injector.active_fault_kinds()
        self.telemetry.flush(now, faults_active)

    def _device_cell(self, device: FleetClient) -> str:
        """The covering-cell token request records key on: the device's
        current position at the finest telemetry level, ``CELL_LEVEL``."""
        return CellId.from_point(device.position, CELL_LEVEL).token

    # ------------------------------------------------------------------
    # Tapes
    # ------------------------------------------------------------------
    def _apply_tapes(self) -> None:
        """Play every tape due at this round boundary, in effect order.

        Fault events land first, then any active flash crowd's load for
        the round about to run is charged; churn next; control last.  Each
        actor plays up to the clock at its turn (only a networked control
        hop advances it).  Like the round clock, tape events land *between*
        concurrent rounds: a partition is open, or a server up, for a whole
        round, never half of one.

        Each entry is tallied per (source, applied) for the report.  An
        applied join starts the rediscovery watch; an applied control entry
        starts the convergence watch from ``now``, the instant *before* any
        control hop.
        """
        federation = self.scenario.federation
        clock = federation.network.clock
        for actor in (self.fault_injector, self.churn_controller, self.control_plane):
            if actor is None:
                continue
            now = clock.now()
            for entry in actor.apply_until(now):
                self._tallies[entry.source, entry.applied] += 1
                if not entry.applied:
                    continue
                if entry.source == "churn" and entry.kind == "join":
                    server = federation.servers.get(entry.subject)
                    baseline = server.stats.total_requests if server is not None else 0
                    self._pending_rediscovery[entry.subject] = (entry.at_seconds, baseline)
                elif entry.source == "control":
                    self._watch_convergence(entry, now)
            if actor is self.fault_injector:
                actor.inject_round_load()

    def _observe_rediscoveries(self, now: float) -> None:
        """Check whether rejoined servers have been found by clients again.

        Time-to-rediscovery is measured at round granularity: the first
        round after which a rejoined server's served-request counter moved.
        """
        if not self._pending_rediscovery:
            return
        federation = self.scenario.federation
        found: list[str] = []
        for server_id, (rejoined_at, baseline) in self._pending_rediscovery.items():
            server = federation.servers.get(server_id)
            if server is None:  # crashed again before being rediscovered
                continue
            if server.stats.total_requests > baseline:
                self._rediscovery_seconds.observe(now - rejoined_at)
                found.append(server_id)
        for server_id in found:
            del self._pending_rediscovery[server_id]

    # ------------------------------------------------------------------
    # Operator control plane
    # ------------------------------------------------------------------
    def _watch_convergence(self, entry: TimelineEntry, now: float) -> None:
        """Start the convergence stopwatch at ``now`` for every device
        holding a stale view of an applied control entry's server.

        A device is *tracked* only if it actually holds cached SRV data for
        the re-weighted server that disagrees with the new advertisement —
        devices that never resolved the server bootstrap straight onto the
        live values and have nothing to converge."""
        target = (entry.priority, entry.weight)
        for device in self.fleet:
            held = device.client.context.discoverer.srv_view.get(entry.subject)
            if held is None:
                continue
            key = (device.index, entry.subject)
            if held == target:
                # The newest advertisement matches what the device
                # already holds (e.g. an undrain restored the weight
                # before this device ever saw the drain): the change is
                # invisible to it, so any stopwatch still running toward
                # the now-obsolete value is voided, not left to report
                # phantom non-convergence.
                if self._pending_convergence.pop(key, None) is not None:
                    self._devices_tracked -= 1
                continue
            if key not in self._pending_convergence:
                self._devices_tracked += 1
            # A second event against the same server restarts the
            # stopwatch toward the *newest* advertisement.
            self._pending_convergence[key] = (now, target)

    def _observe_convergence(self, now: float) -> None:
        """Check tracked devices' SRV views against their targets.

        Time-to-converge is measured at round granularity, like rediscovery:
        the first round end at which the device's view — refreshed only by a
        fresh discovery once its cache entries lapsed — matches the new
        advertisement."""
        if not self._pending_convergence:
            return
        converged: list[tuple[int, str]] = []
        for (index, server_id), (since, target) in self._pending_convergence.items():
            view = self._device_by_index[index].client.context.discoverer.srv_view
            if view.get(server_id) == target:
                self._converge_seconds.observe(now - since)
                converged.append((index, server_id))
        for key in converged:
            del self._pending_convergence[key]

    def _issue(self, device: FleetClient, kind: RequestKind) -> None:
        network = self.scenario.federation.network
        if device.net_rng is not None:
            network.set_jitter_stream(device.net_rng)
        # 1 everywhere except a cohort tracer's turn, where one request
        # records on behalf of the tracer's whole phantom share.
        weight = self._active_weight
        # Latency accrues on the shared network across DNS, exchanges,
        # backoff and timeouts, so the request's own is a stopwatch reading.
        latency_before = network.stats.total_latency_ms
        faults = network.faults if self.fault_injector is not None else None
        if faults is not None:
            # Which side of a region-scoped partition this device's
            # exchanges see: its resolver-pool index is its client region.
            faults.active_region = device.index % self.config.resolver_pools
        try:
            if kind == RequestKind.SEARCH:
                result = self._do_search(device)
            elif kind == RequestKind.ROUTE:
                result = self._do_route(device)
            elif kind == RequestKind.TILES:
                result = self._do_tiles(device)
            else:
                result = self._do_localize(device)
        except FederatedRoutingError as error:
            result = error
        finally:
            if faults is not None:
                faults.active_region = None
        if result is None:
            # No traffic was generated; recording a request with 0 ms latency
            # would dilute the tail percentiles the benchmarks compare.
            return
        latency_ms = network.stats.total_latency_ms - latency_before
        failed = isinstance(result, FederatedRoutingError)
        outcome = result.outcome
        if outcome.degraded:
            # At least one cell was answered from a stale-while-unreachable
            # cached SRV view.
            self._degraded += weight
        if failed:
            # Failed requests are counted separately; their (often short)
            # abort latency must not dilute the success-path percentiles.
            self._errors += weight
            self._failed += weight
        else:
            if not outcome.served:
                # Every map server this request tried was unreachable or
                # overloaded past its whole replica chain: the user got
                # nothing, although the request was issued and its latency
                # counts.
                self._failed += weight
            self._requests += weight
            self.metrics.histogram("latency_ms.all").observe(latency_ms, weight)
            self.metrics.histogram(f"latency_ms.{kind.value}").observe(latency_ms, weight)
        if self.telemetry is not None:
            self.telemetry.record_request(
                self._device_cell(device),
                device.index % self.config.resolver_pools,
                kind.value,
                latency_ms,
                float(weight),
                ok=not failed and outcome.served,
                degraded=outcome.degraded,
            )

    def _do_search(self, device: FleetClient) -> FederatedSearchResult:
        poi = self._poi_sampler.sample(device.rng)
        return device.client.search(poi.name, near=poi.location, radius_meters=SEARCH_RADIUS_METERS)

    def _do_route(self, device: FleetClient) -> FederatedRouteResult | None:
        """Route to a popular POI; ``None`` if no route was worth issuing.

        A shopper standing on the very shelf it would route to resamples a
        few times before giving up, so zero-length "routes" never happen.
        """
        for _ in range(4):
            poi = self._poi_sampler.sample(device.rng)
            if device.position.distance_to(poi.location) < 1.0:
                continue
            return device.client.route(device.position, poi.location)
        return None

    def _do_tiles(self, device: FleetClient) -> FederatedViewport:
        viewport = BoundingBox.around(device.position, VIEWPORT_METERS)
        return device.client.render_viewport(viewport, zoom=TILE_ZOOM)

    def _do_localize(self, device: FleetClient) -> FederatedLocalizationResult:
        return device.client.localize(device.position, self._sense(device))

    def _sense(self, device: FleetClient) -> CueBundle:
        """What the device senses where it stands.

        Devices walking a store sense that store's beacons and imagery (the
        rich indoor bundle); everyone else has only a noisy satellite fix.
        """
        if isinstance(device.mobility, AisleWalk):
            store = device.mobility.store
            local = store.geographic_to_local(device.position)
            if store.contains_local(local):
                return store.sense_cues(local, device.rng)
        bearing = device.rng.uniform(0.0, 360.0)
        offset = abs(device.rng.gauss(0.0, GNSS_ERROR_METERS))
        return CueBundle(
            gnss=GnssCue(
                device.position.destination(bearing, offset),
                accuracy_meters=GNSS_ERROR_METERS,
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, simulated_seconds: float) -> WorkloadReport:
        if self.telemetry is not None:
            # Seal a trailing partial window so short runs still report.
            self.telemetry.finalize(self.scenario.federation.network.clock.now())
        discovery_hits = discovery_misses = 0
        tile_hits = tile_misses = 0
        fleet_failover = FailoverRecorder()
        for device in self.fleet:
            stats = device.client.cache_stats()
            # Weight is 1 on the exact path; on the cohort fast path a
            # tracer's cache behaviour stands in for its phantom share.
            discovery_hits += int(stats["discovery.hits"]) * device.weight
            discovery_misses += int(stats["discovery.misses"]) * device.weight
            tile_hits += int(stats["tiles.hits"]) * device.weight
            tile_misses += int(stats["tiles.misses"]) * device.weight
            # Failover accounting stays tracer-only (unweighted): the
            # recorder holds raw latency lists that cannot be scaled.
            fleet_failover.merge_from(device.client.context.failover)

        federation = self.scenario.federation
        server_stats: dict[str, dict[str, float]] = {}
        # Include servers currently offline: a server that crashed mid-run
        # keeps its accumulated load statistics in the books.
        for server_id, server in federation.all_servers.items():
            if server.queue is not None:
                server_stats[server_id] = server.queue.snapshot(
                    window_seconds=simulated_seconds
                )

        # Aggregate the DNS hit rate over every pool the fleet was sharded
        # across (pool 0 alone is the historical single-resolver number).
        answered = total = 0
        for pool in federation.resolver_pool(self.config.resolver_pools):
            stats = pool.recursive.cache.stats
            answered += stats.hits + stats.negative_hits
            total += stats.hits + stats.negative_hits + stats.misses
        tallies = self._tallies
        control_stats: dict[str, float] = {}
        if self.control_plane is not None:
            converge = self._converge_seconds
            control_stats = {
                "events_applied": float(tallies["control", True]),
                "events_rejected": float(tallies["control", False]),
                "devices_tracked": float(self._devices_tracked),
                "devices_converged": float(converge.count),
                "devices_unconverged": float(len(self._pending_convergence)),
                "converge_p50_s": converge.p50,
                "converge_p95_s": converge.p95,
                "converge_mean_s": converge.mean,
            }
        fault_stats: dict[str, float] = {}
        if self.fault_injector is not None:
            stale_serves = sum(
                device.client.context.discoverer.stale_serves * device.weight
                for device in self.fleet
            )
            fault_stats = {
                "events_applied": float(tallies["faults", True]),
                "stale_serves": float(stale_serves),
            }
        operator_stats: dict[str, float] = {}
        if self.operator_client is not None and self.operator_api is not None:
            operator_stats = {
                key: float(self.operator_client.counters[key])
                for key in ("requests", "delivered", "timeouts")
            }
            operator_stats["audit_records"] = float(len(self.operator_api.audit))
            if isinstance(self.control_plane, NetworkedControlPlayer):
                player = self.control_plane
                operator_stats["tape_retries"] = float(player.retries)
                operator_stats["tape_pending"] = float(player.pending_events)
                for key, value in player.lag_stats().items():
                    operator_stats[f"delivery_lag_{key}"] = value
        sampling: dict[str, float] = {}
        if self._cohort_mode:
            sampling = {
                "cohorts": float(len(self.cohorts)),
                "tracers": float(len(self.fleet)),
                "fleet_clients": float(self.config.clients),
                "phantom_clients": float(self.config.clients - len(self.fleet)),
                "max_weight": float(max((d.weight for d in self.fleet), default=1)),
            }
        return WorkloadReport(
            metrics=self.metrics,
            requests=self._requests,
            errors=self._errors,
            discovery_cache_hits=discovery_hits,
            discovery_cache_misses=discovery_misses,
            tile_cache_hits=tile_hits,
            tile_cache_misses=tile_misses,
            dns_cache_hit_rate=answered / total if total else 0.0,
            simulated_seconds=simulated_seconds,
            server_stats=server_stats,
            failover=fleet_failover,
            failed_requests=self._failed,
            churn_events_applied=tallies["churn", True],
            rediscovery_seconds=self._rediscovery_seconds,
            rejoins_unseen=len(self._pending_rediscovery),
            replica_groups={
                group_id: group.server_ids
                for group_id, group in sorted(federation.replica_groups.items())
            },
            control_stats=control_stats,
            sampling=sampling,
            degraded_requests=self._degraded,
            fault_stats=fault_stats,
            telemetry=self.telemetry,
            autoscale_stats=(
                self.autoscaler.stats() if self.autoscaler is not None else {}
            ),
            operator_stats=operator_stats,
        )
