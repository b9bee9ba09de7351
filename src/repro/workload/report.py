"""The outcome of one workload run: :class:`WorkloadReport`.

A report is plain data plus derived views (cache hit rates, latency
percentiles, availability, replica balance) and the flat, deterministic
:meth:`WorkloadReport.snapshot` every byte-gated artifact is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.services.failover import FailoverRecorder
from repro.simulation.metrics import Histogram, MetricsRegistry, Summary, float_sum
from repro.simulation.queueing import load_cv
from repro.telemetry import TelemetryPipeline


@dataclass
class WorkloadReport:
    """The outcome of one workload run."""

    metrics: MetricsRegistry
    requests: int
    errors: int
    discovery_cache_hits: int
    discovery_cache_misses: int
    tile_cache_hits: int
    tile_cache_misses: int
    dns_cache_hit_rate: float
    simulated_seconds: float
    server_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    """Per-map-server load-model snapshot (utilization, queue depth, drops,
    workers); empty when the federation runs without a server-side queue
    model."""
    failover: FailoverRecorder = field(default_factory=FailoverRecorder)
    """Fleet-aggregated failover accounting (attempts, failed chains, stale
    attempts, failover latencies)."""
    failed_requests: int = 0
    """Client requests that got no service at all: every map-server chain
    they tried exhausted its replicas (or routing found nothing to stitch)."""
    churn_events_applied: int = 0
    rediscovery_seconds: Summary = field(default_factory=lambda: Summary("rediscovery_seconds"))
    """Seconds from each rejoin to the first round that served the rejoined
    server again."""
    rejoins_unseen: int = 0
    """Rejoined servers that saw no traffic again before the run ended."""
    replica_groups: dict[str, tuple[str, ...]] = field(default_factory=dict)
    """Replica-group membership at the end of the run (group id → server
    ids), used to fold ``server_stats`` into per-group balance metrics."""
    control_stats: dict[str, float] = field(default_factory=dict)
    """Operator-control-plane outcome: events applied/rejected, devices whose
    stale SRV view was tracked, and the time-to-converge tail (p50/p95 of
    seconds from a control event landing at the authority to each tracked
    device's view catching up).  Empty when the run had no control tape."""
    sampling: dict[str, float] = field(default_factory=dict)
    """Cohort-fast-path accounting (cohorts, tracers, max weight); empty on
    the exact path, so small-fleet snapshots carry no extra keys and the
    committed benchmark artifacts stay byte-identical."""
    degraded_requests: int = 0
    """Requests served from a stale-while-unreachable cached SRV view after
    live discovery failed (graceful degradation, not full service)."""
    fault_stats: dict[str, float] = field(default_factory=dict)
    """Fault-injection outcome: tape events applied and stale cache serves.
    Empty when the run had no fault plan, so fault-free snapshots carry no
    extra keys."""
    telemetry: TelemetryPipeline | None = None
    """The run's sealed telemetry windows and their roll-up queries (demand
    heatmaps, per-cell percentiles, zonal queue maps, per-region SLO burn).
    ``None`` when the run collected no telemetry, so telemetry-free
    snapshots carry no extra keys."""
    autoscale_stats: dict[str, float] = field(default_factory=dict)
    """Autoscaler outcome: applied/rejected ops, promotions, ramp steps,
    parks, flaps, the peak active replica count and the replica-seconds cost
    integral.  Empty when the run had no autoscaler, so scaler-free
    snapshots carry no extra keys."""
    operator_stats: dict[str, float] = field(default_factory=dict)
    """Operator-API outcome: requests issued/delivered, timeouts, audit-log
    length, and — when a control tape rode the API — tape retries, events
    still pending, and the mean and max delivery lag (seconds from an
    event's scripted instant to its op landing at the authority).  Empty
    when the run had no operator config, so operator-free snapshots carry
    no extra keys."""

    @property
    def discovery_cache_hit_rate(self) -> float:
        total = self.discovery_cache_hits + self.discovery_cache_misses
        return self.discovery_cache_hits / total if total else 0.0

    @property
    def tile_cache_hit_rate(self) -> float:
        total = self.tile_cache_hits + self.tile_cache_misses
        return self.tile_cache_hits / total if total else 0.0

    def latency_percentiles(self, service: str = "all") -> dict[str, float]:
        # Read without the creating accessor: querying a service that saw no
        # traffic must not grow the registry (snapshots stay deterministic).
        histogram = self.metrics.histograms.get(f"latency_ms.{service}")
        if histogram is None:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {"p50": histogram.p50, "p95": histogram.p95, "p99": histogram.p99}

    @property
    def dropped_requests(self) -> int:
        """Requests shed by overloaded map servers across the whole run."""
        return int(sum(stats.get("dropped", 0.0) for stats in self.server_stats.values()))

    def group_load_cvs(self) -> dict[str, float]:
        """Per-replica-group coefficient of variation of replica utilization.

        0.0 is a perfectly balanced group; the first-healthy funnel over an
        all-healthy 4-replica group reads ≈1.73 (one replica serves, three
        idle).  Groups without queue-model stats are skipped.
        """
        cvs: dict[str, float] = {}
        for group_id, server_ids in sorted(self.replica_groups.items()):
            loads = [
                self.server_stats[server_id].get("utilization", 0.0)
                for server_id in server_ids
                if server_id in self.server_stats
            ]
            if len(loads) >= 2:
                cvs[group_id] = load_cv(loads)
        return cvs

    @property
    def replica_load_cv(self) -> float:
        """The run's balance headline: mean utilization CV over replica groups."""
        cvs = self.group_load_cvs()
        return float_sum(cvs.values()) / len(cvs) if cvs else 0.0

    @property
    def rediscoveries(self) -> int:
        """Rejoined servers that clients found again before the run ended."""
        return self.rediscovery_seconds.count

    @property
    def failed_request_rate(self) -> float:
        """Fraction of client requests that got no service at all."""
        total = self.requests + self.errors
        return self.failed_requests / total if total else 0.0

    def availability(self) -> dict[str, float]:
        """The run's availability metrics in one flat dict."""
        recorder = self.failover
        failover_ms = Histogram("failover_ms", streaming=self.metrics.streaming_histograms)
        failover_ms.observe_many(recorder.failover_ms)
        rediscovery = self.rediscovery_seconds
        return {
            "failed_requests": float(self.failed_requests),
            "failed_request_rate": self.failed_request_rate,
            "request_chains": float(recorder.chains),
            "failed_chains": float(recorder.chains_failed),
            "failed_chain_rate": recorder.failed_chain_rate,
            "stale_attempts": float(recorder.stale_attempts),
            "stale_attempt_rate": recorder.stale_attempt_rate,
            "failovers": float(recorder.failovers),
            "backoff_ms_total": recorder.backoff_ms_total,
            "dead_detections_own": float(recorder.dead_detections_own),
            "dead_detections_shared": float(recorder.dead_detections_shared),
            "detect_mean_ms": recorder.detect_mean_ms,
            "failover_p50_ms": failover_ms.p50,
            "failover_p95_ms": failover_ms.p95,
            "failover_p99_ms": failover_ms.p99,
            "churn_events_applied": float(self.churn_events_applied),
            "rediscoveries": float(self.rediscoveries),
            "rejoins_unseen": float(self.rejoins_unseen),
            "rediscovery_seconds_mean": rediscovery.mean,
            "rediscovery_seconds_max": rediscovery.maximum if rediscovery.count else 0.0,
        }

    def snapshot(self) -> dict[str, float]:
        """One flat, deterministic dict describing the whole run.

        Each key has one writer and a reader outside the tests
        (``tests/test_ci_pipeline.py::TestReportKeys``)."""
        data = dict(sorted(self.metrics.snapshot().items()))
        data["requests"] = float(self.requests)
        data["errors"] = float(self.errors)
        data["discovery_cache.hit_rate"] = self.discovery_cache_hit_rate
        data["tile_cache.hit_rate"] = self.tile_cache_hit_rate
        data["dns_cache.hit_rate"] = self.dns_cache_hit_rate
        data["simulated_seconds"] = self.simulated_seconds
        for server_id in sorted(self.server_stats):
            for stat, value in sorted(self.server_stats[server_id].items()):
                data[f"server.{server_id}.{stat}"] = value
        for key, value in sorted(self.availability().items()):
            data[f"availability.{key}"] = value
        data["balance.replica_load_cv"] = self.replica_load_cv
        for key, value in sorted(self.control_stats.items()):
            data[f"control.{key}"] = value
        for key, value in sorted(self.sampling.items()):
            data[f"sampling.{key}"] = value
        for key, value in sorted(self.fault_stats.items()):
            data[f"faults.{key}"] = value
        if self.telemetry is not None:
            for key, value in sorted(self.telemetry.summary().items()):
                data[f"telemetry.{key}"] = value
        for key, value in sorted(self.autoscale_stats.items()):
            data[f"autoscale.{key}"] = value
        for key, value in sorted(self.operator_stats.items()):
            data[f"operator.{key}"] = value
        return data
