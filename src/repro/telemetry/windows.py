"""Windowed telemetry records: the emission format of the pipeline.

One :class:`TelemetryWindow` holds everything the federation emitted over
one span of simulated time, in two families:

* **client-side request records**, keyed ``(cell token, region, kind)`` —
  weighted counters (requests, errors, degraded serves, latency-SLO
  violations) plus one mergeable *streaming* histogram of latency per key,
  so a window's memory is O(distinct keys × histogram buckets) no matter
  how many requests (or phantom cohort weights) landed in it;
* **server-side queue deltas**, keyed by server id — the per-window
  difference of the server queue's cumulative accounting (arrivals, waits,
  drops, busy time, per-kind arrivals), phantom cohort weights included.

Windows are *mergeable*: :meth:`TelemetryWindow.merge_from` folds one
window into another (counters add, histograms merge bucket-wise), which is
what temporal downsampling uses to keep retention bounded — merging two
adjacent windows yields exactly the window that would have been emitted at
double the width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.metrics import Histogram

CellKey = tuple[str, int, str]
"""One request-record key: (covering-cell token, client region, request kind)."""


def _latency_histogram() -> Histogram:
    return Histogram("latency_ms", streaming=True)


@dataclass
class CellStats:
    """Weighted request accounting for one (cell, region, kind) key."""

    requests: float = 0.0
    errors: float = 0.0
    degraded: float = 0.0
    slow: float = 0.0
    """Requests served over the configured latency SLO threshold."""
    latency: Histogram = field(default_factory=_latency_histogram)

    def observe(
        self,
        latency_ms: float,
        weight: float,
        ok: bool,
        degraded: bool,
        slow: bool,
    ) -> None:
        self.requests += weight
        if degraded:
            self.degraded += weight
        if not ok:
            self.errors += weight
            return
        self.latency.observe(latency_ms, weight)
        if slow:
            self.slow += weight

    def merge_from(self, other: "CellStats") -> None:
        self.requests += other.requests
        self.errors += other.errors
        self.degraded += other.degraded
        self.slow += other.slow
        self.latency.merge(other.latency)

    @property
    def bad(self) -> float:
        """SLO-bad share of this key: no service at all, or served too slow."""
        return self.errors + self.slow


@dataclass
class ServerWindowStats:
    """One server queue's per-window delta (phantom cohort weights included)."""

    arrivals: float = 0.0
    served: float = 0.0
    dropped: float = 0.0
    wait_ms: float = 0.0
    busy_ms: float = 0.0
    workers: float = 0.0
    """Gauge, not a counter: the server's worker count as last observed in
    the window (0 when the frame predates the gauge).  Supply-side roll-ups
    multiply it by the window span to get serving capacity."""
    kinds: dict[str, float] = field(default_factory=dict)

    def merge_from(self, other: "ServerWindowStats") -> None:
        self.arrivals += other.arrivals
        self.served += other.served
        self.dropped += other.dropped
        self.wait_ms += other.wait_ms
        self.busy_ms += other.busy_ms
        self.workers = max(self.workers, other.workers)
        for kind, count in other.kinds.items():
            self.kinds[kind] = self.kinds.get(kind, 0.0) + count

    @property
    def shed_rate(self) -> float:
        return self.dropped / self.arrivals if self.arrivals else 0.0

    @property
    def mean_wait_ms(self) -> float:
        return self.wait_ms / self.served if self.served else 0.0


@dataclass
class TelemetryWindow:
    """Everything the federation emitted over one span of simulated time."""

    index: int
    start_seconds: float
    end_seconds: float
    cells: dict[CellKey, CellStats] = field(default_factory=dict)
    servers: dict[str, ServerWindowStats] = field(default_factory=dict)
    faults_active: tuple[str, ...] = ()
    """Fault families in force during (any part of) the window, sorted."""

    def record(
        self,
        cell: str,
        region: int,
        kind: str,
        latency_ms: float,
        weight: float,
        ok: bool,
        degraded: bool,
        slow: bool,
    ) -> None:
        key = (cell, region, kind)
        stats = self.cells.get(key)
        if stats is None:
            stats = self.cells[key] = CellStats()
        stats.observe(latency_ms, weight, ok, degraded, slow)

    def merge_from(self, other: "TelemetryWindow") -> None:
        """Fold ``other`` (the later window) into this one."""
        self.end_seconds = other.end_seconds
        for key, stats in other.cells.items():
            mine = self.cells.get(key)
            if mine is None:
                self.cells[key] = stats
            else:
                mine.merge_from(stats)
        for server_id, stats in other.servers.items():
            mine_s = self.servers.get(server_id)
            if mine_s is None:
                self.servers[server_id] = stats
            else:
                mine_s.merge_from(stats)
        self.faults_active = tuple(
            sorted(set(self.faults_active) | set(other.faults_active))
        )

    @property
    def requests(self) -> float:
        return sum(stats.requests for stats in self.cells.values())

    @property
    def regions(self) -> tuple[int, ...]:
        return tuple(sorted({key[1] for key in self.cells}))

    def region_totals(self, region: int) -> dict[str, float]:
        """This window's weighted request accounting for one client region."""
        totals = {"requests": 0.0, "errors": 0.0, "degraded": 0.0, "slow": 0.0}
        for (_, key_region, _), stats in self.cells.items():
            if key_region != region:
                continue
            totals["requests"] += stats.requests
            totals["errors"] += stats.errors
            totals["degraded"] += stats.degraded
            totals["slow"] += stats.slow
        return totals
