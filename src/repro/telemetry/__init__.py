"""Federation-wide telemetry: windowed emission, spatial roll-ups, SLO burn.

Every per-request datum a fleet produces used to be thrown away after one
end-of-run percentile snapshot — there was no way to see *where* (which
covering cell, which region) or *when* (which window) load, latency, or
failures concentrated.  This package is the observability substrate that
fixes that:

* :mod:`repro.telemetry.windows` — the emission format: per-window
  counters plus mergeable streaming histograms keyed by covering cell,
  client region, and request kind, with per-server queue deltas alongside.
* :mod:`repro.telemetry.spatial` — zonal statistics aggregated up the
  cell hierarchy: demand heatmaps by cell level, per-cell latency
  percentiles, queue-wait and shed-rate maps over servers' covering cells.
* :mod:`repro.telemetry.slo` — per-region SLO burn: error-budget
  consumption against configurable latency/availability SLOs, with
  per-window burn-rate alerting.
* :mod:`repro.telemetry.pipeline` — the :class:`TelemetryPipeline` tying
  it together: round-boundary flushes seal windows, temporal downsampling
  keeps retention bounded (a million-client run produces bounded output),
  and the sealed windows are queryable after the run via
  ``WorkloadReport.telemetry``.
* :mod:`repro.telemetry.reader` — the :class:`TelemetryReader` query
  surface closed-loop controllers consume *during* a run: trailing-window
  zonal stats, demand slopes, burn rates, and SLO attainment, all
  computed from sealed windows only (a controller sees what monitoring
  emitted, never the raw simulation state).

Telemetry is **off by default**: a :class:`repro.workload.WorkloadConfig`
without a ``telemetry`` config runs byte-identically to a build without
this package.
"""

from repro.telemetry.pipeline import TelemetryConfig, TelemetryPipeline
from repro.telemetry.slo import SLOConfig

__all__ = ["SLOConfig", "TelemetryConfig", "TelemetryPipeline"]
