"""The autoscaler-facing query surface over a live telemetry pipeline.

Closed-loop control must not peek at the raw simulation state (the
engine's omniscient ``server_stats``, the queue objects themselves): a
production controller only ever sees what the monitoring system emitted.
:class:`TelemetryReader` enforces that boundary — it wraps a
:class:`~repro.telemetry.pipeline.TelemetryPipeline` and answers the
questions a controller actually asks, all computed from *sealed* windows:

* supply side: zonal queue-wait / shed-rate / utilization maps over the
  trailing windows (:meth:`zonal`);
* demand side: per-cell demand and its slope between the last two
  windows (:meth:`demand`, :meth:`demand_slope`);
* SLO side: trailing burn rate per region and across regions
  (:meth:`burn`, :meth:`max_burn`) and whole-run SLO attainment
  (:meth:`attainment`).

Determinism: every query is a pure fold over the pipeline's sealed
windows — no clocks, no randomness — so identical runs read identical
signals.  The open (unsealed) window is deliberately invisible: signals
change only when a window seals, which is what paces a controller's
evaluations to the telemetry cadence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.pipeline import TelemetryPipeline
from repro.telemetry.spatial import cell_ancestor, demand_by_cell, server_zonal
from repro.telemetry.windows import TelemetryWindow


@dataclass
class TelemetryReader:
    """Read-only roll-up queries over one pipeline's sealed windows.

    Args are the pipeline to wrap; all methods take ``last`` — how many
    trailing sealed windows to fold (bounded by what retention kept) —
    and return plain floats/dicts ready for threshold comparisons.
    """

    pipeline: TelemetryPipeline

    # ------------------------------------------------------------------
    # Window access
    # ------------------------------------------------------------------
    @property
    def window_count(self) -> int:
        """Sealed windows currently retained (grows as rounds seal them;
        shrinks only under retention downsampling)."""
        return len(self.pipeline.windows)

    def last_windows(self, last: int = 1) -> tuple[TelemetryWindow, ...]:
        """The trailing ``last`` sealed windows, oldest first (fewer when
        the run has not sealed that many yet)."""
        if last < 1:
            raise ValueError("a reader query needs at least one window")
        return tuple(self.pipeline.windows[-last:])

    def has_signal(self, last: int = 1) -> bool:
        """Whether the trailing sealed windows carry any samples at all
        (a request sample or a server frame delta).

        A window can seal with *zero* samples — an all-quiet cell, an
        all-shed round where nothing reached a queue, a fleet that went
        dark.  Every accessor below answers such windows with its neutral
        fallback (0.0 / empty map / attainment 1.0), which is correct for
        *display* but poison for *control*: zero pressure and "no data"
        must not look alike to a controller deciding to scale down.  This
        is the distinguishing predicate — missing data is no signal.
        """
        return any(
            window.cells or window.servers for window in self.last_windows(last)
        )

    # ------------------------------------------------------------------
    # Supply side (zonal roll-ups)
    # ------------------------------------------------------------------
    def zonal(self, level: int, last: int = 1) -> dict[str, dict[str, float]]:
        """Queue-wait/shed/utilization map per level-``level`` zone over
        the trailing windows (see :func:`repro.telemetry.spatial.server_zonal`)."""
        return server_zonal(
            self.last_windows(last), self.pipeline.server_cells, level
        )

    # ------------------------------------------------------------------
    # Demand side
    # ------------------------------------------------------------------
    def demand(self, level: int, last: int = 1) -> dict[str, float]:
        """Weighted request count per level-``level`` cell over the
        trailing windows."""
        return demand_by_cell(self.last_windows(last), level)

    def demand_rate(self, zone: str, level: int, window: TelemetryWindow) -> float:
        """One window's demand in one zone, in requests per simulated
        second (0 for zero-span windows)."""
        span = window.end_seconds - window.start_seconds
        if span <= 0.0:
            return 0.0
        total = 0.0
        for (token, _region, _kind), stats in window.cells.items():
            if cell_ancestor(token, level) == zone:
                total += stats.requests
        return total / span

    def demand_slope(self, zone: str, level: int) -> float:
        """Change in a zone's demand rate between the last two sealed
        windows (requests/second difference; positive = load rising,
        negative = ebbing).  0.0 until two windows exist — a controller
        must not infer a trend from a single sample."""
        if len(self.pipeline.windows) < 2:
            return 0.0
        previous, latest = self.pipeline.windows[-2], self.pipeline.windows[-1]
        return self.demand_rate(zone, level, latest) - self.demand_rate(
            zone, level, previous
        )

    # ------------------------------------------------------------------
    # SLO side
    # ------------------------------------------------------------------
    def burn(self, region: int, last: int = 1) -> float:
        """The region's worst per-window SLO burn rate over the trailing
        windows (0.0 for a region with no traffic)."""
        series = self.pipeline.burn_series(region)
        trailing = series[-last:] if series else []
        return max(trailing) if trailing else 0.0

    def max_burn(self, last: int = 1) -> float:
        """Worst trailing burn across every region seen so far."""
        regions = self.pipeline.regions()
        return max((self.burn(region, last) for region in regions), default=0.0)

    def attainment(self) -> float:
        """Whole-run SLO attainment: the weighted fraction of requests
        that were served *and* under the latency SLO, over every retained
        window (1.0 when nothing was recorded yet)."""
        requests = bad = 0.0
        for window in self.pipeline.windows:
            for stats in window.cells.values():
                requests += stats.requests
                bad += stats.bad
        return 1.0 - (bad / requests) if requests else 1.0
