"""Per-region SLO burn: error-budget consumption and burn-rate alerting.

An SLO here is the pair the fleet benchmarks already reason about
informally: a latency threshold (a request served over it is *slow*) and
an availability target (the fraction of requests that must be good — i.e.
served, and served under the threshold).  The error budget is
``1 − target``; a window's **burn rate** is the fraction of its requests
that were bad, divided by the budget — burn 1.0 means the region is
consuming budget exactly as fast as the SLO allows, burn 10 means ten
times too fast.

A window alerts when its own burn reaches :data:`ALERT_BURN_THRESHOLD`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.telemetry.windows import TelemetryWindow

ALERT_BURN_THRESHOLD = 10.0
"""Window burn at or above which the window alerts."""


@dataclass(frozen=True)
class SLOConfig:
    """One latency/availability SLO (the alert policy is module constants)."""

    latency_ms: float = 250.0
    """A request served above this is slow — it spends error budget."""
    availability_target: float = 0.99
    """Fraction of requests that must be good (served, under the latency
    threshold); the error budget is ``1 − availability_target``."""

    def __post_init__(self) -> None:
        if not (0.0 < self.latency_ms < math.inf):
            raise ValueError(f"latency_ms must be finite and > 0, got {self.latency_ms}")
        if not (0.0 < self.availability_target < 1.0):
            raise ValueError("availability target must be in (0, 1)")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.availability_target


def burn_rate(requests: float, bad: float, error_budget: float) -> float:
    """How fast a window consumed error budget (0.0 for an empty window)."""
    if requests <= 0.0:
        return 0.0
    return (bad / requests) / error_budget


def burn_series(
    windows: Sequence[TelemetryWindow], region: int, config: SLOConfig
) -> list[float]:
    """Per-window burn rate for one region, in window order."""
    series: list[float] = []
    for window in windows:
        totals = window.region_totals(region)
        bad = totals["errors"] + totals["slow"]
        series.append(burn_rate(totals["requests"], bad, config.error_budget))
    return series


def alert_windows(
    windows: Sequence[TelemetryWindow], region: int, config: SLOConfig
) -> list[int]:
    """Indices (``TelemetryWindow.index``) of windows whose burn for
    ``region`` reached :data:`ALERT_BURN_THRESHOLD`."""
    series = burn_series(windows, region, config)
    return [window.index for window, burn in zip(windows, series) if burn >= ALERT_BURN_THRESHOLD]
