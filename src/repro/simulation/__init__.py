"""Deterministic simulation support: clock, network latency model, metrics."""

from repro.simulation.clock import SimulatedClock
from repro.simulation.lru import LruCache, LruStats
from repro.simulation.metrics import Histogram, MetricsRegistry, Summary, float_sum, percentile
from repro.simulation.network import (
    LatencyModel,
    NetworkStats,
    SimulatedNetwork,
)
from repro.simulation.queueing import (
    QueueStats,
    ServerOverloadedError,
    ServerQueue,
    ServiceTimeModel,
)

__all__ = [
    "Histogram",
    "LatencyModel",
    "LruCache",
    "LruStats",
    "MetricsRegistry",
    "NetworkStats",
    "QueueStats",
    "ServerOverloadedError",
    "ServerQueue",
    "ServiceTimeModel",
    "SimulatedClock",
    "SimulatedNetwork",
    "Summary",
    "float_sum",
    "percentile",
]
