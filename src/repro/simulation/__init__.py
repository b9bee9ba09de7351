"""Deterministic simulation support: clock, network latency model, metrics."""

from repro.simulation.metrics import percentile
from repro.simulation.network import SimulatedNetwork
from repro.simulation.queueing import ServerQueue, ServiceTimeModel

__all__ = ["ServerQueue", "ServiceTimeModel", "SimulatedNetwork", "percentile"]
