"""Workload generation: fleets of simulated clients issuing mixed traffic.

The paper argues DNS-based spatial discovery scales because map-server
addresses rarely change and are therefore highly cacheable (Section 5.1).
This package provides the traffic side of that argument: deterministic,
seedable fleets of :class:`repro.core.client.OpenFlameClient` devices that
move through the world under simple mobility models and issue a mixed
search/route/tile/localize workload with Zipf-distributed POI popularity,
so caches can be measured under realistic request streams.
"""

from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.workload.fleet import FleetClient

__all__ = ["FleetClient", "WorkloadConfig", "WorkloadEngine"]
