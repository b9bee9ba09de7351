"""Configuration for routing a workload run's control ops through the API.

:class:`OperatorConfig` is the engine-facing switch: attach one to
:class:`~repro.workload.engine.WorkloadConfig` and the run's control
tape (and its autoscaler, if any) stops calling
:class:`~repro.control.plane.ControlPlane` methods directly and instead
issues authenticated :class:`~repro.operator.schemas.ControlRequest`
messages through an :class:`~repro.operator.api.OperatorApi`.

``transport="direct"`` keeps the exchange in-process (zero network
charge, zero RNG draws) — byte-identical engine output is the contract,
which is why the default engine path (no operator config at all) and the
direct transport coexist.  ``transport="network"`` charges each request
one operator→control round trip on the run's
:class:`~repro.simulation.network.SimulatedNetwork`, subject to the same
jitter, loss, gray failures, and region partitions as data traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_TRANSPORTS = ("direct", "network")


@dataclass(frozen=True)
class OperatorConfig:
    """How a workload run's operator traffic travels.

    ``endpoint_id`` names the control endpoint for fault scoping (gray
    failures / partitions on that id hit control traffic); ``None`` uses
    the federation's discovery authority.  ``region`` is where the
    operator's console sits — region-scoped partitions are evaluated from
    there.  ``timeout_ms`` is the patience charged when the endpoint is
    unreachable or a response is lost.  The run's autoscaler, if any,
    sends its batches through the same API as the same principal.
    """

    transport: str = "network"
    principal: str = "ops"
    endpoint_id: str | None = None
    region: int | None = None
    timeout_ms: float = 300.0

    def __post_init__(self) -> None:
        if self.transport not in _TRANSPORTS:
            raise ValueError(f"transport must be one of {_TRANSPORTS}")
        if not self.principal:
            raise ValueError("operator runs need a principal name")
        if not (0.0 <= self.timeout_ms < math.inf):
            raise ValueError(f"timeout_ms must be finite and >= 0, got {self.timeout_ms}")
