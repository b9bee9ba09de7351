"""Operator API layer: control ops as messages with auth, audit, and replay.

The packages below this one *are* the control plane's mechanics
(:mod:`repro.control` mutates SRV state, :mod:`repro.autoscale` decides
when).  This package is the **door**: every operator action becomes an
authenticated, schema-validated :class:`~repro.operator.schemas.ControlRequest`
that walks a middleware chain (validate → authenticate/authorize →
idempotency → dispatch → audit) and comes back as a
:class:`~repro.operator.schemas.ControlResponse` — optionally paying real
(simulated) network latency, loss, and partitions on the way.

See :mod:`repro.operator.api` for the middleware walk,
:mod:`repro.operator.audit` for the total-order audit log and
deterministic replay, and :mod:`repro.operator.client` for the tape
player and autoscaler adapter the workload engine swaps in when a
:class:`~repro.operator.config.OperatorConfig` is attached.
"""

from repro.operator.api import OperatorApi
from repro.operator.audit import AuditLog, replay_audit, state_digest
from repro.operator.client import NetworkedControlPlayer, OperatorClient
from repro.operator.config import OperatorConfig
from repro.operator.permissions import PrincipalRegistry

__all__ = [
    "AuditLog",
    "NetworkedControlPlayer",
    "OperatorApi",
    "OperatorClient",
    "OperatorConfig",
    "PrincipalRegistry",
    "replay_audit",
    "state_digest",
]
