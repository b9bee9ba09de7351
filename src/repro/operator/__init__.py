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

from repro.operator.audit import AuditLog, AuditRecord, replay_audit, state_digest
from repro.operator.api import OperatorApi
from repro.operator.client import (
    NetworkedControlPlayer,
    OperatorClient,
    OperatorControlAdapter,
    OperatorResult,
)
from repro.operator.config import OperatorConfig
from repro.operator.errors import (
    ApiError,
    ConflictError,
    MalformedError,
    UnauthorizedError,
    UnavailableError,
)
from repro.operator.permissions import (
    ACTION_PERMISSIONS,
    ALL_PERMISSIONS,
    AUDIT_READ,
    CONTROL_WRITE,
    HEALTH_REPORT,
    POOL_WRITE,
    Principal,
    PrincipalRegistry,
)
from repro.operator.schemas import ACTIONS, ControlRequest, ControlResponse

__all__ = [
    "ACTIONS",
    "ACTION_PERMISSIONS",
    "ALL_PERMISSIONS",
    "AUDIT_READ",
    "ApiError",
    "AuditLog",
    "AuditRecord",
    "CONTROL_WRITE",
    "ConflictError",
    "ControlRequest",
    "ControlResponse",
    "HEALTH_REPORT",
    "MalformedError",
    "NetworkedControlPlayer",
    "OperatorApi",
    "OperatorClient",
    "OperatorControlAdapter",
    "OperatorConfig",
    "OperatorResult",
    "POOL_WRITE",
    "Principal",
    "PrincipalRegistry",
    "UnauthorizedError",
    "UnavailableError",
    "replay_audit",
    "state_digest",
]
