"""The operator control plane: mutate live federation SRV state safely.

:class:`ControlPlane` is the deployment-side actor operators use to reshape
traffic *while clients are live*:

* :meth:`ControlPlane.set_weight` — change a server's RFC 2782 SRV weight.
  The new weight propagates through the
  :class:`~repro.discovery.registry.DiscoveryRegistry` (records re-emitted
  add-before-remove, so the spatial names never stop resolving — no
  NXDOMAIN window) and survives crash/expire/revive exactly as the
  registration-time weights do.
* :meth:`ControlPlane.drain` / :meth:`ControlPlane.undrain` — the
  maintenance idiom: weight 0 makes a replica healthy-but-last-resort per
  :func:`repro.services.failover.rfc2782_order`, so its live traffic moves to
  pool mates as client caches converge, with zero failed requests; undrain
  restores the remembered pre-drain weight.
* :meth:`ControlPlane.promote` — move a server between strict priority
  tiers (e.g. a warm standby from tier 1 into serving tier 0).

Mutations are immediate at the authority; *clients* converge only as their
discovery-cache and DNS-TTL entries expire (see
:class:`repro.core.srv_view.DeviceSrvView`), which is precisely the
operational lag the workload engine's ``control_stats`` measure.

With a :class:`~repro.control.schedule.ControlSchedule` attached the plane
doubles as the scripted-incident player, mirroring
:class:`repro.churn.controller.ChurnController`: :meth:`apply_until` applies
every due event, recording an :class:`AppliedControlEvent` per action
(``applied=False`` for actions the federation rejected, e.g. an unknown
server or draining a group's last positive weight).

Programmatic controllers (the autoscaler) use :meth:`apply_batch` instead
of a schedule: a list of :class:`ControlOp` values applied together at one
instant, with the same record-don't-raise semantics — one decision cycle
lands as one audited batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.errors import FederationConfigError
from repro.core.federation import Federation
from repro.core.replicas import DEFAULT_REPLICA_WEIGHT
from repro.simulation.tape import TapeCursor


@dataclass(frozen=True, slots=True)
class ControlOp:
    """One imperative operator action, ready for :meth:`ControlPlane.apply_batch`.

    ``value`` is the weight for ``SET_WEIGHT``/``UNDRAIN`` (``None`` lets
    undrain restore the remembered pre-drain weight) and the target tier
    for ``PROMOTE``; ``DRAIN`` ignores it.
    """

    kind: ControlEventKind
    server_id: str
    value: int | None = None


@dataclass(frozen=True, slots=True)
class AppliedControlEvent:
    """One operator action the plane performed (or had rejected)."""

    at_seconds: float
    kind: str
    server_id: str
    applied: bool = True
    priority: int = 0
    weight: int = 0
    """The server's SRV ``(priority, weight)`` *after* the action — the
    convergence target the workload engine tracks each device against."""


@dataclass
class ControlPlane:
    """Drives deliberate SRV mutations through a live federation."""

    federation: Federation
    schedule: ControlSchedule | None = None
    applied: list[AppliedControlEvent] = field(default_factory=list)
    _cursor: TapeCursor[ControlEvent] = field(init=False, repr=False)
    _predrain_weights: dict[str, int] = field(default_factory=dict)
    """Weight each drained server carried before its drain, so
    :meth:`undrain` restores the operator's intent, not a guess."""

    def __post_init__(self) -> None:
        self._cursor = TapeCursor(self.schedule.events if self.schedule is not None else ())

    # ------------------------------------------------------------------
    # Imperative operator API
    # ------------------------------------------------------------------
    def set_weight(self, server_id: str, weight: int) -> tuple[int, int]:
        """Re-weight a live server's SRV records; returns its new (p, w).

        A positive weight also clears any remembered pre-drain weight: the
        operator has explicitly chosen a new one.
        """
        priority, new_weight = self.federation.set_srv(server_id, weight=weight)
        if weight > 0:
            self._predrain_weights.pop(server_id, None)
        return (priority, new_weight)

    def drain(self, server_id: str) -> tuple[int, int]:
        """Weight a server to 0 (healthy-but-last-resort), remembering the
        previous weight for :meth:`undrain`."""
        _, previous = self.federation.srv_of(server_id)
        result = self.federation.set_srv(server_id, weight=0)
        if previous > 0:
            self._predrain_weights[server_id] = previous
        return result

    def undrain(self, server_id: str, weight: int | None = None) -> tuple[int, int]:
        """Restore a drained server's pre-drain weight (or an explicit one).

        A server never drained through this plane (or drained from weight 0)
        comes back at :data:`~repro.core.replicas.DEFAULT_REPLICA_WEIGHT`.
        The remembered weight is consumed only once the restore actually
        lands — a rejected undrain (e.g. the server is gone right now) keeps
        the memory for a later retry.
        """
        if weight is None:
            weight = self._predrain_weights.get(server_id, DEFAULT_REPLICA_WEIGHT)
        result = self.federation.set_srv(server_id, weight=weight)
        self._predrain_weights.pop(server_id, None)
        return result

    def promote(self, server_id: str, priority: int) -> tuple[int, int]:
        """Move a server to a (usually lower-numbered) priority tier."""
        return self.federation.set_srv(server_id, priority=priority)

    @property
    def pending_events(self) -> int:
        return self._cursor.remaining

    # ------------------------------------------------------------------
    # Shared application core
    # ------------------------------------------------------------------
    def _perform(
        self,
        at_seconds: float,
        kind: ControlEventKind,
        server_id: str,
        value: int | None,
    ) -> AppliedControlEvent:
        """Apply one action, returning its audit record.

        An action the live federation rejects (unknown server, draining a
        group's last positive weight) is recorded with ``applied=False``,
        not raised: tapes keep playing and controller batches keep landing,
        mirroring the churn controller's inapplicable events.
        """
        try:
            if kind == ControlEventKind.SET_WEIGHT:
                priority, weight = self.set_weight(server_id, value)
            elif kind == ControlEventKind.DRAIN:
                priority, weight = self.drain(server_id)
            elif kind == ControlEventKind.UNDRAIN:
                priority, weight = self.undrain(server_id, value)
            else:
                priority, weight = self.promote(server_id, value)
        except (FederationConfigError, ValueError):
            # Record the server's *live* SRV state, not a fabricated (0, 0):
            # a later op in the same batch (or a replaying audit consumer)
            # must see the true convergence target even for rejected ops.
            # Unknown / undeployed servers have no live state — keep (0, 0).
            try:
                priority, weight = self.federation.srv_of(server_id)
            except FederationConfigError:
                priority, weight = 0, 0
            return AppliedControlEvent(
                at_seconds,
                kind.value,
                server_id,
                applied=False,
                priority=priority,
                weight=weight,
            )
        return AppliedControlEvent(
            at_seconds, kind.value, server_id, priority=priority, weight=weight
        )

    def apply_batch(self, now: float, ops: Sequence[ControlOp]) -> list[AppliedControlEvent]:
        """Apply a batch of imperative ops at one instant, in order.

        The batch is a controller's one decision cycle (e.g. two ramp
        steps plus a promotion): every op is attempted — a rejected op is
        recorded ``applied=False`` and does not stop the rest — and all
        records land in :attr:`applied` together, so the audit trail shows
        which cycle issued what.  Returns the batch's records.
        """
        performed = [self._perform(now, op.kind, op.server_id, op.value) for op in ops]
        self.applied.extend(performed)
        return performed

    # ------------------------------------------------------------------
    # Scheduled application (round boundaries, via the workload engine)
    # ------------------------------------------------------------------
    def apply_until(self, now: float) -> list[AppliedControlEvent]:
        """Apply every scheduled action due at or before ``now``."""
        performed = [
            self._perform(event.at_seconds, event.kind, event.server_id, event.value)
            for event in self._cursor.due(now)
        ]
        self.applied.extend(performed)
        return performed
