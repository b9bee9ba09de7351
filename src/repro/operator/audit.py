"""The operator API's append-only audit log, and deterministic replay.

Every request that reaches the API — applied, rejected, or replayed from
the idempotency cache — lands here as one :class:`AuditRecord` with a
monotonically increasing ``seq``.  That sequence is the control plane's
*total order*: when two operators race (say, conflicting drains on the
same replica group from opposite sides of a partition), whichever request
reached the API first holds the lower ``seq``, and the loser's record
shows the ``conflict`` that resolved it.  There is no voting and no
merge — the audit log IS the arbitration.

Because records carry the full request (principal, action, server, value,
token) plus the outcome, the log doubles as a deterministic tape:
:func:`replay_audit` re-issues every record against a fresh API over a
fresh federation and must land the exact same final SRV state —
:func:`state_digest` turns that state into one comparable hash.  The
idempotency tokens travel too, so records that were replays dedupe again
on replay instead of double-applying.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.core.federation import Federation

if TYPE_CHECKING:  # pragma: no cover - cycle guard: operator.api imports this module
    from repro.operator.api import OperatorApi


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One request's immutable audit entry.

    ``outcome`` is ``applied`` (the op landed), ``rejected`` (an
    :class:`~repro.operator.errors.ApiError` family, named by ``error``),
    or ``replayed`` (idempotency-cache hit echoing an earlier record).
    ``priority``/``weight`` are the target's live SRV state after the
    request, mirroring :class:`~repro.control.plane.AppliedControlEvent`.
    """

    seq: int
    at_seconds: float
    principal: str
    action: str
    server_id: str | None
    value: int | None
    token: str
    outcome: str
    error: str | None = None
    priority: int = 0
    weight: int = 0
    transport: str = "direct"

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "seq": self.seq,
            "at_seconds": self.at_seconds,
            "principal": self.principal,
            "action": self.action,
            "server_id": self.server_id,
            "value": self.value,
            "token": self.token,
            "outcome": self.outcome,
            "priority": self.priority,
            "weight": self.weight,
            "transport": self.transport,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


@dataclass
class AuditLog:
    """Append-only, sequence-numbered record list shared by an API's routes.

    Two APIs (two operator consoles) may share one log — that is exactly
    how conflicting concurrent ops get a single arbitrated order."""

    records: list[AuditRecord] = field(default_factory=list)

    def append(
        self,
        *,
        at_seconds: float,
        principal: str,
        action: str,
        server_id: str | None,
        value: int | None,
        token: str,
        outcome: str,
        error: str | None = None,
        priority: int = 0,
        weight: int = 0,
        transport: str = "direct",
    ) -> AuditRecord:
        """Stamp the next sequence number and append; returns the record."""
        record = AuditRecord(
            seq=len(self.records) + 1,
            at_seconds=at_seconds,
            principal=principal,
            action=action,
            server_id=server_id,
            value=value,
            token=token,
            outcome=outcome,
            error=error,
            priority=priority,
            weight=weight,
            transport=transport,
        )
        self.records.append(record)
        return record

    def tail(self, limit: int | None = None) -> tuple[AuditRecord, ...]:
        """The trailing ``limit`` records (all of them when ``None``)."""
        if limit is None or limit >= len(self.records):
            return tuple(self.records)
        if limit <= 0:
            return ()
        return tuple(self.records[-limit:])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self.records)


def state_digest(federation: Federation) -> str:
    """One hash over every server's operator-visible state.

    Folds ``(server_id, priority, weight, registered, parked, offline)``
    for every deployed *or* offline server, sorted by id, through
    SHA-256.  Two federations agree on this digest exactly when an
    operator could not tell them apart — the equality the audit-replay
    determinism test asserts.
    """
    rows = []
    ids = set(federation.servers) | set(federation.offline_server_ids)
    for server_id in sorted(ids):
        priority, weight = federation.srv_of(server_id)
        rows.append(
            (
                server_id,
                priority,
                weight,
                int(server_id in federation.registry.registrations),
                int(federation.is_parked(server_id)),
                int(federation.is_offline(server_id)),
            )
        )
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def replay_audit(records: Iterable[AuditRecord], api: "OperatorApi") -> int:
    """Re-issue audited requests against a fresh API; returns the count.

    Read-only ``events`` requests are skipped (they cannot change state
    and their responses depend on log length).  Everything else — applied,
    rejected, and replayed records alike — is re-issued verbatim with its
    original token and timestamp: rejections must re-reject, and replays
    must hit the fresh API's idempotency cache again, or the original run
    was not deterministic.
    """
    replayed = 0
    for record in records:
        if record.action == "events":
            continue
        payload: dict[str, Any] = {
            "principal": record.principal,
            "action": record.action,
            "token": record.token,
        }
        if record.server_id is not None:
            payload["server_id"] = record.server_id
        if record.value is not None:
            payload["value"] = record.value
        api.handle(payload, now=record.at_seconds, transport=record.transport)
        replayed += 1
    return replayed
