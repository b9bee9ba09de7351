"""The operator API: routes, middleware, and dispatch over one federation.

:class:`OperatorApi` is the server side of the control plane's message
layer.  One :meth:`~OperatorApi.handle` call is one request's complete
middleware walk, in a fixed order any web framework would recognize:

1. **validate** — :meth:`ControlRequest.from_payload` (malformed stops here);
2. **authenticate / authorize** — the principal registry (unauthorized
   stops here, before any state is read);
3. **idempotency** — a ``(principal, token)`` cache of terminal responses;
   a hit replays the original outcome with ``replayed=True`` and applies
   nothing twice;
4. **dispatch** — the route itself (SRV mutation through a
   :class:`~repro.control.plane.ControlPlane`, warm-pool park/unpark,
   health ingest, audit tail);
5. **audit** — every outcome appends one
   :class:`~repro.operator.audit.AuditRecord`; the assigned ``seq`` rides
   back in the response.

Error mapping is uniform across routes: a
:class:`~repro.core.errors.FederationConfigError` (unknown / undeployed /
offline target) becomes ``unavailable``; a ``ValueError`` (a federation
guard like "last positive weight in the group") becomes ``conflict``.
Conflicts are terminal and cached; unavailable is retryable and not.

Each SRV route that reaches dispatch records exactly one control
:class:`~repro.simulation.tape.TimelineEntry` through its plane's
:meth:`~repro.control.plane.ControlPlane.record` — a rejected op records
the target's *live* SRV state, the same record-don't-raise contract a tape
op keeps — so engine convergence tracking works identically whichever
door an op came through.  Replays and pre-dispatch rejections record
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.control.plane import ControlPlane
from repro.core.errors import FederationConfigError
from repro.core.federation import Federation
from repro.operator.audit import AuditLog
from repro.operator.errors import (
    ApiError,
    ConflictError,
    MalformedError,
    UnauthorizedError,
    UnavailableError,
)
from repro.operator.permissions import PrincipalRegistry
from repro.operator.schemas import ControlRequest, ControlResponse

_SRV_ACTIONS = frozenset({"set-weight", "drain", "undrain", "promote"})
_POOL_ACTIONS = frozenset({"park", "unpark"})


@dataclass
class OperatorApi:
    """One federation's operator-facing control endpoint."""

    federation: Federation
    principals: PrincipalRegistry = field(default_factory=PrincipalRegistry)
    audit: AuditLog = field(default_factory=AuditLog)
    plane: ControlPlane | None = None
    health_board: dict[str, tuple[float, int]] = field(default_factory=dict)
    """Latest ``(at_seconds, value)`` gossip per server from the
    ``health`` route — observability state, never consulted by routing."""
    _responses: dict[tuple[str, str], ControlResponse] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.plane is None:
            self.plane = ControlPlane(self.federation)

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------
    def handle(
        self, payload: Any, now: float, transport: str = "direct"
    ) -> ControlResponse:
        """Walk one request through the middleware chain; always returns
        a response (errors become ``status="error"``, never raises)."""
        try:
            request = ControlRequest.from_payload(payload)
        except MalformedError as exc:
            return self._reject_unparsed(payload, now, transport, exc)
        try:
            principal = self.principals.authenticate(request.principal)
            self.principals.authorize(principal, request.action)
        except UnauthorizedError as exc:
            return self._finish(request, now, transport, error=exc)

        cached = self._responses.get((request.principal, request.token))
        if cached is not None:
            replayed = replace(cached, replayed=True)
            self.audit.append(
                at_seconds=now,
                principal=request.principal,
                action=request.action,
                server_id=request.server_id,
                value=request.value,
                token=request.token,
                outcome="replayed",
                error=cached.error,
                priority=cached.priority,
                weight=cached.weight,
                transport=transport,
            )
            return replayed

        try:
            priority, weight, events = self._dispatch(request, now)
        except ApiError as exc:
            return self._finish(request, now, transport, error=exc)
        return self._finish(
            request, now, transport, priority=priority, weight=weight, events=events
        )

    # ------------------------------------------------------------------
    # Middleware pieces
    # ------------------------------------------------------------------
    def _dispatch(
        self, request: ControlRequest, now: float
    ) -> tuple[int, int, tuple[dict[str, Any], ...] | None]:
        if request.action in _SRV_ACTIONS:
            priority, weight = self._srv_op(request, now)
            return priority, weight, None
        if request.action in _POOL_ACTIONS:
            priority, weight = self._pool_op(request)
            return priority, weight, None
        if request.action == "health":
            priority, weight = self._health(request, now)
            return priority, weight, None
        tail = self.audit.tail(request.value)
        return 0, 0, tuple(record.to_payload() for record in tail)

    def _srv_op(self, request: ControlRequest, now: float) -> tuple[int, int]:
        plane = self.plane
        server_id = request.server_id or ""
        assert plane is not None  # __post_init__ guarantees it
        try:
            if request.action == "set-weight":
                priority, weight = plane.set_weight(server_id, request.value or 0)
            elif request.action == "drain":
                priority, weight = plane.drain(server_id)
            elif request.action == "undrain":
                priority, weight = plane.undrain(server_id, request.value)
            else:
                priority, weight = plane.promote(server_id, request.value or 0)
        except FederationConfigError as exc:
            plane.record(now, request.action, server_id, applied=False)
            raise UnavailableError(str(exc)) from exc
        except ValueError as exc:
            plane.record(now, request.action, server_id, applied=False)
            raise ConflictError(str(exc)) from exc
        plane.record(now, request.action, server_id, priority=priority, weight=weight)
        return priority, weight

    def _pool_op(self, request: ControlRequest) -> tuple[int, int]:
        federation = self.federation
        server_id = request.server_id or ""
        try:
            priority, weight = federation.srv_of(server_id)
        except FederationConfigError as exc:
            raise UnavailableError(str(exc)) from exc
        if federation.is_offline(server_id):
            raise ConflictError(
                f"map server {server_id!r} is offline — revive it first"
            )
        try:
            if request.action == "park":
                if weight > 0:
                    raise ConflictError(
                        f"map server {server_id!r} still carries weight {weight} — "
                        "drain it before parking"
                    )
                federation.park_map_server(server_id)
            else:
                federation.unpark_map_server(server_id)
        except FederationConfigError as exc:
            # Lifecycle races (crashed between the checks above and the
            # mutation) surface as conflicts: the request was valid, the
            # state won.
            raise ConflictError(str(exc)) from exc
        return federation.srv_of(server_id)

    def _health(self, request: ControlRequest, now: float) -> tuple[int, int]:
        server_id = request.server_id or ""
        self.health_board[server_id] = (now, request.value or 0)
        return self.plane.live_srv(server_id)

    # ------------------------------------------------------------------
    # Response/audit assembly
    # ------------------------------------------------------------------
    def _finish(
        self,
        request: ControlRequest,
        now: float,
        transport: str,
        *,
        error: ApiError | None = None,
        priority: int | None = None,
        weight: int | None = None,
        events: tuple[dict[str, Any], ...] | None = None,
    ) -> ControlResponse:
        if priority is None or weight is None:
            priority, weight = self.plane.live_srv(request.server_id)
        record = self.audit.append(
            at_seconds=now,
            principal=request.principal,
            action=request.action,
            server_id=request.server_id,
            value=request.value,
            token=request.token,
            outcome="applied" if error is None else "rejected",
            error=None if error is None else error.code,
            priority=priority,
            weight=weight,
            transport=transport,
        )
        response = ControlResponse(
            status="ok" if error is None else "error",
            error=None if error is None else error.code,
            detail="" if error is None else str(error),
            priority=priority,
            weight=weight,
            seq=record.seq,
            events=events,
        )
        # Cache terminal outcomes (success and conflict alike) so retries
        # replay instead of double-applying.  Retryable families stay
        # uncached on purpose, and so does unauthorized: a principal whose
        # grant lands mid-incident may legitimately reissue its token.
        if error is None or isinstance(error, ConflictError):
            self._responses[(request.principal, request.token)] = response
        return response

    def _reject_unparsed(
        self, payload: Any, now: float, transport: str, exc: MalformedError
    ) -> ControlResponse:
        principal = "?"
        action = "?"
        token = "?"
        if isinstance(payload, Mapping):
            principal = str(payload.get("principal", "?")) or "?"
            action = str(payload.get("action", "?")) or "?"
            token = str(payload.get("token", "?")) or "?"
        record = self.audit.append(
            at_seconds=now,
            principal=principal,
            action=action,
            server_id=None,
            value=None,
            token=token,
            outcome="rejected",
            error=exc.code,
            transport=transport,
        )
        return ControlResponse(
            status="error", error=exc.code, detail=str(exc), seq=record.seq
        )
