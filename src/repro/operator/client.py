"""Operator-side clients: issue control requests, optionally over the wire.

Three callers share :class:`OperatorClient`:

* tests and ad-hoc operator consoles call :meth:`OperatorClient.request`
  directly;
* :class:`NetworkedControlPlayer` replays a
  :class:`~repro.control.schedule.ControlSchedule` tape through the API —
  the drop-in replacement for :class:`~repro.control.plane.ControlPlane`
  inside the workload engine when an operator config is attached (same
  ``apply_until`` / ``timeline`` / ``pending_events`` surface);
* :class:`OperatorControlAdapter` gives the autoscaler the
  ``apply_batch`` surface it expects, routed through the same API.

Transport semantics: ``direct`` hands the payload straight to
:meth:`OperatorApi.handle` (zero network charge, zero RNG draws — the
byte-identity path).  ``network`` charges one operator→control round trip
per request on the run's :class:`~repro.simulation.network.SimulatedNetwork`
first: region partitions are evaluated from the *operator's* region (the
client temporarily re-homes ``faults.active_region``), loss and gray
failures draw from the operator's own jitter stream (installed
save/restore so device streams never see control draws), and a lost or
unreachable exchange charges the full ``timeout_ms`` and reports
``unavailable`` *without the request ever reaching the API* — which is
exactly what makes retries (same idempotency token, next round) safe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.control.plane import ControlOp
from repro.control.schedule import ControlEvent, ControlSchedule
from repro.operator.api import OperatorApi
from repro.operator.schemas import ControlResponse
from repro.simulation.metrics import float_sum
from repro.simulation.network import NetworkTimeoutError
from repro.simulation.tape import TapeCursor, TimelineEntry


@dataclass(frozen=True, slots=True)
class OperatorResult:
    """One request's outcome as the operator saw it.

    ``arrived`` distinguishes "the API answered" (even with an error) from
    "the network ate it" — only non-arrivals are worth retrying with the
    same token.  ``record`` is the control entry the API's plane appended
    while handling the request (``None`` for non-SRV routes, replays,
    pre-dispatch rejections and non-arrivals).
    """

    response: ControlResponse
    record: TimelineEntry | None
    arrived: bool
    latency_ms: float


def _unavailable(detail: str) -> ControlResponse:
    return ControlResponse(status="error", error="unavailable", detail=detail)


@dataclass
class OperatorClient:
    """One principal's handle on an :class:`OperatorApi`."""

    api: OperatorApi
    principal: str = "ops"
    transport: str = "direct"
    endpoint_id: str | None = None
    region: int | None = None
    timeout_ms: float = 300.0
    jitter_rng: random.Random | None = None
    """The operator's own network-draw stream (loss/jitter on the control
    hop).  Installed around each exchange and restored afterwards, so the
    fleet's per-device streams are untouched by control traffic."""
    counters: dict[str, int] = field(
        default_factory=lambda: {
            "requests": 0,
            "delivered": 0,
            "replayed": 0,
            "conflicts": 0,
            "unauthorized": 0,
            "malformed": 0,
            "unavailable": 0,
            "timeouts": 0,
            "unreachable": 0,
        }
    )
    _token_counter: int = field(default=0, repr=False)

    def next_token(self) -> str:
        """Mint the next idempotency token (deterministic per principal)."""
        self._token_counter += 1
        return f"{self.principal}-{self._token_counter}"

    def request(
        self,
        action: str,
        server_id: str | None = None,
        value: int | None = None,
        *,
        token: str | None = None,
    ) -> OperatorResult:
        """Issue one request; retries MUST pass the original ``token``."""
        network = self.api.federation.network
        if token is None:
            token = self.next_token()
        payload: dict[str, object] = {
            "principal": self.principal,
            "action": action,
            "token": token,
        }
        if server_id is not None:
            payload["server_id"] = server_id
        if value is not None:
            payload["value"] = value
        self.counters["requests"] += 1

        latency_ms = 0.0
        if self.transport == "network":
            delivered, latency_ms = self._exchange(network)
            if not delivered:
                return OperatorResult(
                    _unavailable("control endpoint unreachable"),
                    None,
                    False,
                    latency_ms,
                )
        timeline = self.api.plane.timeline
        appended_from = len(timeline)
        response = self.api.handle(
            payload, now=network.clock.now(), transport=self.transport
        )
        record = timeline[-1] if len(timeline) > appended_from else None
        self.counters["delivered"] += 1
        if response.replayed:
            self.counters["replayed"] += 1
        elif response.error in ("conflict", "unauthorized", "malformed", "unavailable"):
            key = "conflicts" if response.error == "conflict" else response.error
            self.counters[key] += 1
        return OperatorResult(response, record, True, latency_ms)

    def _exchange(self, network) -> tuple[bool, float]:
        """Charge the operator→control round trip; ``(delivered, ms)``."""
        faults = network.faults
        saved_region = faults.active_region if faults is not None else None
        saved_stream = network.current_jitter_stream()
        if faults is not None:
            faults.active_region = self.region
        if self.jitter_rng is not None:
            network.set_jitter_stream(self.jitter_rng)
        try:
            if (
                faults is not None
                and self.endpoint_id is not None
                and not faults.server_reachable(self.endpoint_id)
            ):
                network.control_timeout(self.timeout_ms)
                self.counters["unreachable"] += 1
                return False, self.timeout_ms
            try:
                latency_ms = network.operator_control_exchange(
                    self.endpoint_id, fail_on_exhaustion=True
                )
            except NetworkTimeoutError:
                network.control_timeout(self.timeout_ms)
                self.counters["timeouts"] += 1
                return False, self.timeout_ms
            return True, latency_ms
        finally:
            if self.jitter_rng is not None:
                network.set_jitter_stream(saved_stream)
            if faults is not None:
                faults.active_region = saved_region


@dataclass(frozen=True, slots=True)
class _PendingRequest:
    """A tape event whose request never arrived — retried next round with
    the same idempotency token."""

    event: ControlEvent
    token: str


@dataclass
class NetworkedControlPlayer:
    """Replays a control tape as operator API requests.

    Duck-type compatible with :class:`~repro.control.plane.ControlPlane`
    where the workload engine touches it: ``apply_until(now)`` returning
    the round's control entries, a ``timeline`` (the API plane's, where
    every entry lands once), and ``pending_events``.  The difference is
    delivery: an event whose request the network drops stays *pending* and
    is retried each subsequent round (same token — the API dedupes if the
    original actually landed), so the tape's intent eventually converges
    and the measured ``delivery_lags`` quantify how much later than
    scripted each op took effect.  An event the API *rejects* (conflict,
    unavailable target) is terminal, exactly like a plane-rejected tape
    event.
    """

    schedule: ControlSchedule
    client: OperatorClient
    delivery_lags: list[float] = field(default_factory=list)
    retries: int = 0
    _cursor: TapeCursor[ControlEvent] = field(init=False, repr=False)
    _pending: list[_PendingRequest] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._cursor = TapeCursor(self.schedule.events)

    @property
    def timeline(self) -> list[TimelineEntry]:
        return self.client.api.plane.timeline

    @property
    def pending_events(self) -> int:
        return self._cursor.remaining + len(self._pending)

    def apply_until(self, now: float) -> list[TimelineEntry]:
        """Issue every due event (and retry every lost one) at ``now``."""
        performed: list[TimelineEntry] = []
        still_pending: list[_PendingRequest] = []
        for pending in self._pending:
            self.retries += 1
            if not self._issue(pending.event, pending.token, performed):
                still_pending.append(pending)
        self._pending = still_pending

        for event in self._cursor.due(now):
            token = self.client.next_token()
            if not self._issue(event, token, performed):
                self._pending.append(_PendingRequest(event=event, token=token))
        return performed

    def _issue(
        self, event: ControlEvent, token: str, performed: list[TimelineEntry]
    ) -> bool:
        """One attempt; ``True`` when terminal (arrived), ``False`` to retry."""
        result = self.client.request(
            event.kind.value, event.server_id, event.value, token=token
        )
        if not result.arrived:
            return False
        record = result.record
        if record is None:
            # Arrived but recorded nothing (e.g. rejected before dispatch);
            # record the rejection at the state the API answered with so
            # the tape's history stays complete.
            api = self.client.api
            record = api.plane.record(
                api.federation.network.clock.now(),
                event.kind.value,
                event.server_id,
                applied=False,
                priority=result.response.priority,
                weight=result.response.weight,
            )
        performed.append(record)
        if record.applied:
            self.delivery_lags.append(max(0.0, record.at_seconds - event.at_seconds))
        return True

    def lag_stats(self) -> dict[str, float]:
        """Mean and max delivery lag (seconds) of applied tape events."""
        lags = sorted(self.delivery_lags)
        if not lags:
            return {"mean": 0.0, "max": 0.0}
        return {"mean": float_sum(lags) / len(lags), "max": lags[-1]}


@dataclass
class OperatorControlAdapter:
    """The autoscaler's ``apply_batch`` surface, routed through the API.

    A batch op whose request never arrives is recorded ``applied=False``
    at the target's live state and *not* retried: the autoscaler re-reads
    telemetry and re-decides next evaluation, so replaying a stale
    decision would be worse than dropping it.
    """

    client: OperatorClient

    @property
    def timeline(self) -> list[TimelineEntry]:
        return self.client.api.plane.timeline

    def apply_batch(
        self, now: float, ops: "list[ControlOp] | tuple[ControlOp, ...]"
    ) -> list[TimelineEntry]:
        performed: list[TimelineEntry] = []
        for op in ops:
            record = self.client.request(op.kind.value, op.server_id, op.value).record
            if record is None:
                record = self.client.api.plane.record(now, op.kind.value, op.server_id, applied=False)
            performed.append(record)
        return performed
