"""Applies a :class:`FaultPlan` to a running federation.

The :class:`FaultInjector` is the disaster-side sibling of
:class:`repro.churn.controller.ChurnController` and
:class:`repro.control.plane.ControlPlane`: the workload engine calls
:meth:`FaultInjector.apply_until` at each round boundary (before churn
and control), and every due tape event mutates the
network's :class:`~repro.simulation.network.NetworkFaultState` — the
primitives the data path consults per exchange.

Flash crowds are the one primitive that is load, not connectivity: while a
crowd is active, :meth:`inject_round_load` charges its extra arrivals into
the target servers' queues each round (batch phantom arrivals, exactly the
mechanism the cohort fast path uses), so fleet requests queue behind the
crowd and the overload is measured, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.federation import Federation
from repro.faults.schedule import FaultEvent, FaultEventKind, FaultPlan
from repro.simulation.network import GrayFailure, NetworkFaultState
from repro.simulation.tape import TapeCursor, TimelineEntry


@dataclass
class FaultInjector:
    """Plays a fault tape into a federation's network fault state."""

    federation: Federation
    plan: FaultPlan
    timeline: list[TimelineEntry] = field(default_factory=list)
    """Where entries land; the workload engine passes its run's one list."""
    _cursor: TapeCursor[FaultEvent] = field(init=False, repr=False)
    _active_crowds: dict[tuple[tuple[str, ...], str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._cursor = TapeCursor(self.plan.events)
        # Attach the fault state now: from here on every map-server exchange
        # consults it, whether or not an event is ever due.
        self.federation.network.fault_state()

    @property
    def state(self) -> NetworkFaultState:
        return self.federation.network.fault_state()

    def active_fault_kinds(self) -> tuple[str, ...]:
        """Every fault family currently in force, sorted — the network
        layer's view plus flash crowds, which only the injector tracks."""
        kinds = set(self.state.active_fault_kinds())
        if self._active_crowds:
            kinds.add("flash-crowd")
        return tuple(sorted(kinds))

    def apply_until(self, now_seconds: float) -> list[TimelineEntry]:
        """Apply every tape event due at or before ``now_seconds``."""
        performed = [self._apply(event) for event in self._cursor.due(now_seconds)]
        self.timeline.extend(performed)
        return performed

    @property
    def exhausted(self) -> bool:
        return self._cursor.remaining == 0

    def inject_round_load(self) -> None:
        """Charge every active flash crowd's arrivals for this round."""
        if not self._active_crowds:
            return
        servers = self.federation.all_servers
        for (server_ids, load_kind), extra_load in self._active_crowds.items():
            for server_id in server_ids:
                server = servers.get(server_id)
                if server is not None and server.queue is not None:
                    server.queue.phantom_arrivals(load_kind, extra_load)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _authority_ids(self, event: FaultEvent) -> tuple[str, ...]:
        if event.server_ids:
            return event.server_ids
        return (self.federation.discovery_authority_id,)

    def _apply(self, event: FaultEvent) -> TimelineEntry:
        state = self.state
        kind = event.kind
        applied = False
        if kind == FaultEventKind.PARTITION:
            for sid in event.server_ids:
                applied = state.block(sid, event.regions or None) or applied
        elif kind == FaultEventKind.HEAL_PARTITION:
            for sid in event.server_ids:
                applied = state.unblock(sid, event.regions or None) or applied
        elif kind == FaultEventKind.GRAY:
            gray = GrayFailure(
                latency_multiplier=event.latency_multiplier,
                loss_probability=event.loss_probability,
            )
            for sid in event.server_ids:
                applied = state.set_gray(sid, gray) or applied
        elif kind == FaultEventKind.HEAL_GRAY:
            for sid in event.server_ids:
                applied = state.clear_gray(sid) or applied
        elif kind == FaultEventKind.AUTHORITY_DOWN:
            for sid in self._authority_ids(event):
                applied = state.authority_down(sid) or applied
        elif kind == FaultEventKind.AUTHORITY_UP:
            for sid in self._authority_ids(event):
                applied = state.authority_up(sid) or applied
        elif kind == FaultEventKind.FLASH_CROWD:
            key = (event.server_ids, event.load_kind)
            applied = self._active_crowds.get(key) != event.extra_load
            self._active_crowds[key] = event.extra_load
        elif kind == FaultEventKind.FLASH_CROWD_END:
            key = (event.server_ids, event.load_kind)
            applied = self._active_crowds.pop(key, None) is not None

        detail = ",".join(event.server_ids) or "discovery-authority"
        if event.regions:
            detail += f"@regions={','.join(map(str, event.regions))}"
        return TimelineEntry(event.at_seconds, "faults", kind.value, detail, applied)
