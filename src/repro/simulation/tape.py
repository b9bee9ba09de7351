"""Time-ordered event tapes and the cursor that plays them.

Churn schedules, control schedules and fault plans are the same container
three times: an immutable, time-sorted tuple of events that a
deployment-side actor plays forward as simulated time passes.
:class:`Tape` is that container; :class:`TapeCursor` is the "everything due
at or before ``now``" walk each actor's ``apply_until`` used to hand-roll.
Event types need only an ``at_seconds`` attribute.

What playing a tape did is a :class:`TimelineEntry`: one record type for
every actor that changes a run's state (the fault injector, the churn
controller, the control plane and the operator-API paths in front of it),
appended once, by the code that made the change, to the one list a run
shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterable, Iterator, TypeVar

E = TypeVar("E")


@dataclass(frozen=True, slots=True)
class TimelineEntry:
    """One state change an actor made, or refused, at one instant.

    ``source`` is ``"faults"``, ``"churn"`` or ``"control"``; ``subject`` is
    a server id, or a fault's targets (``"a,b"``, ``"discovery-authority"``,
    with any ``@regions=`` scope).  ``applied`` is False for a no-op against
    current state (healing a partition never cut) or an action the
    federation rejected.  A control entry's ``(priority, weight)`` is the
    server's SRV state *after* the action — the convergence target the
    workload engine tracks devices against — and the live state when
    rejected.
    """

    at_seconds: float
    source: str
    kind: str
    subject: str
    applied: bool = True
    priority: int = 0
    weight: int = 0


@dataclass(frozen=True)
class Tape(Generic[E]):
    """An immutable tape of events, sorted at construction."""

    events: tuple[E, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(self.events, key=self._sort_key)))

    @staticmethod
    def _sort_key(event: E):
        """Time ONLY, relying on sort stability: same-instant events keep
        their authored order ("set the weight, THEN drain"; "heal one cut,
        then open the next").  Tapes whose same-instant events never depend
        on each other may override with a total order."""
        return event.at_seconds

    @staticmethod
    def _servers_of(event: E) -> tuple[str, ...]:
        """The server ids one event touches."""
        return (event.server_id,)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[E]:
        return iter(self.events)

    @property
    def horizon_seconds(self) -> float:
        return self.events[-1].at_seconds if self.events else 0.0

    @property
    def servers(self) -> tuple[str, ...]:
        return tuple(sorted({sid for event in self.events for sid in self._servers_of(event)}))

    @classmethod
    def from_events(cls, events: Iterable[E]):
        """A trace-driven tape from an explicit event list."""
        return cls(tuple(events))


@dataclass
class TapeCursor(Generic[E]):
    """A forward-only read position over a tape's sorted events."""

    events: tuple[E, ...] = ()
    position: int = 0

    def due(self, now: float) -> Iterator[E]:
        """Yield, consuming, every unplayed event at or before ``now``."""
        events = self.events
        while self.position < len(events) and events[self.position].at_seconds <= now:
            event = events[self.position]
            self.position += 1
            yield event

    @property
    def remaining(self) -> int:
        return len(self.events) - self.position
