"""Deterministic fault tapes: scripted correlated failures.

A :class:`FaultPlan` is the disaster-side sibling of
:class:`repro.churn.schedule.ChurnSchedule` (what happens to servers) and
:class:`repro.control.schedule.ControlSchedule` (what operators do): a
time-ordered tape of *correlated* failure events the workload engine
applies at round boundaries through a
:class:`repro.faults.injector.FaultInjector`.

Four primitive families compose every disaster in the scenario library:

* **Partitions** — a set of servers becomes unreachable from every client
  region or from named regions only (the asymmetric case), then heals.
* **Gray failures** — a server stays up but every exchange with it pays a
  latency multiplier and/or an elevated loss rate (bounded retransmits;
  exhaustion fails the attempt).
* **Authority outages** — a DNS authority stops answering; resolution
  times out to SERVFAIL and clients must coast on their caches.
* **Flash crowds** — external load (a stadium filling) slams a server
  set with extra arrivals of one request kind each round.

Tapes are plain data (no RNG): disasters are scripted incidents, so the
same plan replays byte for byte.  Like control tapes — and unlike churn
tapes — same-instant events keep their authored order, because fault
events at one instant routinely depend on each other (heal one cut, open
the next).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.simulation.tape import Tape


class FaultEventKind(str, Enum):
    """What the disaster does to the federation at one instant."""

    PARTITION = "partition"
    """Cut the network between ``server_ids`` and clients — every region,
    or only the ``regions`` named (asymmetric partition)."""

    HEAL_PARTITION = "heal-partition"
    """Heal a previously opened partition (same scoping rules)."""

    GRAY = "gray"
    """Degrade ``server_ids``: multiply exchange latency by
    ``latency_multiplier`` and/or raise loss to ``loss_probability``."""

    HEAL_GRAY = "heal-gray"
    """Clear the gray failure on ``server_ids``."""

    AUTHORITY_DOWN = "authority-down"
    """Take DNS authorities offline; empty ``server_ids`` means the
    federation's discovery authority."""

    AUTHORITY_UP = "authority-up"
    """Bring DNS authorities back (same empty-means-discovery rule)."""

    FLASH_CROWD = "flash-crowd"
    """Start slamming ``server_ids`` with ``extra_load`` additional
    ``load_kind`` arrivals per server per round (external demand the
    fleet does not issue — a stadium filling)."""

    FLASH_CROWD_END = "flash-crowd-end"
    """The crowd disperses."""


_NEEDS_SERVERS = (
    FaultEventKind.PARTITION,
    FaultEventKind.HEAL_PARTITION,
    FaultEventKind.GRAY,
    FaultEventKind.HEAL_GRAY,
    FaultEventKind.FLASH_CROWD,
    FaultEventKind.FLASH_CROWD_END,
)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One correlated-failure mutation at one simulated instant."""

    at_seconds: float
    kind: FaultEventKind
    server_ids: tuple[str, ...] = ()
    regions: tuple[int, ...] = ()
    """Client regions (resolver-pool indices) on the cut side of a
    partition; empty means the partition severs every region."""
    latency_multiplier: float = 1.0
    loss_probability: float = 0.0
    extra_load: int = 0
    load_kind: str = "search"

    def __post_init__(self) -> None:
        if not (0.0 <= self.at_seconds < math.inf):
            raise ValueError(
                f"at_seconds must be finite and >= 0 (fault events cannot predate the run), "
                f"got {self.at_seconds}"
            )
        if self.kind in _NEEDS_SERVERS and not self.server_ids:
            raise ValueError(f"{self.kind.value} events need server ids")
        if self.kind == FaultEventKind.GRAY:
            if not (1.0 <= self.latency_multiplier < math.inf):
                raise ValueError(
                    f"latency_multiplier must be finite and >= 1 (a gray failure cannot speed a "
                    f"server up), got {self.latency_multiplier}"
                )
            if not (0.0 <= self.loss_probability < 1.0):
                raise ValueError("gray loss probability must be in [0, 1)")
            if self.latency_multiplier == 1.0 and self.loss_probability == 0.0:
                raise ValueError("a gray failure must degrade something")
        if self.kind == FaultEventKind.FLASH_CROWD and self.extra_load < 1:
            raise ValueError("a flash crowd needs positive extra load")


class FaultPlan(Tape[FaultEvent]):
    """A time-ordered tape of correlated-failure events (same-instant
    events keep authored order: heal the old cut, then open the new one)."""

    @staticmethod
    def _servers_of(event: FaultEvent) -> tuple[str, ...]:
        return event.server_ids

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        """Merge two plans into one tape (disasters compose)."""
        return FaultPlan(self.events + other.events)

    @classmethod
    def partition(
        cls,
        server_ids: tuple[str, ...] | list[str],
        start_seconds: float,
        end_seconds: float | None = None,
        regions: tuple[int, ...] | list[int] = (),
    ) -> "FaultPlan":
        """A partition window: cut at ``start``, heal at ``end`` (if given)."""
        ids = tuple(server_ids)
        cut = tuple(regions)
        events = [
            FaultEvent(start_seconds, FaultEventKind.PARTITION, ids, regions=cut)
        ]
        if end_seconds is not None:
            if end_seconds <= start_seconds:
                raise ValueError("a partition must heal after it opens")
            events.append(
                FaultEvent(end_seconds, FaultEventKind.HEAL_PARTITION, ids, regions=cut)
            )
        return cls(tuple(events))

    @classmethod
    def gray(
        cls,
        server_ids: tuple[str, ...] | list[str],
        start_seconds: float,
        end_seconds: float | None = None,
        latency_multiplier: float = 1.0,
        loss_probability: float = 0.0,
    ) -> "FaultPlan":
        """A gray-failure window on a server set."""
        ids = tuple(server_ids)
        events = [
            FaultEvent(
                start_seconds,
                FaultEventKind.GRAY,
                ids,
                latency_multiplier=latency_multiplier,
                loss_probability=loss_probability,
            )
        ]
        if end_seconds is not None:
            if end_seconds <= start_seconds:
                raise ValueError("a gray failure must heal after it starts")
            events.append(FaultEvent(end_seconds, FaultEventKind.HEAL_GRAY, ids))
        return cls(tuple(events))

    @classmethod
    def authority_outage(
        cls,
        start_seconds: float,
        end_seconds: float | None = None,
        authority_ids: tuple[str, ...] | list[str] = (),
    ) -> "FaultPlan":
        """A DNS authority outage window; empty ids = the discovery authority."""
        ids = tuple(authority_ids)
        events = [FaultEvent(start_seconds, FaultEventKind.AUTHORITY_DOWN, ids)]
        if end_seconds is not None:
            if end_seconds <= start_seconds:
                raise ValueError("an outage must end after it starts")
            events.append(FaultEvent(end_seconds, FaultEventKind.AUTHORITY_UP, ids))
        return cls(tuple(events))

    @classmethod
    def flash_crowd(
        cls,
        server_ids: tuple[str, ...] | list[str],
        start_seconds: float,
        end_seconds: float,
        extra_load: int,
        load_kind: str = "search",
    ) -> "FaultPlan":
        """A flash-crowd window on a server set."""
        if end_seconds <= start_seconds:
            raise ValueError("a flash crowd must disperse after it forms")
        ids = tuple(server_ids)
        return cls(
            (
                FaultEvent(
                    start_seconds,
                    FaultEventKind.FLASH_CROWD,
                    ids,
                    extra_load=extra_load,
                    load_kind=load_kind,
                ),
                FaultEvent(
                    end_seconds, FaultEventKind.FLASH_CROWD_END, ids, load_kind=load_kind
                ),
            )
        )
