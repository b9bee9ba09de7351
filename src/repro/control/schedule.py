"""Deterministic operator control schedules: scripted SRV mutations.

A :class:`ControlSchedule` is the operator-side twin of
:class:`repro.churn.schedule.ChurnSchedule`: a time-ordered tape of
*deliberate* federation mutations — weight changes, drains, undrains and
priority promotions — that the workload engine applies at round boundaries
through a :class:`repro.control.plane.ControlPlane`.  Where churn models
what *happens to* a federation, a control schedule models what an operator
*does to* it: drain a replica ahead of maintenance, restore it afterwards,
promote a warm standby into the serving tier.

Tapes are plain data (no RNG): operator actions are scripted incidents, so
the same schedule replays byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.simulation.tape import Tape


class ControlEventKind(str, Enum):
    """What the operator does to a server's SRV advertisement."""

    SET_WEIGHT = "set-weight"
    """Re-weight the server's SRV records to ``value`` (RFC 2782 weight)."""

    DRAIN = "drain"
    """Weight the server to 0: healthy but last-resort, so live traffic
    moves to its pool mates as client caches converge (maintenance prep)."""

    UNDRAIN = "undrain"
    """Restore a drained server's pre-drain weight (or ``value`` if given)."""

    PROMOTE = "promote"
    """Move the server to priority tier ``value`` (lower serves first) —
    e.g. promote a warm standby from tier 1 into serving tier 0."""


_VALUE_REQUIRED = (ControlEventKind.SET_WEIGHT, ControlEventKind.PROMOTE)


@dataclass(frozen=True, slots=True)
class ControlEvent:
    """One operator action at one simulated instant."""

    at_seconds: float
    kind: ControlEventKind
    server_id: str
    value: int | None = None
    """The new weight (``set-weight``/optionally ``undrain``) or the new
    priority tier (``promote``); unused by ``drain``."""

    def __post_init__(self) -> None:
        if self.at_seconds < 0.0:
            raise ValueError("control events cannot predate the run")
        if self.kind in _VALUE_REQUIRED and self.value is None:
            raise ValueError(f"{self.kind.value} events need a value")
        if self.value is not None and self.value < 0:
            raise ValueError("SRV weights and priorities cannot be negative")


class ControlSchedule(Tape[ControlEvent]):
    """A time-ordered tape of operator actions over federation servers.

    Same-instant events keep their authored order (the base tape's stable
    time-only sort), so an operator can express "set the weight, THEN
    drain" at one instant and get exactly that.
    """

    @classmethod
    def drain_window(
        cls,
        server_id: str,
        drain_at_seconds: float,
        undrain_at_seconds: float | None = None,
    ) -> "ControlSchedule":
        """The canonical maintenance tape: drain, and optionally restore."""
        events = [ControlEvent(drain_at_seconds, ControlEventKind.DRAIN, server_id)]
        if undrain_at_seconds is not None:
            if undrain_at_seconds <= drain_at_seconds:
                raise ValueError("undrain must come after the drain")
            events.append(
                ControlEvent(undrain_at_seconds, ControlEventKind.UNDRAIN, server_id)
            )
        return cls(tuple(events))
