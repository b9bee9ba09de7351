"""A deterministic simulated clock.

Every latency-sensitive component (DNS caches, network links, service
benchmarks) reads time from a :class:`SimulatedClock` instead of the wall
clock, making experiments reproducible and letting tests fast-forward through
TTL expiry without sleeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class SimulatedClock:
    """A monotonically advancing clock measured in seconds."""

    _now: float = 0.0
    _advance_count: int = field(default=0, repr=False)

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (finite and non-negative)."""
        if not (0.0 <= seconds < math.inf):
            raise _bad_advance(seconds, "seconds")
        self._now += seconds
        self._advance_count += 1
        return self._now

    def advance_ms(self, milliseconds: float) -> float:
        """Advance the clock by ``milliseconds`` (finite and non-negative).

        Every simulated exchange lands here, so this does its own arithmetic
        — the same as :meth:`advance` — instead of paying a second call.
        """
        seconds = milliseconds / 1000.0
        if not (0.0 <= seconds < math.inf):
            raise _bad_advance(milliseconds, "milliseconds")
        self._now += seconds
        self._advance_count += 1
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute instant (must not be earlier);
        ``advance`` is the relative-delta API nearly everything uses."""
        if timestamp < self._now:
            raise ValueError("cannot advance the clock backwards")
        return self.advance(timestamp - self._now)

    def rewind_to(self, timestamp: float) -> float:
        """Rewind to an earlier instant (concurrent-branch simulation only).

        A fleet of clients acting "at the same time" is simulated by running
        each client serially from the same start instant and rewinding the
        clock between them, so that N concurrent requests advance time by the
        slowest request rather than the sum of all of them.  Only the workload
        engine's round loop should call this; everything else treats the clock
        as monotonic.
        """
        if timestamp < 0.0 or timestamp > self._now:
            raise ValueError("can only rewind to a past, non-negative instant")
        self._now = timestamp
        return self._now

    @property
    def advance_count(self) -> int:
        """How many times the clock has been advanced (useful in tests)."""
        return self._advance_count


def _bad_advance(amount: float, unit: str) -> ValueError:
    """The error for an advance that is negative, NaN or infinite: a NaN or
    infinite ``now()`` would make every later ``expires_at > now`` false."""
    if amount < 0:
        return ValueError(f"cannot advance the clock backwards ({amount} {unit})")
    return ValueError(f"cannot advance the clock by a non-finite amount ({amount} {unit})")
