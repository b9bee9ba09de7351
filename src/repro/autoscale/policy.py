"""Autoscaler decision machinery: thresholds, debouncing, cooldowns.

Everything here is pure state-machine code with no federation or
telemetry dependencies, so the stability properties — how many
consecutive breaching evaluations arm an action, how long after an action
the loop must hold still — are unit-testable in isolation.

The central hazard this machinery exists for is *delayed actuation*:
a weight change lands at the authority instantly, but clients converge
only as their cached TTLs lapse (22–67 s measured in E15).  A controller
that re-evaluates inside that lag sees its own action as "no effect" and,
naively, acts again — the classic weight oscillator.  The cure is the
combination used here: :class:`HysteresisGate` separates the breach and
recover thresholds *and* requires consecutive confirmations, while
:class:`Cooldown` spaces actions at least a convergence window apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

BURN_LOW = 0.25
"""SLO burn at or below which the burn trigger counts as relaxed."""


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tunables of one closed-loop autoscaler run.

    Signal inputs (read from telemetry roll-ups over the last sealed
    window):

    * ``wait_high_ms`` / ``wait_low_ms`` — zonal mean queue-wait
      hysteresis band (breach above high, recover below low);
    * ``burn_high`` — per-window SLO error-budget burn that counts as
      pressure, recovering at or below :data:`BURN_LOW` (0 disables the
      burn trigger).

    Stability:

    * ``breach_evals`` / ``recover_evals`` — consecutive evaluations the
      pressure signal must hold before the gate arms (evaluations happen
      once per *sealed telemetry window*, not per round);
    * ``cooldown_seconds`` — minimum spacing between scale-direction
      actions on one group; must cover the client convergence window or
      the loop oscillates;
    * ``ramp_cooldown_seconds`` — spacing between successive down-ramp
      steps (shorter: each step only sheds part of the standby's share);
    * ``park_delay_seconds`` — how long a fully drained standby stays
      registered (at weight 0) before being deregistered back into the
      pool, giving stale clients time to converge off it.

    The zone level, shed-rate trigger, promotion weight and drain ladder
    are constants of :mod:`repro.autoscale.scaler`.

    Determinism: the config is frozen and every threshold comparison in
    the scaler is pure arithmetic over telemetry floats, so identical
    runs make identical decisions.
    """

    wait_high_ms: float = 25.0
    wait_low_ms: float = 5.0
    burn_high: float = 1.0
    breach_evals: int = 2
    recover_evals: int = 3
    cooldown_seconds: float = 90.0
    ramp_cooldown_seconds: float = 40.0
    park_delay_seconds: float = 60.0

    def __post_init__(self) -> None:
        # ``nan < 0`` is false, so a sign check alone lets NaN through; a
        # NaN cooldown never expires and a NaN threshold never trips.
        for name in (
            "wait_high_ms",
            "wait_low_ms",
            "burn_high",
            "cooldown_seconds",
            "ramp_cooldown_seconds",
            "park_delay_seconds",
        ):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.wait_high_ms <= self.wait_low_ms:
            raise ValueError("need 0 <= wait_low_ms < wait_high_ms (hysteresis band)")
        if 0.0 < self.burn_high <= BURN_LOW:
            raise ValueError(f"burn_high must be 0 or above BURN_LOW = {BURN_LOW} (hysteresis band)")
        if self.breach_evals < 1 or self.recover_evals < 1:
            raise ValueError("gate streaks need at least one evaluation")


@dataclass
class HysteresisGate:
    """Debounces a pressure signal into ``breach`` / ``recover`` / ``hold``.

    Each :meth:`update` takes the two band comparisons for one evaluation
    (``pressed``: above the high threshold; ``relaxed``: below the low
    threshold; both False in the dead band between them) and returns the
    armed decision:

    * ``"breach"`` once ``breach_evals`` *consecutive* pressed
      evaluations have been seen (and for every consecutive pressed
      evaluation after that — pairing with a :class:`Cooldown` spaces the
      resulting actions);
    * ``"recover"`` symmetrically after ``recover_evals`` consecutive
      relaxed evaluations;
    * ``"hold"`` otherwise.  A dead-band evaluation resets *both*
      streaks: hysteresis means flapping around either threshold never
      arms anything.

    Determinism: pure counters, no time, no randomness.
    """

    breach_evals: int
    recover_evals: int
    breach_streak: int = 0
    recover_streak: int = 0

    def __post_init__(self) -> None:
        if self.breach_evals < 1 or self.recover_evals < 1:
            raise ValueError("gate streaks need at least one evaluation")

    def update(self, pressed: bool, relaxed: bool) -> str:
        """Fold one evaluation in; returns ``breach``/``recover``/``hold``."""
        if pressed and relaxed:
            raise ValueError("a signal cannot be above high and below low at once")
        if pressed:
            self.breach_streak += 1
            self.recover_streak = 0
        elif relaxed:
            self.recover_streak += 1
            self.breach_streak = 0
        else:
            self.breach_streak = 0
            self.recover_streak = 0
        if self.breach_streak >= self.breach_evals:
            return "breach"
        if self.recover_streak >= self.recover_evals:
            return "recover"
        return "hold"


@dataclass
class Cooldown:
    """Minimum simulated-time spacing between actions.

    :meth:`ready` answers whether enough time has passed since the last
    :meth:`stamp` (always true before the first stamp); the caller stamps
    only when it actually acts, so a blocked decision retries at the next
    evaluation rather than resetting its own timer.
    """

    seconds: float
    last_at: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.seconds < 0.0:
            raise ValueError("a cooldown cannot be negative")

    def ready(self, now: float) -> bool:
        return self.last_at is None or now - self.last_at >= self.seconds

    def stamp(self, now: float) -> None:
        self.last_at = now
