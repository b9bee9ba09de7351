"""Workload run configuration and the per-device RNG seed streams.

:class:`WorkloadConfig` is every tunable of one fleet run, with all
cross-field validation in ``__post_init__`` so a bad config is rejected at
construction rather than misbehaving mid-run.  The seed helpers derive
each device's independent RNG streams from the run seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.autoscale.policy import AutoscalerConfig
from repro.churn.schedule import ChurnSchedule
from repro.control.schedule import ControlSchedule
from repro.faults.schedule import FaultPlan
from repro.operator.config import OperatorConfig
from repro.telemetry import TelemetryConfig

_CLIENT_SEED_STRIDE = 1_000_003
"""Prime stride separating per-client RNG streams derived from one seed."""

_SELECTION_SEED_SALT = 0xD15C
"""XOR salt deriving a device's RFC 2782 weighted-selection stream."""

_JITTER_SEED_SALT = 0x5EED
"""XOR salt deriving a device's network jitter/loss stream."""

_BACKOFF_SEED_SALT = 0xB0FF
"""XOR salt deriving a device's retry-backoff jitter stream."""

_OPERATOR_SEED_SALT = 0xC7A1
"""XOR salt deriving the operator console's control-hop jitter/loss stream
(bare run seed, not a device base, so it collides with no device stream
under the same argument as the POI shuffle)."""


def operator_seed(seed: int) -> int:
    """The operator client's network-draw stream seed for a run seed."""
    return seed ^ _OPERATOR_SEED_SALT


def client_base_seed(seed: int, index: int) -> int:
    """Device ``index``'s base (mobility/traffic) RNG seed for a run seed."""
    return seed + _CLIENT_SEED_STRIDE * (index + 1)


def derived_seed_streams(seed: int, index: int) -> dict[str, int]:
    """Every RNG stream seed derived for one device, by family.

    Collision-freedom argument (audited for 100k–1M-device fleets): base
    seeds are ``seed + stride·(i+1)`` with a stride of 1,000,003, so two
    distinct devices' base seeds differ by at least the stride.  The
    selection, jitter and backoff families are the base XOR a salt below
    2^16; two integers whose XOR is below 2^16 agree on every bit from 16
    up and so differ by less than 65,536 < stride.  Hence a salted seed
    can never collide with any *other* device's seed in the same or
    another family, and within one device the three salts (and their
    pairwise XORs) are non-zero, so all four streams are distinct.  The
    engine-level POI shuffle uses the bare run ``seed`` — device index −1
    under the same argument — and can collide with nothing either.
    ``tests/test_rng_streams.py`` asserts both the pairwise-distinctness
    and the salts-below-stride invariant this argument rests on.
    """
    base = client_base_seed(seed, index)
    return {
        "base": base,
        "selection": base ^ _SELECTION_SEED_SALT,
        "jitter": base ^ _JITTER_SEED_SALT,
        "backoff": base ^ _BACKOFF_SEED_SALT,
    }


@dataclass(frozen=True)
class WorkloadConfig:
    """Tunables of one workload run."""

    clients: int = 25
    steps: int = 8
    seed: int = 0
    step_seconds: float = 2.0
    """Wall-clock pacing between fleet rounds (thinking/walking time)."""
    resolver_pools: int = 1
    """Recursive resolvers to shard the fleet across (round-robin).  One pool
    is the historical single-shared-resolver deployment; more pools model
    regional resolver deployments, each with its own DNS cache."""
    long_traces: bool = False
    """Give the fleet's commuter cohort scripted multi-stop journeys
    (:class:`~repro.workload.mobility.CommuterTrace`) instead of the fast
    ping-pong handoff.  With dwell times, a circuit spans multiple
    registration/discovery TTLs of simulated time, so commuters re-enter
    zones with every cache layer gone stale."""
    trace_dwell_steps: int = 3
    """Steps a long-trace commuter dwells at each stop (``long_traces``
    only).  Bigger dwells stretch the journey across more TTL windows."""
    churn: ChurnSchedule | None = None
    """Membership churn applied while the fleet runs: the engine plays the
    schedule through a :class:`~repro.churn.controller.ChurnController` at
    round boundaries, so crashes/leaves/rejoins land between concurrent
    rounds exactly as TTL expiry does."""
    control: ControlSchedule | None = None
    """Operator actions applied while the fleet runs: the engine plays the
    tape through a :class:`~repro.control.plane.ControlPlane` at round
    boundaries (same granularity as churn), then tracks each device's
    stale SRV view until it converges on the new advertisement —
    ``WorkloadReport.control_stats`` reports the convergence tail."""
    faults: FaultPlan | None = None
    """Correlated-disaster tape applied while the fleet runs: the engine
    plays the plan through a :class:`~repro.faults.injector.FaultInjector`
    at round boundaries (faults land before churn and control), mutating the network's fault state — partitions, gray
    failures, authority outages — and charging active flash crowds' load.
    ``None`` attaches no fault state at all, keeping fault-free runs
    byte-identical to the pre-fault engine."""
    telemetry: TelemetryConfig | None = None
    """Windowed-telemetry pipeline config.  ``None`` (default) collects no
    telemetry and adds no snapshot keys, so telemetry-free runs stay
    byte-identical to builds without the telemetry subsystem; set one and
    the run's windows become queryable via ``WorkloadReport.telemetry``."""
    autoscale: AutoscalerConfig | None = None
    """Closed-loop autoscaler config.  Requires ``telemetry`` (the scaler
    reads only telemetry roll-ups); it evaluates once per sealed window at
    round boundaries and drives the federation's warm pools
    (``Federation.attach_warm_pool``) through its own control plane.
    ``None`` (default) builds no scaler, registers no observer and adds no
    snapshot keys, so autoscaler-off runs stay byte-identical to builds
    without the autoscale subsystem."""
    operator: OperatorConfig | None = None
    """Route the run's control traffic through the operator API layer
    (:mod:`repro.operator`): the control tape is replayed as authenticated
    ``ControlRequest`` messages by a
    :class:`~repro.operator.client.NetworkedControlPlayer`, and the
    autoscaler's batches (if any) travel the same door.  With
    ``transport="network"`` every request pays simulated control-hop
    latency/loss/partitions; ``"direct"`` keeps the exchange in-process.
    ``None`` (default) builds no API, charges nothing, and adds no
    snapshot keys, so operator-free runs stay byte-identical to builds
    without the operator subsystem."""
    cohort_min_clients: int = 5000
    """Fleet size at or above which the engine stops materializing
    every device and switches to the cohort fast path (tracers + phantom
    batch load).  Fleets below the threshold — including every committed
    byte-gated benchmark — run the exact per-device path."""

    def __post_init__(self) -> None:
        # NaN passes every ``< 1`` check below, and a float count only fails
        # mid-build, in ``range`` or a slice; so counts must be true ints.
        for name in ("clients", "steps", "resolver_pools", "trace_dwell_steps", "cohort_min_clients"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.clients < 1:
            raise ValueError("a workload needs at least one client")
        if self.steps < 1:
            raise ValueError("a workload needs at least one step")
        if not (0.0 <= self.step_seconds < math.inf):
            raise ValueError(f"step_seconds must be finite and >= 0, got {self.step_seconds}")
        if self.resolver_pools < 1:
            raise ValueError("a workload needs at least one resolver pool")
        if self.trace_dwell_steps < 0:
            raise ValueError("trace dwell steps cannot be negative")
        if self.cohort_min_clients < 1:
            raise ValueError("cohort threshold must be positive")
        if self.autoscale is not None and self.telemetry is None:
            raise ValueError(
                "the autoscaler reads only telemetry roll-ups; "
                "set WorkloadConfig.telemetry alongside autoscale"
            )
        # A device's client region is its resolver-pool index, so a region
        # outside [0, resolver_pools) names no device: a partition scoped to
        # it would be recorded as applied yet cut nobody.
        for event in self.faults or ():
            for region in event.regions:
                if not 0 <= region < self.resolver_pools:
                    raise ValueError(
                        f"fault event at {event.at_seconds}s names client region {region}, "
                        f"but the fleet has only regions 0..{self.resolver_pools - 1} (resolver_pools)"
                    )
        if self.operator is not None and self.operator.region is not None:
            if not 0 <= self.operator.region < self.resolver_pools:
                raise ValueError(
                    f"operator region {self.operator.region} is outside the fleet's "
                    f"regions 0..{self.resolver_pools - 1} (resolver_pools)"
                )
