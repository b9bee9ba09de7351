"""Closed-loop autoscaling: telemetry roll-ups in, control-plane ops out.

This package completes the monitor→analyze→plan→execute loop the
federation grew toward: PR 8's telemetry pipeline gave it eyes
(demand heatmaps, zonal queue-wait/shed maps, SLO burn), and this package
acts on them.  The hard rule is the *observability boundary*: the
:class:`Autoscaler` reads only what the telemetry pipeline emitted — via
:class:`repro.telemetry.reader.TelemetryReader` — never the engine's
omniscient ``server_stats`` or the queue objects themselves, exactly as a
production controller only sees its monitoring system.

* :mod:`repro.autoscale.policy` — the decision machinery, kept pure and
  unit-testable: :class:`AutoscalerConfig` (thresholds, ramps, cooldowns),
  :class:`HysteresisGate` (consecutive-evaluation debouncing of the
  pressure signal), and :class:`Cooldown` (minimum spacing between
  actions).  Hysteresis + cooldown are what keep TTL-delayed client
  convergence (22–67 s measured in E15) from turning the loop into a
  weight oscillator: the controller must *not* react to the lag between
  issuing a weight change and clients converging to it.
* :mod:`repro.autoscale.scaler` — :class:`Autoscaler`: the per-region
  control loop run at round seal via the engine's ``RoundObserver`` hook,
  issuing batched :class:`repro.control.ControlPlane` ops and accounting
  cost as replica-seconds.

The standbys it scales with are a :class:`repro.core.warmpool.WarmPool`:
pre-registered zero-weight replicas attached to one replica group
(``Federation.attach_warm_pool``), promoted by a pure weight change and
retired by drain → deregister (``park``) back into the pool.

Autoscaling is **off by default**: a
:class:`repro.workload.WorkloadConfig` without an ``autoscale`` config
runs byte-identically to a build without this package (the same
transparency discipline telemetry, faults, churn, and control follow).
"""

from repro.autoscale.policy import AutoscalerConfig, Cooldown, HysteresisGate
from repro.autoscale.scaler import Autoscaler

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "Cooldown",
    "HysteresisGate",
]
