"""Deterministic fault injection: correlated disasters as replayable tapes.

Churn (:mod:`repro.churn`) models *independent* failures — one server
crashes, one lease expires.  Production federations are judged on the
*correlated* ones: a region loses its uplink, a DNS authority goes dark, a
stadium fills, a bad kernel rolls across a replica group.  This package
makes those first-class:

* :mod:`repro.faults.schedule` — :class:`FaultPlan` tapes (the third
  sibling of :class:`~repro.churn.schedule.ChurnSchedule` and
  :class:`~repro.control.schedule.ControlSchedule`): time-ordered
  partition / gray-failure / authority-outage / flash-crowd events with
  windowed constructors.
* :mod:`repro.faults.injector` — :class:`FaultInjector` applies a plan's
  events to a running federation's
  :class:`~repro.simulation.network.NetworkFaultState` at round
  boundaries, exactly as the churn controller and control plane do.

The named disaster library built from these tapes (regional outage,
stadium flash crowd, authority outage with cache coasting, asymmetric
partition with conflicting operator drains, rolling gray failure) composes
whole workloads, so it lives above them in :mod:`repro.workload.scenarios`,
its acceptance bands checked by ``benchmarks/bench_e17_faults.py``.

Tapes are plain data: the same plan replays byte for byte, and a run with
no plan attaches no fault state at all — byte-identical to the fault-free
engine.
"""

from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultPlan

__all__ = ["FaultInjector", "FaultPlan"]
