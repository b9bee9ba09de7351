"""The operator control plane: live SRV re-weighting, drains and standbys.

The churn subsystem (:mod:`repro.churn`) models what *happens to* a
federation; this package models what an operator *does to* one while
clients are live:

* :mod:`repro.control.plane` — :class:`ControlPlane`: ``set_weight`` /
  ``drain`` / ``undrain`` / ``promote`` against a running
  :class:`repro.core.federation.Federation`, with records re-emitted at the
  authority add-before-remove (no NXDOMAIN window) and weights preserved
  across crash/expire/revive.
* :mod:`repro.control.schedule` — :class:`ControlSchedule`: deterministic
  operator-action tapes the workload engine applies at round boundaries,
  mirroring :class:`repro.churn.schedule.ChurnSchedule`.

The client's possibly-stale ``(priority, weight)`` view, refreshed only as
its discovery-cache/DNS-TTL entries expire, is
:class:`repro.core.srv_view.DeviceSrvView`; the convergence lag it causes
is what ``WorkloadReport.control_stats`` measures.
"""

from repro.control.plane import AppliedControlEvent, ControlOp, ControlPlane
from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule

__all__ = [
    "AppliedControlEvent",
    "ControlEvent",
    "ControlEventKind",
    "ControlOp",
    "ControlPlane",
    "ControlSchedule",
]
