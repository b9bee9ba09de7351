"""Dynamic federation membership: join, leave, crash and lease expiry.

The paper treats map servers as long-lived DNS registrants; a production
federation churns.  Operators deploy new servers, crash, and re-register
while millions of clients hold TTL-stale caches.  This package makes that
churn a first-class, measurable part of the simulation:

* :mod:`repro.churn.schedule` — deterministic, seeded join/leave/crash
  event schedules (Poisson-generated or trace-driven).
* :mod:`repro.churn.controller` — applies schedule events to a running
  :class:`repro.core.federation.Federation` mid-run, with real record
  removal at the authority and lease (registration-TTL) expiry for
  crashed servers that stop refreshing.

What churn is survived *with* lives lower down: replica groups in
:mod:`repro.core.replicas`, and the client's retry policies, replica
health and failover planning in :mod:`repro.services.retry`,
:mod:`repro.services.health` and :mod:`repro.services.failover`.
"""

from repro.churn.controller import AppliedChurnEvent, ChurnController
from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule

# Kept for perfbench/workloads.py, which imports RetryPolicy from here and
# is frozen as the benchmark's own code; every other caller imports it from
# repro.services.retry.
from repro.services.retry import RetryPolicy

__all__ = [
    "AppliedChurnEvent",
    "ChurnController",
    "ChurnEvent",
    "ChurnEventKind",
    "ChurnSchedule",
    "RetryPolicy",
]
