"""Cohort planning: the large-fleet fast path's sampling structure.

Above :class:`~repro.workload.engine.WorkloadConfig.cohort_min_clients`
the engine stops materializing one Python client stack per device and
instead partitions the fleet into *cohorts* of statistically identical
devices: same mobility family (and parameters), same resolver pool, same
request mix, and no individual state at fleet build time.  Each cohort is
represented by a handful of **tracer** devices — real, fully simulated
:class:`~repro.workload.engine.FleetClient`s that keep their true
index-derived RNG streams, caches, replica-health memories and SRV views
— while the rest of the cohort exists only as integer *phantom* counts
whose server-side load each tracer charges in batch after its own request
(:meth:`repro.simulation.queueing.ServerQueue.phantom_arrivals`).

Tracers ARE the slow-path escape hatch: any state that makes a device
individual (a mid-decay cache entry, a `ReplicaHealth` memory, a stale
``srv_view`` after an operator re-weight) lives on tracers and is
simulated per-device through the full client stack; phantoms never carry
state, which is exactly what makes them batchable.

Weights are integral and exact: a cohort of ``N`` devices with ``T``
tracers gives the first ``N mod T`` tracers weight ``N // T + 1`` and the
rest ``N // T``, so the weights sum to ``N`` and every fleet-level
counter extrapolates without rounding drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover - cycle guard: workload.fleet imports this module
    from repro.workload.fleet import FleetClient


@dataclass
class Cohort:
    """One equivalence class of statistically identical devices."""

    key: Hashable
    """Statistical-identity key: ``(mobility spec, resolver pool index)``."""

    label: str
    """Human-readable id used in the report's ``sampling.*`` keys."""

    population: int = 0
    """Total devices in the cohort (tracers + phantoms)."""

    tracer_indices: list[int] = field(default_factory=list)
    """Device indices simulated for real — the lowest indices of the
    cohort, so their seed-derived RNG streams are exactly the streams
    those devices would own in an exact run."""

    tracers: list["FleetClient"] = field(default_factory=list)
    """Materialized tracer devices (filled in by the engine)."""

    def tracer_weights(self) -> list[int]:
        """Integral per-tracer weights that sum exactly to ``population``."""
        count = len(self.tracer_indices)
        if count == 0:
            return []
        base, remainder = divmod(self.population, count)
        return [base + 1 if i < remainder else base for i in range(count)]

    @property
    def phantom_count(self) -> int:
        return self.population - len(self.tracer_indices)


def plan_cohorts(
    assignments: Iterable[tuple[int, Hashable, str]],
    tracers_per_cohort: int,
) -> list[Cohort]:
    """Partition device indices into cohorts, picking tracer indices.

    ``assignments`` yields ``(device index, cohort key, cohort label)`` in
    index order; the first ``tracers_per_cohort`` indices of each cohort
    become its tracers.  One arithmetic pass — no device objects are
    created here, so planning a million-device fleet costs a dict lookup
    per index and nothing else.
    """
    if tracers_per_cohort < 1:
        raise ValueError("a cohort needs at least one tracer")
    cohorts: dict[Hashable, Cohort] = {}
    for index, key, label in assignments:
        cohort = cohorts.get(key)
        if cohort is None:
            cohort = Cohort(key=key, label=label)
            cohorts[key] = cohort
        cohort.population += 1
        if len(cohort.tracer_indices) < tracers_per_cohort:
            cohort.tracer_indices.append(index)
    return list(cohorts.values())
