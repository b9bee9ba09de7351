"""The cohort fast path held against the exact path on E16's world.

Same scenario (``bench_e16_scale.build_scale_scenario``), same
``WorkloadConfig`` (1,500 clients, 3 steps, workload seed 7); only
``cohort_min_clients`` differs: 10**9 runs every device on the exact path,
1,000 puts the fleet on the cohort fast path (tracers plus batched phantom
load).  The cohort path claims to multiply observations, never to
approximate behaviour, so every metric below should agree with the exact
path's within the band this file states.  Today it does not (ROADMAP item
1): the band tests are strict ``xfail``s whose reasons carry the measured
gap, and the change that closes the gap has to turn them into plain tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_e16_scale import build_scale_scenario  # noqa: E402
from repro.workload.config import WorkloadConfig  # noqa: E402
from repro.workload.engine import WorkloadEngine  # noqa: E402
from repro.workload.report import WorkloadReport  # noqa: E402

CLIENTS = 1_500
STEPS = 3
EXACT = 10**9
COHORT = 1_000

SATURATED = 1_500
"""Provision servers for the fleet itself: 2 workers each, and the exact path
drops ≈1.3k requests in 3 steps."""
UNSATURATED = 12_000
"""Provision servers as E16 would for 12,000 clients: 6 workers each, no
drops on either path, utilisation ≤ 0.15."""

PERCENTILE_BAND = 0.05
"""p50 / p95: the streaming histogram's own resolution (~5%), relative."""
ERRORS_BAND = (5, 0.20)
DROPPED_BAND = (10, 0.20)
WAIT_BAND_MS = (5.0, 0.25)
"""``(absolute, relative)``: the cohort value may differ from the exact one
by the larger of the two."""
UTILIZATION_BAND = 0.05
"""Per-server utilisation, absolute."""


@pytest.fixture(scope="module")
def fleet():
    """``fleet(provisioned_for, cohort_min_clients)``: the run's report, each
    configuration run once per module."""
    reports: dict[tuple[int, int], WorkloadReport] = {}

    def run(provisioned_for: int, cohort_min_clients: int) -> WorkloadReport:
        key = (provisioned_for, cohort_min_clients)
        if key not in reports:
            engine = WorkloadEngine(
                build_scale_scenario(provisioned_for),
                WorkloadConfig(
                    clients=CLIENTS, steps=STEPS, seed=7, cohort_min_clients=cohort_min_clients
                ),
            )
            reports[key] = engine.run()
        return reports[key]

    return run


def _outside(name: str, exact: float, cohort: float, absolute: float, relative: float) -> list[str]:
    allowed = max(absolute, relative * abs(exact))
    if abs(cohort - exact) <= allowed:
        return []
    return [f"{name}: exact {exact:.4g}, cohort {cohort:.4g} (band ±{allowed:.4g})"]


def band_violations(exact: WorkloadReport, cohort: WorkloadReport) -> list[str]:
    """Every metric on which ``cohort`` leaves the band around ``exact``."""
    found = _outside("errors", exact.errors, cohort.errors, *ERRORS_BAND)
    found += _outside("dropped", exact.dropped_requests, cohort.dropped_requests, *DROPPED_BAND)
    exact_tail, cohort_tail = exact.latency_percentiles(), cohort.latency_percentiles()
    for percentile in ("p50", "p95"):
        found += _outside(percentile, exact_tail[percentile], cohort_tail[percentile], 0.0, PERCENTILE_BAND)
    for server_id in sorted(exact.server_stats):
        held, batched = exact.server_stats[server_id], cohort.server_stats[server_id]
        found += _outside(
            f"{server_id} mean_wait_ms", held["mean_wait_ms"], batched["mean_wait_ms"], *WAIT_BAND_MS
        )
        found += _outside(
            f"{server_id} utilization", held["utilization"], batched["utilization"], UTILIZATION_BAND, 0.0
        )
    return found


@pytest.mark.parametrize("provisioned_for", [SATURATED, UNSATURATED], ids=["saturated", "unsaturated"])
@pytest.mark.parametrize("cohort_min_clients", [EXACT, COHORT], ids=["exact", "cohort"])
def test_every_client_step_is_a_request_or_an_error(fleet, provisioned_for, cohort_min_clients):
    report = fleet(provisioned_for, cohort_min_clients)
    assert bool(report.sampling) == (cohort_min_clients == COHORT)
    assert report.requests + report.errors == CLIENTS * STEPS


def test_the_two_configurations_straddle_saturation(fleet):
    assert fleet(SATURATED, EXACT).dropped_requests > 0
    assert fleet(UNSATURATED, EXACT).dropped_requests == 0
    assert fleet(UNSATURATED, COHORT).dropped_requests == 0


def test_a_run_is_inside_its_own_bands(fleet):
    report = fleet(SATURATED, EXACT)
    assert band_violations(report, report) == []


@pytest.mark.parametrize(
    "provisioned_for",
    [
        pytest.param(
            SATURATED,
            id="saturated",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: the cohort path under-reports failures; measured "
                "135 vs 31 errors, 1,334 vs 3,167 drops, store-0 mean wait 20.7 vs "
                "1000.9 ms, p50 506 vs 268 ms (exact vs cohort)",
            ),
        ),
        pytest.param(
            UNSATURATED,
            id="unsaturated",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: even with no drops the paths disagree; measured "
                "7 vs 31 errors, store-0 mean wait 1.0 vs 224.7 ms, p50 346 vs 220 ms "
                "(exact vs cohort)",
            ),
        ),
    ],
)
def test_the_cohort_path_stays_inside_the_exact_paths_bands(fleet, provisioned_for):
    assert band_violations(fleet(provisioned_for, EXACT), fleet(provisioned_for, COHORT)) == []
