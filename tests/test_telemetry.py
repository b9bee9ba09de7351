"""The telemetry substrate: mergeable histograms, windows, roll-ups, SLO burn.

Four layers under test, bottom-up:

* ``Histogram.merge`` — merging streaming histograms must agree *exactly*
  (same buckets ⇒ same percentiles) with observing the union stream, and
  keep memory bounded;
* window/pipeline mechanics — round-boundary sealing, temporal
  downsampling under bounded retention, server-frame diffing;
* spatial roll-ups and SLO burn — demand mass is conserved up the cell
  hierarchy, zonal attribution follows covering cells, burn alerting
  fires in (and only in) windows whose burn reaches the threshold;
* engine integration — telemetry-on runs populate
  ``WorkloadReport.telemetry`` on both paths (exact and cohort), disaster
  runs localize degraded service per region, and telemetry-off runs carry
  no trace of any of it.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.config import FederationConfig
from repro.faults.schedule import FaultPlan
from repro.simulation.metrics import Histogram
from repro.simulation.queueing import ServiceTimeModel
from repro.telemetry.pipeline import MAX_WINDOWS, TelemetryConfig, TelemetryPipeline
from repro.telemetry.slo import ALERT_BURN_THRESHOLD, SLOConfig, alert_windows, burn_rate, burn_series
from repro.telemetry.spatial import cell_ancestor, cell_percentiles, demand_by_cell, latency_by_cell
from repro.telemetry.windows import CellStats, TelemetryWindow
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.worldgen.scenario import build_scenario


class TestHistogramMerge:
    def _stream(self, seed: int, count: int) -> list[float]:
        rng = random.Random(seed)
        return [rng.lognormvariate(3.0, 1.2) for _ in range(count)]

    def test_merge_agrees_with_union_stream_exactly(self):
        """Streaming histograms share one global bucket layout, so a merge
        is byte-for-byte the histogram of the union stream — not merely
        approximately: identical buckets, identical percentiles."""
        left_values = self._stream(1, 400)
        right_values = self._stream(2, 300)
        left = Histogram("latency_ms", streaming=True)
        right = Histogram("latency_ms", streaming=True)
        union = Histogram("latency_ms", streaming=True)
        for value in left_values:
            left.observe(value)
            union.observe(value)
        for value in right_values:
            right.observe(value)
            union.observe(value)
        left.merge(right)
        assert left._bucket_weights == union._bucket_weights
        assert left.count == union.count
        for fraction in (0.5, 0.9, 0.95, 0.99):
            assert left.quantile(fraction) == union.quantile(fraction)

    def test_merge_agrees_under_weighted_observations(self):
        """Cohort-weighted observations merge exactly too."""
        left = Histogram("latency_ms", streaming=True)
        right = Histogram("latency_ms", streaming=True)
        union = Histogram("latency_ms", streaming=True)
        for value, weight in ((12.0, 500.0), (80.0, 3.0)):
            left.observe(value, weight)
            union.observe(value, weight)
        for value, weight in ((12.5, 250.0), (900.0, 7.0)):
            right.observe(value, weight)
            union.observe(value, weight)
        left.merge(right)
        assert left._bucket_weights == union._bucket_weights
        assert left.p95 == union.p95
        assert left.mean == union.mean

    def test_merge_keeps_memory_bounded(self):
        """Merging many histograms never grows past the shared bucket count."""
        total = Histogram("latency_ms", streaming=True)
        for seed in range(20):
            shard = Histogram("latency_ms", streaming=True)
            for value in self._stream(seed, 500):
                shard.observe(value)
            total.merge(shard)
        assert total.count == 20 * 500
        assert not total.values  # no raw floats retained
        assert len(total._bucket_weights) < 500  # buckets, not observations

    def test_merged_percentile_error_within_bucket_bound(self):
        """48 buckets/decade bound relative quantile error by ~4.9%."""
        values = self._stream(9, 2000)
        half = len(values) // 2
        left = Histogram("latency_ms", streaming=True)
        right = Histogram("latency_ms", streaming=True)
        for value in values[:half]:
            left.observe(value)
        for value in values[half:]:
            right.observe(value)
        left.merge(right)
        exact = Histogram("latency_ms")
        exact.observe_many(values)
        for fraction in (0.5, 0.95, 0.99):
            streamed = left.quantile(fraction)
            truth = exact.quantile(fraction)
            assert streamed == pytest.approx(truth, rel=10 ** (1 / 48) - 1)

    def test_streaming_absorbs_exact(self):
        exact = Histogram("latency_ms")
        exact.observe_many([10.0, 20.0, 30.0])
        streaming = Histogram("latency_ms", streaming=True)
        streaming.merge(exact)
        assert streaming.count == 3
        assert streaming.mean == pytest.approx(20.0)

    def test_exact_merges_exact(self):
        left = Histogram("latency_ms")
        left.observe_many([1.0, 2.0])
        right = Histogram("latency_ms")
        right.observe_many([3.0])
        left.merge(right)
        assert sorted(left.values) == [1.0, 2.0, 3.0]
        assert left.p95 == pytest.approx(2.9)

    def test_exact_refuses_streaming(self):
        exact = Histogram("latency_ms")
        streaming = Histogram("latency_ms", streaming=True)
        streaming.observe(5.0)
        with pytest.raises(ValueError):
            exact.merge(streaming)


class TestWindowMerge:
    def _window(self, index: int, start: float, end: float) -> TelemetryWindow:
        return TelemetryWindow(index=index, start_seconds=start, end_seconds=end)

    def test_merge_equals_double_width_window(self):
        """Folding window B into A yields exactly the window that would have
        been emitted at double the width — the downsampling invariant."""
        narrow_a = self._window(0, 0.0, 10.0)
        narrow_b = self._window(1, 10.0, 20.0)
        wide = self._window(0, 0.0, 20.0)
        observations = [
            ("2122", 0, "search", 30.0, 1.0, True, False, False),
            ("2122", 0, "search", 700.0, 2.0, True, False, True),
            ("2123", 1, "tiles", 15.0, 1.0, True, True, False),
            ("2122", 0, "search", 0.0, 1.0, False, False, False),
        ]
        for position, record in enumerate(observations):
            (narrow_a if position < 2 else narrow_b).record(*record)
            wide.record(*record)
        narrow_a.merge_from(narrow_b)
        assert narrow_a.start_seconds == 0.0
        assert narrow_a.end_seconds == 20.0
        assert set(narrow_a.cells) == set(wide.cells)
        for key, stats in wide.cells.items():
            merged = narrow_a.cells[key]
            assert merged.requests == stats.requests
            assert merged.errors == stats.errors
            assert merged.degraded == stats.degraded
            assert merged.slow == stats.slow
            assert merged.latency._bucket_weights == stats.latency._bucket_weights

    def test_merge_unions_fault_annotations(self):
        first = self._window(0, 0.0, 10.0)
        first.faults_active = ("gray",)
        second = self._window(1, 10.0, 20.0)
        second.faults_active = ("flash-crowd", "gray")
        first.merge_from(second)
        assert first.faults_active == ("flash-crowd", "gray")

    def test_region_totals_isolate_regions(self):
        window = self._window(0, 0.0, 10.0)
        window.record("2122", 0, "search", 10.0, 3.0, True, False, False)
        window.record("2122", 1, "search", 10.0, 5.0, False, True, False)
        assert window.regions == (0, 1)
        assert window.region_totals(0) == {
            "requests": 3.0, "errors": 0.0, "degraded": 0.0, "slow": 0.0,
        }
        assert window.region_totals(1) == {
            "requests": 5.0, "errors": 5.0, "degraded": 5.0, "slow": 0.0,
        }


class TestPipelineMechanics:
    def test_windows_seal_at_round_boundaries(self):
        """A flush seals only once the configured width has elapsed, so
        window edges always land on round boundaries (widths ≥ configured)."""
        pipeline = TelemetryPipeline(config=TelemetryConfig(window_seconds=10.0))
        pipeline.begin(0.0)
        now = 0.0
        for _ in range(6):
            now += 4.0  # rounds are narrower than the window
            pipeline.record_request("2122", 0, "search", 20.0)
            pipeline.flush(now)
        # Rounds end at 4,8,...,24; the 10s window seals at the first round
        # boundary at or past its width: 12 and 24.
        assert [w.start_seconds for w in pipeline.windows] == [0.0, 12.0]
        assert [w.end_seconds for w in pipeline.windows] == [12.0, 24.0]
        # A trailing partial window is sealed by finalize, not lost.
        pipeline.record_request("2122", 0, "search", 20.0)
        pipeline.finalize(26.0)
        assert [w.end_seconds for w in pipeline.windows] == [12.0, 24.0, 26.0]
        assert sum(w.requests for w in pipeline.windows) == 7.0

    def test_retention_downsamples_pairwise(self):
        pipeline = TelemetryPipeline(config=TelemetryConfig(window_seconds=1.0))
        pipeline.begin(0.0)
        rounds = 3 * MAX_WINDOWS + 5
        for round_index in range(rounds):
            pipeline.record_request("2122", 0, "search", 20.0)
            pipeline.flush(float(round_index + 1))
        assert MAX_WINDOWS // 2 <= len(pipeline.windows) <= MAX_WINDOWS
        # No mass lost to downsampling: records are conserved.
        assert sum(w.requests for w in pipeline.windows) == float(rounds)
        # Retained windows still tile the run contiguously.
        edges = [(w.start_seconds, w.end_seconds) for w in pipeline.windows]
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))

    def test_server_frames_diff_against_baseline(self):
        pipeline = TelemetryPipeline(config=TelemetryConfig(window_seconds=5.0))
        pre_run = {"store-0": {"arrivals": 100.0, "served": 90.0, "dropped": 10.0,
                               "wait_ms": 50.0, "busy_ms": 200.0, "kinds": {"search": 100.0}}}
        pipeline.begin(0.0, pre_run)
        after_round = {"store-0": {"arrivals": 130.0, "served": 115.0, "dropped": 15.0,
                                   "wait_ms": 80.0, "busy_ms": 260.0,
                                   "kinds": {"search": 120.0, "tiles": 10.0}}}
        pipeline.observe_servers(after_round)
        pipeline.flush(6.0)
        (window,) = pipeline.windows
        stats = window.servers["store-0"]
        # Only the delta since begin() landed in the window.
        assert stats.arrivals == 30.0
        assert stats.dropped == 5.0
        assert stats.kinds == {"search": 20.0, "tiles": 10.0}
        assert stats.shed_rate == pytest.approx(5.0 / 30.0)

    def test_use_before_begin_raises(self):
        pipeline = TelemetryPipeline()
        with pytest.raises(RuntimeError):
            pipeline.record_request("2122", 0, "search", 1.0)
        with pytest.raises(RuntimeError):
            pipeline.flush(1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(window_seconds=0.0)
        with pytest.raises(ValueError):
            SLOConfig(availability_target=1.0)


class TestSpatialRollups:
    def test_cell_ancestor_is_prefix(self):
        assert cell_ancestor("2122211320", 4) == "2122"
        assert cell_ancestor("21", 6) == "21"

    def test_demand_mass_conserved_up_the_hierarchy(self):
        """Rolling up never creates or destroys demand: the weighted total
        is identical at every level."""
        window = TelemetryWindow(index=0, start_seconds=0.0, end_seconds=10.0)
        for token, weight in (("21220", 5.0), ("21221", 3.0), ("21300", 2.0)):
            window.record(token, 0, "search", 10.0, weight, True, False, False)
        for level in (0, 2, 3, 5):
            assert sum(demand_by_cell([window], level).values()) == 10.0
        by_level3 = demand_by_cell([window], 3)
        assert by_level3 == {"212": 8.0, "213": 2.0}

    def test_latency_rolls_up_by_merging_cell_histograms(self):
        windows = [TelemetryWindow(index=i, start_seconds=10.0 * i, end_seconds=10.0 * (i + 1)) for i in range(2)]
        windows[0].record("21220", 0, "search", 10.0, 1.0, True, False, False)
        windows[0].record("21221", 1, "tiles", 30.0, 1.0, True, False, False)
        windows[1].record("21300", 0, "search", 50.0, 1.0, True, False, False)
        by_level3 = latency_by_cell(windows, 3)
        assert sorted(by_level3) == ["212", "213"]
        assert by_level3["212"].count == 2
        assert by_level3["213"].count == 1
        whole = latency_by_cell(windows, 0)
        assert list(whole) == [""] and whole[""].count == 3

    def test_cell_percentiles_pair_demand_with_the_latency_tail(self):
        window = TelemetryWindow(index=0, start_seconds=0.0, end_seconds=10.0)
        for latency in (10.0, 20.0, 30.0, 40.0):
            window.record("21220", 0, "search", latency, 2.0, True, False, False)
        window.record("21300", 0, "search", 5.0, 1.0, True, False, False)
        rollup = cell_percentiles([window], 3)
        assert list(rollup) == ["212", "213"]
        assert rollup["212"]["requests"] == 8.0
        assert rollup["213"] == {"requests": 1.0, "p50_ms": 5.0, "p95_ms": 5.0}
        assert 10.0 <= rollup["212"]["p50_ms"] <= rollup["212"]["p95_ms"] <= 40.0

    def test_error_budget_is_the_unavailability_the_target_allows(self):
        assert SLOConfig(availability_target=0.99).error_budget == pytest.approx(0.01)
        assert burn_rate(100.0, 1.0, SLOConfig(availability_target=0.99).error_budget) == pytest.approx(1.0)

    def test_zonal_attribution_follows_covering_cells(self):
        pipeline = TelemetryPipeline(
            config=TelemetryConfig(window_seconds=5.0),
            server_cells={"store-0": ("21220", "21221"), "store-1": ("21300",)},
        )
        pipeline.begin(0.0)
        pipeline.observe_servers({
            "store-0": {"arrivals": 10.0, "served": 8.0, "dropped": 2.0,
                        "wait_ms": 40.0, "busy_ms": 16.0, "kinds": {}},
            "store-1": {"arrivals": 4.0, "served": 4.0, "dropped": 0.0,
                        "wait_ms": 4.0, "busy_ms": 8.0, "kinds": {}},
        })
        pipeline.flush(6.0)
        zones = pipeline.server_zonal(level=5)
        # store-0's load shows under both of its covering cells.
        assert zones["21220"]["dropped"] == 2.0
        assert zones["21221"]["dropped"] == 2.0
        assert zones["21300"]["dropped"] == 0.0
        assert zones["21220"]["shed_rate"] == pytest.approx(0.2)
        # At a coarser level the two store-0 cells collapse into one zone.
        coarse = pipeline.server_zonal(level=3)
        assert coarse["212"]["arrivals"] == 20.0  # both covering cells fold in
        assert coarse["213"]["arrivals"] == 4.0


class TestSLOBurn:
    def _window_with(self, index: int, region: int, good: float, slow: float,
                     errors: float) -> TelemetryWindow:
        window = TelemetryWindow(index=index, start_seconds=float(index),
                                 end_seconds=float(index + 1))
        if good:
            window.record("2122", region, "search", 10.0, good, True, False, False)
        if slow:
            window.record("2122", region, "search", 900.0, slow, True, False, True)
        if errors:
            window.record("2122", region, "search", 0.0, errors, False, False, False)
        return window

    def test_burn_rate_math(self):
        # 5% bad against a 1% budget burns at 5x.
        assert burn_rate(100.0, 5.0, 0.01) == pytest.approx(5.0)
        assert burn_rate(0.0, 0.0, 0.01) == 0.0

    def test_a_window_alerts_when_its_burn_reaches_the_threshold(self):
        """A window alerts at 10x burn or more: the 10x spike does, the 9x
        near miss before it does not."""
        assert ALERT_BURN_THRESHOLD == 10.0
        slo = SLOConfig(availability_target=0.9)
        windows = [
            self._window_with(0, 0, good=100.0, slow=0.0, errors=0.0),
            self._window_with(1, 0, good=10.0, slow=0.0, errors=90.0),  # near miss
            self._window_with(2, 0, good=100.0, slow=0.0, errors=0.0),
            self._window_with(3, 0, good=0.0, slow=0.0, errors=100.0),  # spike
            self._window_with(4, 0, good=100.0, slow=0.0, errors=0.0),
        ]
        series = burn_series(windows, 0, slo)
        assert series[1] == pytest.approx(9.0) and series[3] == pytest.approx(10.0)
        assert alert_windows(windows, 0, slo) == [3]

    def test_sustained_burn_alerts_every_window(self):
        slo = SLOConfig(availability_target=0.95)
        windows = [self._window_with(i, 0, good=20.0, slow=0.0, errors=80.0)
                   for i in range(4)]
        assert burn_series(windows, 0, slo) == [pytest.approx(16.0)] * 4
        assert alert_windows(windows, 0, slo) == [0, 1, 2, 3]

    def test_regions_burn_independently(self):
        slo = SLOConfig(availability_target=0.9)
        window = TelemetryWindow(index=0, start_seconds=0.0, end_seconds=1.0)
        window.record("2122", 0, "search", 10.0, 100.0, True, False, False)
        window.record("2122", 1, "search", 0.0, 100.0, False, False, False)
        pipeline = TelemetryPipeline(config=TelemetryConfig(slo=slo))
        pipeline.windows = [window]
        assert pipeline.burn_series(0) == [0.0]
        assert pipeline.burn_series(1) == [pytest.approx(10.0)]

    def test_slow_requests_spend_budget(self):
        """A served-but-slow request burns budget exactly like an error."""
        stats = CellStats()
        stats.observe(900.0, 2.0, ok=True, degraded=False, slow=True)
        stats.observe(10.0, 8.0, ok=True, degraded=False, slow=False)
        assert stats.bad == 2.0
        assert stats.requests == 10.0


def _scenario_kw():
    return dict(
        store_count=2,
        city_rows=4,
        city_cols=4,
        seed=33,
        config=FederationConfig(
            service_times=ServiceTimeModel(default_ms=2.0),
            server_queue_capacity=64,
        ),
    )


class TestEngineIntegration:
    def test_run_populates_report_telemetry(self):
        scenario = build_scenario(**_scenario_kw())
        config = WorkloadConfig(
            clients=24, steps=6, seed=7, resolver_pools=2,
            telemetry=TelemetryConfig(window_seconds=4.0),
        )
        report = WorkloadEngine(scenario, config).run()
        pipeline = report.telemetry
        assert pipeline is not None
        assert pipeline.windows
        assert pipeline.records > 0
        assert pipeline.regions() == (0, 1)
        # Demand exists at every configured heatmap level, with equal mass.
        heatmap = pipeline.demand_heatmap()
        masses = {level: sum(cells.values()) for level, cells in heatmap.items()}
        assert len(set(masses.values())) == 1
        # The queue model produced per-server window deltas.
        assert any(window.servers for window in pipeline.windows)
        # Snapshot carries the summary keys.
        snapshot = report.snapshot()
        assert snapshot["telemetry.records"] == pipeline.records
        assert snapshot["telemetry.windows"] == float(len(pipeline.windows))

    def test_cohort_path_records_weighted_telemetry(self):
        """On the cohort fast path one tracer records for its whole phantom
        share, so record mass still equals clients × steps: every turn of
        this run is a request or an error (none is skipped)."""
        scenario = build_scenario(**_scenario_kw())
        config = WorkloadConfig(
            clients=64, steps=3, seed=7, cohort_min_clients=32,
            telemetry=TelemetryConfig(window_seconds=4.0),
        )
        report = WorkloadEngine(scenario, config).run()
        pipeline = report.telemetry
        assert pipeline is not None
        assert pipeline.records == report.requests + report.errors == 64 * 3
        assert report.sampling["phantom_clients"] > 0  # the fast path actually engaged

    def test_disaster_run_reports_degraded_service_per_region(self):
        """An authority outage with stale-serve grace produces degraded
        (stale-served) telemetry attributed per client region, agreeing in
        total with the fleet-wide counter, and the emission windows carry
        the fault-family annotation."""
        fed = FederationConfig(
            service_times=ServiceTimeModel(default_ms=2.0),
            server_queue_capacity=64,
            device_discovery_cache_ttl_seconds=30.0,
            registration_ttl_seconds=60.0,
            stale_serve_max_ms=60_000.0,
        )
        scenario = build_scenario(
            store_count=2, city_rows=4, city_cols=4, seed=33, config=fed
        )
        plan = FaultPlan.authority_outage(45.0, 165.0)
        config = WorkloadConfig(
            clients=24, steps=10, seed=7, resolver_pools=2, step_seconds=20.0,
            faults=plan, telemetry=TelemetryConfig(window_seconds=40.0),
        )
        report = WorkloadEngine(scenario, config).run()
        pipeline = report.telemetry
        assert pipeline is not None
        outage_windows = pipeline.fault_windows().get("authority-outage")
        assert outage_windows  # the outage is visible on the window tape
        degraded = [
            window.region_totals(region)["degraded"] for window in pipeline.windows for region in window.regions
        ]
        assert sum(degraded) > 0.0
        # Per-region degraded totals agree with the fleet-wide counter.
        assert sum(degraded) == float(report.degraded_requests)

    def test_disabled_telemetry_leaves_no_trace(self):
        scenario = build_scenario(**_scenario_kw())
        report = WorkloadEngine(
            scenario, WorkloadConfig(clients=24, steps=4, seed=7)
        ).run()
        assert report.telemetry is None
        assert not any(key.startswith("telemetry.") for key in report.snapshot())

    def test_telemetry_runs_deterministically(self):
        def run():
            scenario = build_scenario(**_scenario_kw())
            config = WorkloadConfig(
                clients=24, steps=6, seed=7,
                telemetry=TelemetryConfig(window_seconds=4.0),
            )
            report = WorkloadEngine(scenario, config).run()
            return json.dumps(report.snapshot(), sort_keys=True)

        assert run() == run()
