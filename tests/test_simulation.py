"""Unit tests for the simulation support (clock, network, metrics)."""

from __future__ import annotations

import builtins
import math
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.control.schedule import ControlSchedule
from repro.geometry.point import LatLng, LocalPoint
from repro.geometry.polygon import Polygon
from repro.localization.cues import BeaconCue, BeaconReading, ImageCue
from repro.localization.fingerprint import (
    BeaconFingerprint,
    BeaconFingerprintDatabase,
    ImageFingerprint,
    ImageFingerprintDatabase,
)
from repro.operator.client import NetworkedControlPlayer
from repro.routing.stitching import RouteLeg, RouteStitcher
from repro.services.context import RequestOutcome
from repro.services.tiles import FederatedViewport
from repro.simulation.clock import SimulatedClock
from repro.simulation.lru import ANSWER_MEMO_ENTRIES, LruCache, LruStats, answer_memo
from repro.simulation.metrics import Histogram, MetricsRegistry, Summary, float_sum, percentile
from repro.simulation.network import CLIENT_TO_RESOLVER_MS, SimulatedNetwork
from repro.simulation.queueing import load_cv
from repro.simulation.tape import Tape, TapeCursor
from repro.spatialindex.cellid import CellId
from repro.spatialindex.covering import covering_area_square_meters
from repro.tiles.correspondence import CorrespondenceSet
from repro.workload.report import WorkloadReport
from repro.workload.traffic import zipf_weights


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance_ms(500.0)
        assert clock.now() == pytest.approx(2.0)
        assert clock.advance_count == 2

    def test_cannot_go_backwards(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cannot_advance_by_a_non_finite_amount(self, bad):
        """A NaN or infinite ``now()`` makes every later ``expires_at > now``
        false: caches and leases would never expire (or always have)."""
        clock = SimulatedClock()
        clock.advance(1.0)
        for advance in (clock.advance, clock.advance_ms, lambda value: clock.advance_to(1.0 + value)):
            with pytest.raises(ValueError, match=str(bad)):
                advance(bad)
        assert clock.now() == 1.0
        assert clock.advance_count == 1

    def test_negative_milliseconds_go_backwards_too(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError, match="backwards.*-2.5"):
            clock.advance_ms(-2.5)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(-1.0)

    def test_negative_zero_is_no_advance(self):
        clock = SimulatedClock()
        clock.advance(-0.0)
        clock.advance_ms(-0.0)
        clock.advance_to(-0.0)
        assert clock.now() == 0.0
        assert clock.advance_count == 3

    def test_rewind_to_past_instant(self):
        clock = SimulatedClock()
        clock.advance(5.0)
        clock.rewind_to(2.0)
        assert clock.now() == 2.0

    def test_rewind_cannot_go_forward_or_negative(self):
        clock = SimulatedClock()
        clock.advance(1.0)
        with pytest.raises(ValueError):
            clock.rewind_to(2.0)
        with pytest.raises(ValueError):
            clock.rewind_to(-0.1)


class TestNetwork:
    def test_round_trip_charges_twice_one_way(self):
        network = SimulatedNetwork()
        latency = network.client_resolver_exchange()
        assert latency == 2.0 * CLIENT_TO_RESOLVER_MS
        assert network.clock.now() == pytest.approx(0.002)
        assert network.stats.messages_sent == 1

    def test_message_kinds_tracked(self):
        network = SimulatedNetwork()
        network.client_resolver_exchange()
        network.resolver_authority_exchange()
        network.resolver_authority_exchange()
        network.client_map_server_exchange()
        assert network.stats.messages_by_kind["dns.resolver_authority"] == 2
        assert network.stats.messages_sent == 4

    def test_reset_stats_keeps_clock(self):
        network = SimulatedNetwork()
        network.client_central_exchange()
        elapsed = network.clock.now()
        network.reset_stats()
        assert network.stats.messages_sent == 0
        assert network.clock.now() == elapsed


class TestMetrics:
    def test_summary_statistics(self):
        summary = Summary("latency")
        for value in (1.0, 4.0, 2.0, 3.0):
            summary.observe(value)
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.maximum == 4.0

    def test_summary_empty(self):
        assert Summary("x").mean == 0.0

    def test_registry_reuses_instruments(self):
        registry = MetricsRegistry()
        registry.histogram("a").observe(1.0)
        registry.histogram("a").observe(2.0)
        assert registry.histogram("a").count == 2

    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert percentile(values, 0.5) == pytest.approx(50.5)

    def test_percentile_invalid(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_percentile_single_value(self):
        assert percentile([42.0], 0.99) == 42.0


class TestHistogram:
    def test_percentiles(self):
        histogram = Histogram("latency")
        histogram.observe_many(float(v) for v in range(1, 101))
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.p50 == pytest.approx(50.5)
        assert histogram.p95 == pytest.approx(95.05)
        assert histogram.p99 == pytest.approx(99.01)

    def test_empty_histogram_reports_zero(self):
        histogram = Histogram("x")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.p50 == 0.0
        assert histogram.p99 == 0.0

    def test_unordered_observations(self):
        histogram = Histogram("x")
        histogram.observe_many([9.0, 1.0, 5.0])
        assert histogram.p50 == 5.0

    def test_snapshot_keys(self):
        histogram = Histogram("lat")
        histogram.observe(10.0)
        assert histogram.snapshot() == {"lat.p50": 10.0, "lat.p95": 10.0, "lat.p99": 10.0}

    def test_registry_histogram_in_snapshot(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe_many([1.0, 3.0])
        snapshot = registry.snapshot()
        assert snapshot["lat.p50"] == pytest.approx(2.0)


class TestStreamingHistogram:
    def test_modes_agree_within_bucket_tolerance(self):
        """Streaming percentiles must stay inside the log-bucket relative
        width (≈4.9% per bucket; 6% asserted for headroom) of exact ones."""
        import random as _random

        rng = _random.Random(42)
        values = [rng.lognormvariate(3.0, 1.2) for _ in range(5000)]
        exact = Histogram("lat")
        stream = Histogram("lat", streaming=True)
        for value in values:
            exact.observe(value)
            stream.observe(value)
        assert stream.count == exact.count
        assert stream.mean == pytest.approx(exact.mean, rel=1e-9)
        for fraction in (0.5, 0.9, 0.95, 0.99):
            assert stream.quantile(fraction) == pytest.approx(
                exact.quantile(fraction), rel=0.06
            )

    def test_weighted_observation_equals_repetition(self):
        weighted = Histogram("w", streaming=True)
        repeated = Histogram("r", streaming=True)
        for value, weight in ((5.0, 3), (80.0, 7), (900.0, 2)):
            weighted.observe(value, weight)
            for _ in range(weight):
                repeated.observe(value)
        assert weighted.count == repeated.count
        assert weighted.mean == pytest.approx(repeated.mean)
        assert weighted.p50 == pytest.approx(repeated.p50)
        assert weighted.p99 == pytest.approx(repeated.p99)

    def test_exact_mode_weight_is_repetition(self):
        histogram = Histogram("x")
        histogram.observe(4.0, 3)
        assert histogram.values == [4.0, 4.0, 4.0]
        with pytest.raises(ValueError):
            histogram.observe(1.0, 1.5)
        with pytest.raises(ValueError):
            histogram.observe(1.0, -1)

    def test_single_bucket_reports_observed_values(self):
        histogram = Histogram("x", streaming=True)
        histogram.observe(123.0, 10)
        assert histogram.p50 == pytest.approx(123.0)
        assert histogram.p99 == pytest.approx(123.0)

    def test_streaming_memory_is_bounded(self):
        histogram = Histogram("x", streaming=True)
        for i in range(100_000):
            histogram.observe(float(i % 977) + 0.5)
        assert histogram.values == []  # raw floats are never retained
        assert len(histogram._bucket_weights) < 500
        assert histogram.count == 100_000

    def test_registry_streaming_flag(self):
        registry = MetricsRegistry(streaming_histograms=True)
        assert registry.histogram("lat").streaming is True
        assert MetricsRegistry().histogram("lat").streaming is False


class TestHistogramRejectsPoison:
    """A value or weight that would poison every later statistic fails at
    ``observe``, naming what was passed, in both storage modes."""

    @pytest.mark.parametrize("streaming", [False, True])
    def test_nan_value(self, streaming):
        histogram = Histogram("x", streaming=streaming)
        with pytest.raises(ValueError, match="value nan"):
            histogram.observe(math.nan)
        with pytest.raises(ValueError, match="value nan"):
            histogram.observe_many([1.0, math.nan])
        histogram.observe(7.0)
        assert (histogram.count, histogram.p50) == (1, 7.0)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_nan_weight(self, streaming):
        histogram = Histogram("x", streaming=streaming)
        with pytest.raises(ValueError, match="weight .*nan"):
            histogram.observe(7.0, weight=math.nan)
        assert histogram.count == 0 and histogram.mean == 0.0

    @pytest.mark.parametrize("streaming", [False, True])
    def test_infinite_weight(self, streaming):
        histogram = Histogram("x", streaming=streaming)
        with pytest.raises(ValueError, match="weight .*inf"):
            histogram.observe(7.0, weight=math.inf)
        assert histogram.count == 0 and histogram.mean == 0.0

    @pytest.mark.parametrize("streaming", [False, True])
    def test_negative_weight(self, streaming):
        histogram = Histogram("x", streaming=streaming)
        with pytest.raises(ValueError, match="weight .*-1"):
            histogram.observe(7.0, weight=-1)
        assert histogram.count == 0

    @pytest.mark.parametrize("streaming", [False, True])
    def test_infinite_value_is_still_observed(self, streaming):
        histogram = Histogram("x", streaming=streaming)
        histogram.observe(1.0)
        histogram.observe(math.inf)
        assert histogram.count == 2 and histogram.mean == math.inf


def neumaier_sum(values):
    """CPython 3.12's builtin ``sum()`` over floats: a Neumaier-compensated
    fold whose accumulated error is added back once, at the end."""
    total, compensation = 0.0, 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


class TestFloatSum:
    """``float_sum`` folds left to right on every interpreter, so sums that
    reach an artifact do not move with 3.12's compensated ``sum()``."""

    VECTOR = [0.1] * 10 + [1e16, 1.0, 1.0]

    def test_differs_from_the_compensated_sum(self):
        folded = 0.0
        for value in self.VECTOR:
            folded += value
        assert float_sum(self.VECTOR) == folded == 1e16
        assert neumaier_sum(self.VECTOR) == 1e16 + 4.0
        # The emulation is what this interpreter's sum() does, or the fold.
        expected = neumaier_sum if sys.version_info >= (3, 12) else float_sum
        assert sum(self.VECTOR) == expected(self.VECTOR)

    def test_sites_that_reach_artifacts_fold(self, monkeypatch):
        """``load_cv`` (the replica-balance metric in workload snapshots) and
        an exact histogram's mean, with ``sum()`` behaving as on 3.12."""
        values = [0.1] * 9 + [0.7]
        mean = float_sum(values) / len(values)
        spread = float_sum((value - mean) ** 2 for value in values) / len(values)
        histogram = Histogram("x")
        histogram.observe_many(values)
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        assert sum(values) / len(values) != mean
        assert load_cv(values) == math.sqrt(spread) / mean == 1.1250000000000002
        assert histogram.mean == mean

    def test_delivery_lag_mean_and_replica_load_cv_fold(self, monkeypatch):
        """The networked tape's mean delivery lag (E20's
        ``delivery_lag_mean_s``) and a report's mean group CV (E14's
        ``replica_load_cv``), with ``sum()`` behaving as on 3.12."""
        values = [0.1] * 9 + [0.7]
        player = NetworkedControlPlayer(schedule=ControlSchedule(), client=None, delivery_lags=list(values))
        report = WorkloadReport(MetricsRegistry(), 0, 0, 0, 0, 0, 0, 0.0, 0.0)
        monkeypatch.setattr(report, "group_load_cvs", lambda: {f"g{index}": cv for index, cv in enumerate(values)})
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        mean = float_sum(values) / len(values)
        assert sum(values) / len(values) != mean
        assert player.lag_stats()["mean"] == mean
        assert report.replica_load_cv == mean

    def test_centroid_and_zipf_weights_fold(self, monkeypatch):
        """A polygon's centroid and the Zipf popularity weights, with
        ``sum()`` behaving as on 3.12: both vectors sum differently there."""
        latitudes = [0.1] * 9 + [0.7]
        polygon = Polygon([LatLng(latitude, 0.01 * index) for index, latitude in enumerate(latitudes)])
        raw = [1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0]
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        assert sum(latitudes) != float_sum(latitudes) and sum(raw) != float_sum(raw)
        assert polygon.centroid.latitude == float_sum(latitudes) / len(latitudes)
        assert zipf_weights(4) == [weight / float_sum(raw) for weight in raw]

    def test_answer_path_sums_fold(self, monkeypatch):
        """Fingerprint weighted means, route and stitched-route lengths, a
        stitched route's cost and a covering's area give the same answer
        with ``sum()`` as 3.11's fold and as 3.12's compensated sum.  At
        this seed each of those eleven sums differs between the two."""

        def answers():
            rng = random.Random(30)
            points = [LatLng(40.0 + 1e-3 * rng.random(), -79.9 + 1e-3 * rng.random()) for _ in range(40)]
            beacons = [f"b{index}" for index in range(6)]
            beacon_db = BeaconFingerprintDatabase(
                [BeaconFingerprint(point, {beacon: -40.0 - 50.0 * rng.random() for beacon in beacons}) for point in points],
                k_neighbors=len(points),
            )
            image_db = ImageFingerprintDatabase(
                [ImageFingerprint(point, (1.0, rng.random(), rng.random())) for point in points],
                k_neighbors=len(points),
            )
            legs = [RouteLeg(f"s{index}", tuple(points[index * 8 : index * 8 + 8]), 100.0 * rng.random()) for index in range(5)]
            route = RouteStitcher(max_gap_meters=1e6).stitch(points[0], points[-1], legs)
            cells = [CellId.from_point(point, 14 + index % 6) for index, point in enumerate(points)]
            return (
                beacon_db.localize(BeaconCue(tuple(BeaconReading(beacon, -65.0) for beacon in beacons)), "s"),
                image_db.localize(ImageCue((1.0, 0.5, 0.5)), "s"),
                [leg.length_meters() for leg in legs],
                route,
                route.length_meters(),
                covering_area_square_meters(cells),
            )

        monkeypatch.setattr(builtins, "sum", float_sum)
        folded = answers()
        lengths = [a.distance_to(b) for a, b in zip(folded[3].points, folded[3].points[1:])]
        assert neumaier_sum(lengths) != float_sum(lengths)
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        assert answers() == folded

    def test_viewport_coverage_and_alignment_anchor_fold(self, monkeypatch):
        """A viewport's coverage fraction (E11's ``mean_coverage``) and the
        anchor of a map alignment (E11's alignment error), with ``sum()``
        behaving as on 3.12: each vector below sums differently there."""
        values = [0.1] * 9 + [0.7]
        rng = random.Random(1)
        latitudes = [40.0 + 1e-3 * rng.random() for _ in values]
        longitudes = [-79.9 + 1e-3 * rng.random() for _ in values]
        viewport = FederatedViewport(
            composites={index: SimpleNamespace(coverage_fraction=value) for index, value in enumerate(values)},
            servers_consulted=0,
            tiles_downloaded=0,
            dns_lookups=0,
            outcome=RequestOutcome(served=True, degraded=False),
        )
        correspondences = CorrespondenceSet("store")
        for index, (latitude, longitude) in enumerate(zip(latitudes, longitudes)):
            correspondences.add(LocalPoint(index * 10.0, index % 3 * 10.0, "store"), LatLng(latitude, longitude))
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        for vector in (values, latitudes, longitudes):
            assert sum(vector) / len(vector) != float_sum(vector) / len(vector)
        mean = float_sum(values) / len(values)
        assert viewport.coverage_fraction == mean
        anchor = correspondences.estimate_alignment().projection.anchor
        assert anchor == LatLng(float_sum(latitudes) / len(values), float_sum(longitudes) / len(values))


class TestLruCache:
    def test_basic_hit_miss_and_eviction_order(self):
        cache = LruCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == 1  # refreshes "a" to MRU
        cache.store("c", 3)  # evicts "b", the LRU entry
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1
        assert cache.lookup("c") == 3
        assert cache.stats.evictions == 1

    def test_stored_none_is_a_hit(self):
        """A stored ``None`` value must not masquerade as a miss."""
        cache = LruCache(max_entries=4)
        cache.store("k", None)
        assert cache.lookup("k") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_is_live_expires_and_counts(self):
        cache = LruCache(max_entries=4)
        cache.store("k", "stale")
        assert cache.lookup("k", is_live=lambda v: False) is None
        assert cache.stats.expirations == 1
        assert cache.stats.misses == 1
        assert cache.size == 0

    def test_refresh_does_not_evict(self):
        cache = LruCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("a", 10)  # refresh, not insert: nothing evicted
        assert cache.stats.evictions == 0
        assert cache.lookup("b") == 2

    def test_operations_are_constant_time(self):
        """Micro-benchmark guard: per-op cost must not grow with cache size.

        A steady-state mix of stores (each evicting) and lookups (each
        touching/relinking) runs against a small and a 128x larger cache; an
        O(size) eviction or touch would blow the per-op ratio far past the
        generous bound used here.
        """
        import time

        small_size, large_size = 256, 32_768  # 128x apart
        ops = 10_000

        def build(size: int) -> LruCache:
            cache = LruCache(max_entries=size)
            for i in range(size):  # steady state: cache full
                cache.store(i, i)
            return cache

        def one_pass(cache: LruCache, size: int, offset: int) -> float:
            start = time.perf_counter()
            base = size + offset * ops
            for i in range(ops):
                cache.store(base + i, i)      # insert + evict
                cache.lookup(base + i - 1)    # hit + touch
                cache.lookup(-1)              # miss
            return time.perf_counter() - start

        small, large = build(small_size), build(large_size)
        # Best-of-5 minima approximate the true per-op cost, so a single
        # noisy scheduler slice cannot fail the guard.
        small_best = min(one_pass(small, small_size, r) for r in range(5))
        large_best = min(one_pass(large, large_size, r) for r in range(5))

        # 20x headroom absorbs timer noise while still failing hard for a
        # linear-time implementation (which would be ~128x slower).
        assert large_best < 20.0 * small_best


    def test_peek_has_no_accounting_or_recency_effect(self):
        cache = LruCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.store("c", 3)  # "a" is still the LRU entry: peek did not touch it
        assert cache.peek("a") is None
        assert cache.peek("b") == 2

    def test_flush_empties_the_table_and_keeps_the_counters(self):
        cache = LruCache(max_entries=4)
        cache.store("a", 1)
        cache.lookup("a")
        cache.flush()
        assert cache.size == 0
        assert cache.lookup("a") is None
        assert (cache.stats.hits, cache.stats.misses, cache.stats.insertions) == (1, 1, 1)

    def test_rejects_a_table_that_holds_nothing(self):
        with pytest.raises(ValueError):
            LruCache(max_entries=0)

    def test_hit_rate(self):
        assert LruStats().hit_rate == 0.0
        assert LruStats(hits=3, misses=1).hit_rate == pytest.approx(0.75)

    def test_answer_memo_is_a_fresh_bounded_table_per_call(self):
        first, second = answer_memo(object()), answer_memo(object())
        assert first is not second
        assert first.max_entries == second.max_entries == ANSWER_MEMO_ENTRIES
        assert first.size == 0


@dataclass(frozen=True)
class _TapeEvent:
    at_seconds: float
    server_id: str
    label: str = ""


class TestTape:
    def test_sorts_by_time_keeping_authored_order_at_ties(self):
        tape = Tape(
            (
                _TapeEvent(5.0, "b", "late"),
                _TapeEvent(1.0, "a", "set weight"),
                _TapeEvent(1.0, "a", "then drain"),
            )
        )
        assert [event.label for event in tape] == ["set weight", "then drain", "late"]

    def test_length_horizon_and_servers(self):
        tape = Tape.from_events([_TapeEvent(2.0, "s2"), _TapeEvent(7.5, "s1"), _TapeEvent(3.0, "s2")])
        assert len(tape) == 3
        assert tape.horizon_seconds == 7.5
        assert tape.servers == ("s1", "s2")

    def test_empty_tape(self):
        tape = Tape()
        assert len(tape) == 0
        assert tape.horizon_seconds == 0.0
        assert tape.servers == ()


class TestTapeCursor:
    EVENTS = Tape.from_events(
        [_TapeEvent(4.0, "d"), _TapeEvent(1.0, "a"), _TapeEvent(2.0, "b"), _TapeEvent(2.0, "c")]
    ).events

    def test_due_plays_each_event_once_at_or_before_now(self):
        cursor = TapeCursor(self.EVENTS)
        assert list(cursor.due(0.5)) == []
        assert [event.server_id for event in cursor.due(2.0)] == ["a", "b", "c"]
        assert cursor.remaining == 1
        assert list(cursor.due(2.0)) == []
        assert [event.server_id for event in cursor.due(100.0)] == ["d"]
        assert cursor.remaining == 0

    def test_due_consumes_only_what_the_caller_takes(self):
        cursor = TapeCursor(self.EVENTS)
        played = cursor.due(10.0)
        assert next(played).server_id == "a"
        assert cursor.position == 1
        assert cursor.remaining == 3
        assert [event.server_id for event in cursor.due(10.0)] == ["b", "c", "d"]
