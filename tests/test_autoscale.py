"""The closed-loop autoscaler: policy machinery, warm pools, end-to-end.

Covers the stability state machine (hysteresis gate + cooldowns) in
isolation, the telemetry reader's query surface, the warm-pool lifecycle
on a live federation (extend → promote → drain → park → unpark), and two
end-to-end properties the subsystem exists for:

* a flash crowd is absorbed by warm-pool promotion and the capacity is
  ramped back down (4→2→1→0) and parked once the crowd ebbs;
* TTL-delayed client convergence (the 22–67 s window measured in E15)
  does **not** turn the control loop into a weight oscillator — a fleet
  with long cache TTLs and borderline load produces zero flaps.
"""

from __future__ import annotations

import json

import pytest

from repro.autoscale import AutoscalerConfig, Cooldown, HysteresisGate
from repro.autoscale.scaler import Autoscaler
from repro.core.config import FederationConfig
from repro.core.errors import FederationConfigError
from repro.core.warmpool import WarmPool
from repro.faults.schedule import FaultPlan
from repro.services.retry import RetryPolicy
from repro.simulation.queueing import ServiceTimeModel
from repro.telemetry import SLOConfig, TelemetryConfig
from repro.telemetry.pipeline import TelemetryPipeline
from repro.telemetry.reader import TelemetryReader
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario


def _federation_config(**overrides) -> FederationConfig:
    kw = dict(
        device_discovery_cache_ttl_seconds=30.0,
        registration_ttl_seconds=60.0,
        client_tile_cache_entries=256,
        service_times=ServiceTimeModel(
            default_ms=2.0,
            per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.5},
        ),
        server_queue_capacity=256,
        retry_policy=RetryPolicy.full_jitter(),
    )
    kw.update(overrides)
    return FederationConfig(**kw)


def _scenario(**config_overrides):
    return build_scenario(
        store_count=2,
        city_rows=5,
        city_cols=5,
        config=_federation_config(**config_overrides),
        seed=33,
        reuse_worlds=True,
        store_replicas=2,
    )


class TestAutoscalerConfig:
    def test_defaults_are_valid(self):
        config = AutoscalerConfig()
        assert config.ramp_weights == (4, 2, 1, 0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"zone_level": 31},
            {"signal_windows": 0},
            {"wait_high_ms": 5.0, "wait_low_ms": 5.0},
            {"burn_high": 1.0, "burn_low": 1.0},
            {"shed_high": 1.5},
            {"p95_high_ms": 0.0},
            {"breach_evals": 0},
            {"recover_evals": 0},
            {"promote_weight": 0},
            {"ramp_weights": (4, 2)},
            {"ramp_weights": (2, 4, 0)},
            {"ramp_weights": (0,)},
            {"outlier_wait_ratio": -1.0},
            {"cooldown_seconds": -1.0},
            {"park_delay_seconds": -1.0},
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValueError):
            AutoscalerConfig(**overrides)


class TestHysteresisGate:
    def test_breach_needs_consecutive_evals(self):
        gate = HysteresisGate(breach_evals=2, recover_evals=2)
        assert gate.update(True, False) == "hold"
        assert gate.update(True, False) == "breach"

    def test_recover_needs_consecutive_evals(self):
        gate = HysteresisGate(breach_evals=2, recover_evals=3)
        for _ in range(2):
            assert gate.update(False, True) == "hold"
        assert gate.update(False, True) == "recover"

    def test_dead_band_resets_both_streaks(self):
        gate = HysteresisGate(breach_evals=2, recover_evals=2)
        gate.update(True, False)
        assert gate.update(False, False) == "hold"
        # The earlier pressed evaluation no longer counts.
        assert gate.update(True, False) == "hold"
        assert gate.update(True, False) == "breach"

    def test_opposite_signal_resets_the_other_streak(self):
        gate = HysteresisGate(breach_evals=2, recover_evals=2)
        gate.update(True, False)
        gate.update(False, True)
        assert gate.update(True, False) == "hold"

    def test_sustained_breach_keeps_arming(self):
        """Cooldowns, not the gate, space repeated actions: once armed the
        gate stays armed while pressure holds."""
        gate = HysteresisGate(breach_evals=2, recover_evals=2)
        gate.update(True, False)
        assert gate.update(True, False) == "breach"
        assert gate.update(True, False) == "breach"

    def test_rejects_contradictory_signal(self):
        gate = HysteresisGate(breach_evals=1, recover_evals=1)
        with pytest.raises(ValueError):
            gate.update(True, True)

    def test_rejects_zero_streaks(self):
        with pytest.raises(ValueError):
            HysteresisGate(breach_evals=0, recover_evals=1)


class TestCooldown:
    def test_ready_before_first_stamp(self):
        assert Cooldown(90.0).ready(0.0)

    def test_blocks_inside_the_window_and_reopens_after(self):
        cooldown = Cooldown(90.0)
        cooldown.stamp(100.0)
        assert not cooldown.ready(189.9)
        assert cooldown.ready(190.0)

    def test_blocked_decision_does_not_reset_the_timer(self):
        """Only ``stamp`` moves the clock: asking ``ready`` repeatedly (a
        blocked controller retrying each evaluation) never pushes the
        reopen instant back."""
        cooldown = Cooldown(60.0)
        cooldown.stamp(0.0)
        for now in (10.0, 30.0, 59.0):
            assert not cooldown.ready(now)
        assert cooldown.ready(60.0)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            Cooldown(-1.0)


class TestTelemetryReader:
    def _reader(self, steps: int = 6) -> TelemetryReader:
        scenario = _scenario()
        config = WorkloadConfig(
            clients=12,
            steps=steps,
            seed=7,
            step_seconds=20.0,
            telemetry=TelemetryConfig(window_seconds=40.0, slo=SLOConfig(latency_ms=250.0)),
        )
        engine = WorkloadEngine(scenario, config)
        engine.run()
        assert engine.telemetry is not None
        return TelemetryReader(pipeline=engine.telemetry)

    def test_window_count_and_last_windows(self):
        reader = self._reader()
        assert reader.window_count == len(reader.pipeline.windows) > 0
        trailing = reader.last_windows(2)
        assert trailing == tuple(reader.pipeline.windows[-2:])
        with pytest.raises(ValueError):
            reader.last_windows(0)

    def test_server_rollup_derives_rates(self):
        reader = self._reader()
        rollup = reader.server_rollup(last=reader.window_count)
        assert rollup
        for stats in rollup.values():
            assert stats["shed_rate"] <= 1.0
            assert stats["mean_wait_ms"] >= 0.0

    def test_zonal_capacity_and_utilization(self):
        """The workers gauge threads through to a zonal capacity integral
        and a utilization in [0, 1] for single-worker servers."""
        reader = self._reader()
        zonal = reader.zonal(level=12, last=reader.window_count)
        assert any(stats["capacity_ms"] > 0.0 for stats in zonal.values())
        for stats in zonal.values():
            if stats["capacity_ms"]:
                assert 0.0 <= stats["utilization"] <= 1.0

    def test_demand_and_slope(self):
        reader = self._reader()
        demand = reader.demand(level=12, last=reader.window_count)
        assert demand and all(count > 0.0 for count in demand.values())
        zone = sorted(demand)[0]
        # The slope is bounded by the worst single-window rate.
        latest = reader.pipeline.windows[-1]
        rate = reader.demand_rate(zone, 12, latest)
        assert abs(reader.demand_slope(zone, 12)) <= max(
            rate, reader.demand_rate(zone, 12, reader.pipeline.windows[-2])
        )

    def test_slope_needs_two_windows(self):
        reader = self._reader(steps=2)
        if len(reader.pipeline.windows) < 2:
            assert reader.demand_slope("anything", 12) == 0.0

    def test_burn_and_attainment(self):
        reader = self._reader()
        assert reader.max_burn() >= 0.0
        assert 0.0 <= reader.attainment() <= 1.0

    def test_p95_reads_from_windows(self):
        reader = self._reader()
        assert reader.p95_ms(last=reader.window_count) > 0.0


class TestReaderEmptyWindow:
    """Every accessor on a sealed window holding *zero* samples (empty
    cell, all-shed round): neutral fallbacks for display, and a
    ``has_signal`` predicate so controllers can tell "quiet" from "blind"."""

    def _empty_reader(self, windows: int = 1) -> TelemetryReader:
        pipeline = TelemetryPipeline(config=TelemetryConfig(window_seconds=10.0))
        pipeline.begin(0.0)
        for index in range(windows):
            pipeline.flush(10.0 * (index + 1))
        assert len(pipeline.windows) == windows
        assert all(not w.cells and not w.servers for w in pipeline.windows)
        return TelemetryReader(pipeline=pipeline)

    def test_has_signal_is_false_on_empty_windows(self):
        reader = self._empty_reader(windows=2)
        assert not reader.has_signal()
        assert not reader.has_signal(last=2)

    def test_has_signal_turns_true_with_a_single_sample(self):
        reader = self._empty_reader()
        reader.pipeline.record_request(
            cell="89c25a31", region=0, kind="search", latency_ms=5.0
        )
        reader.pipeline.flush(20.0)
        assert reader.has_signal()

    def test_zonal_is_empty(self):
        assert self._empty_reader().zonal(level=12) == {}

    def test_server_rollup_is_empty(self):
        assert self._empty_reader().server_rollup() == {}

    def test_demand_is_empty_and_rate_zero(self):
        reader = self._empty_reader()
        assert reader.demand(level=12) == {}
        assert reader.demand_rate("anyzone", 12, reader.pipeline.windows[-1]) == 0.0

    def test_demand_slope_is_zero(self):
        assert self._empty_reader(windows=2).demand_slope("anyzone", 12) == 0.0

    def test_burn_and_max_burn_are_zero(self):
        reader = self._empty_reader()
        assert reader.burn(region=0) == 0.0
        assert reader.max_burn() == 0.0

    def test_p95_is_zero(self):
        assert self._empty_reader().p95_ms() == 0.0

    def test_attainment_is_one(self):
        assert self._empty_reader().attainment() == 1.0


class TestScalerNoSignal:
    def test_empty_window_resets_gate_streaks_not_scales_down(self):
        """Regression: an all-quiet sealed window used to read as pressure
        0.0 — wait 0 ≤ wait_low — advancing the *recovery* streak toward a
        scale-down.  Missing data must land in the gate's dead band."""
        scenario = _scenario()
        federation = scenario.federation
        group_id = sorted(federation.replica_groups)[0]
        federation.attach_warm_pool(group_id, 1)
        pipeline = TelemetryPipeline(
            config=TelemetryConfig(window_seconds=10.0, slo=SLOConfig(latency_ms=250.0))
        )
        pipeline.begin(0.0)
        scaler = Autoscaler(
            federation,
            TelemetryReader(pipeline=pipeline),
            config=AutoscalerConfig(breach_evals=2, recover_evals=2),
        )
        state = scaler._states[group_id]
        # One genuinely quiet (observed) evaluation has the recovery streak
        # one step from firing…
        state.gate.update(False, True)
        # …then a zero-sample window seals and the scaler evaluates it.
        pipeline.flush(10.0)
        scaler.begin(0.0)
        scaler.observe(0, 10.0)
        assert scaler.counters["evals"] == 1
        assert scaler.counters["actions"] == 0
        # The streak was reset: one more quiet evaluation holds rather than
        # completing the (now voided) recover pair.
        assert state.gate.update(False, True) == "hold"
        # Symmetrically, a pressed streak is voided too.
        state.gate.update(True, False)
        pipeline.flush(20.0)
        scaler.observe(1, 20.0)
        assert state.gate.update(True, False) == "hold"


class TestWarmPool:
    def test_provision_extends_group_at_weight_zero(self):
        scenario = _scenario()
        federation = scenario.federation
        group_id = sorted(federation.replica_groups)[0]
        before = federation.replica_groups[group_id].server_ids
        federation.attach_warm_pool(group_id, 2)
        pool = federation.warm_pools[group_id]
        assert isinstance(pool, WarmPool)
        assert len(pool.standby_ids) == 2
        group = federation.replica_groups[group_id]
        assert group.server_ids == before + pool.standby_ids
        for standby in pool.standby_ids:
            # Registered (discoverable) but weight 0 (last resort).
            assert not pool.is_parked(standby)
            assert pool.weight_of(standby) == 0
        assert pool.pooled_ids() == pool.standby_ids
        assert pool.serving_ids() == ()

    def test_standby_ids_continue_the_replica_sequence(self):
        scenario = _scenario()
        federation = scenario.federation
        group_id = sorted(federation.replica_groups)[0]
        federation.attach_warm_pool(group_id, 1)
        (standby,) = federation.warm_pools[group_id].standby_ids
        assert standby == f"r2.{group_id}"

    def test_park_refuses_weighted_standby(self):
        scenario = _scenario()
        federation = scenario.federation
        group_id = sorted(federation.replica_groups)[0]
        federation.attach_warm_pool(group_id, 1)
        pool = federation.warm_pools[group_id]
        (standby,) = pool.standby_ids
        federation.set_srv(standby, weight=4)
        with pytest.raises(ValueError, match="drain it before parking"):
            pool.park(standby)

    def test_park_unpark_roundtrip(self):
        scenario = _scenario()
        federation = scenario.federation
        group_id = sorted(federation.replica_groups)[0]
        federation.attach_warm_pool(group_id, 1)
        pool = federation.warm_pools[group_id]
        (standby,) = pool.standby_ids
        assert pool.park(standby) > 0
        assert pool.is_parked(standby)
        # The server itself stays reachable for stale-cached clients.
        assert standby in federation.servers
        # Parking is idempotent through the federation primitive.
        assert federation.park_map_server(standby) == 0
        pool.ensure_registered(standby)
        assert not pool.is_parked(standby)
        assert pool.weight_of(standby) == 0

    def test_pool_rejects_foreign_server(self):
        scenario = _scenario()
        federation = scenario.federation
        group_id = sorted(federation.replica_groups)[0]
        federation.attach_warm_pool(group_id, 1)
        pool = federation.warm_pools[group_id]
        member = federation.replica_groups[group_id].server_ids[0]
        with pytest.raises(ValueError, match="not a standby"):
            pool.park(member)

    def test_attach_rejects_unknown_group_and_double_attach(self):
        scenario = _scenario()
        federation = scenario.federation
        group_id = sorted(federation.replica_groups)[0]
        with pytest.raises(FederationConfigError):
            federation.attach_warm_pool("no-such-group", 1)
        federation.attach_warm_pool(group_id, 1)
        with pytest.raises(FederationConfigError, match="already has a warm pool"):
            federation.attach_warm_pool(group_id, 1)

    def test_extend_rejects_duplicate_member(self):
        scenario = _scenario()
        federation = scenario.federation
        group_id = sorted(federation.replica_groups)[0]
        group = federation.replica_groups[group_id]
        with pytest.raises(ValueError, match="already a member"):
            group.extend((group.server_ids[0],))


def _flash_crowd_run(steps: int = 36, *, autoscale: AutoscalerConfig | None, **fed_kw):
    """The shared e2e fixture: store 0 takes a 60–240 s flash crowd."""
    scenario = _scenario(**fed_kw)
    federation = scenario.federation
    group_id = sorted(federation.replica_groups)[0]
    federation.attach_warm_pool(group_id, 2)
    plan = FaultPlan.flash_crowd(
        tuple(scenario.store_replica_ids(0)), 60.0, 240.0, extra_load=300
    )
    config = WorkloadConfig(
        clients=24,
        steps=steps,
        seed=7,
        step_seconds=20.0,
        resolver_pools=2,
        faults=plan,
        telemetry=TelemetryConfig(window_seconds=40.0, slo=SLOConfig(latency_ms=250.0)),
        autoscale=autoscale,
    )
    engine = WorkloadEngine(scenario, config)
    report = engine.run()
    return scenario, engine, report


_E2E_AUTOSCALE = AutoscalerConfig(
    wait_high_ms=25.0,
    wait_low_ms=8.0,
    burn_high=0.0,
    breach_evals=1,
    recover_evals=2,
    cooldown_seconds=60.0,
    ramp_cooldown_seconds=30.0,
    park_delay_seconds=40.0,
)


class TestAutoscalerEndToEnd:
    def test_flash_crowd_full_lifecycle(self):
        """The crowd triggers promotion; the ebb triggers gradual ramps and
        a park — and every op the scaler issued was accepted."""
        scenario, engine, report = _flash_crowd_run(autoscale=_E2E_AUTOSCALE)
        scaler = engine.autoscaler
        assert scaler is not None
        stats = report.autoscale_stats
        assert stats["promotions"] == 2.0
        assert stats["ramp_steps"] >= 3.0
        assert stats["parks"] >= 1.0
        assert stats["flaps"] == 0.0
        assert stats["ops_rejected"] == 0.0
        assert stats["active_peak"] == 4.0
        assert stats["replica_seconds"] > 0.0
        # Promotions landed inside the crowd window; the decision tape is
        # audited on the scaler's own control plane.
        promoted = [
            event
            for event in scaler.control.applied
            if event.weight == scaler.config.promote_weight
        ]
        assert promoted and all(45.0 <= event.at_seconds <= 250.0 for event in promoted)
        # Ramps are gradual: each standby steps down the ladder, never a
        # promote-weight → 0 cliff.
        for standby in scaler.pools[sorted(scaler.pools)[0]].standby_ids:
            weights = [
                event.weight
                for event in scaler.control.applied
                if event.server_id == standby and event.applied
            ]
            for before, after in zip(weights, weights[1:]):
                assert not (before == scaler.config.promote_weight and after == 0)

    def test_snapshot_gains_autoscale_keys(self):
        _scenario_, _engine, report = _flash_crowd_run(steps=8, autoscale=_E2E_AUTOSCALE)
        snapshot = report.snapshot()
        assert snapshot["autoscale.groups"] == 1.0
        assert snapshot["autoscale.standbys"] == 2.0
        assert json.dumps(snapshot, sort_keys=True)  # JSON-serializable

    def test_evaluations_pace_to_sealed_windows(self):
        _scenario_, engine, report = _flash_crowd_run(steps=8, autoscale=_E2E_AUTOSCALE)
        assert engine.telemetry is not None
        # One evaluation per sealed window per group, no more.
        assert report.autoscale_stats["evals"] == float(len(engine.telemetry.windows))

    def test_delayed_convergence_does_not_oscillate(self):
        """The oscillation gate: with cache TTLs stretching client
        convergence past a minute (the E15 regime) and a sustained
        borderline crowd, hysteresis + cooldown keep the loop monotonic —
        promotions bounded by the pool, zero flaps, a bounded weight tape."""
        _scenario_, engine, report = _flash_crowd_run(
            autoscale=_E2E_AUTOSCALE,
            device_discovery_cache_ttl_seconds=60.0,
            registration_ttl_seconds=80.0,
        )
        stats = report.autoscale_stats
        assert stats["flaps"] == 0.0
        assert stats["promotions"] <= 2.0
        assert stats["weight_changes"] <= 8.0
        # No server was scaled in both directions within one convergence
        # window (80 s): the cooldowns kept actions farther apart.
        scaler = engine.autoscaler
        assert scaler is not None
        last_action: dict[str, float] = {}
        for event in scaler.control.applied:
            if not event.applied:
                continue
            previous = last_action.get(event.server_id)
            if previous is not None:
                assert event.at_seconds - previous >= 30.0
            last_action[event.server_id] = event.at_seconds

    def test_off_by_default_builds_nothing(self):
        scenario = _scenario()
        config = WorkloadConfig(clients=6, steps=2, seed=7)
        engine = WorkloadEngine(scenario, config)
        assert engine.autoscaler is None
        assert engine._round_observers == []
        report = engine.run()
        assert report.autoscale_stats == {}
        assert not any(key.startswith("autoscale.") for key in report.snapshot())

    def test_autoscale_requires_telemetry(self):
        with pytest.raises(ValueError, match="telemetry"):
            WorkloadConfig(autoscale=AutoscalerConfig())

    def test_decision_tape_is_deterministic(self):
        def tape() -> list[tuple[float, str, str, bool]]:
            _scenario_, engine, _report = _flash_crowd_run(
                steps=18, autoscale=_E2E_AUTOSCALE
            )
            scaler = engine.autoscaler
            assert scaler is not None
            return [
                (event.at_seconds, event.kind, event.server_id, event.applied)
                for event in scaler.control.applied
            ]

        first = tape()
        assert first  # the run actually scaled
        assert first == tape()
