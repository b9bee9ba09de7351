"""Goldens: the round loop vs the retired legacy loop's recorded output.

The engine used to carry two loops — an event heap and the original round
loop it was gated against.  Before the second loop was deleted, the
canonical ``WorkloadReport.snapshot()`` of every case below was recorded
from the legacy loop (and confirmed identical on the event loop): seeds,
mobility mixes, resolver shardings, churn, control and fault tapes,
stochastic network jitter, telemetry and a live autoscaler.  The single
loop must reproduce each snapshot *byte-identically* — identical floats,
identical keys — which is the same trick the committed ``BENCH_e*.json``
gate uses, applied to configurations no benchmark covers.  The snapshots
live in ``tests/goldens/test_engine_equivalence/`` (see ``golden.py``); one
may change only with a deliberate, explained change to simulated behaviour.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from pathlib import Path

import pytest
from golden import assert_golden, golden_path

from repro.autoscale.policy import AutoscalerConfig
from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.config import FederationConfig
from repro.faults.schedule import FaultPlan
from repro.operator.config import OperatorConfig
from repro.services.retry import RetryPolicy
from repro.simulation.network import LatencyModel
from repro.simulation.queueing import ServiceTimeModel
from repro.telemetry.pipeline import TelemetryConfig
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.workload.report import WorkloadReport
from repro.worldgen.scenario import build_scenario


def report_for(*, scenario_kw=None, **config_kw) -> WorkloadReport:
    """Run one fresh scenario+fleet and return its report.

    Scenarios are rebuilt per run (never shared): runs mutate
    caches/queues/clock.
    """
    scenario_kw = dict(scenario_kw or {})
    scenario_kw.setdefault("store_count", 2)
    scenario_kw.setdefault("city_rows", 4)
    scenario_kw.setdefault("city_cols", 4)
    scenario_kw.setdefault("seed", 33)
    scenario = build_scenario(**scenario_kw)
    config_kw.setdefault("clients", 24)
    config_kw.setdefault("steps", 3)
    return WorkloadEngine(scenario, WorkloadConfig(**config_kw)).run()


def snapshot_for(**kw) -> dict:
    return report_for(**kw).snapshot()


def _churn_tape() -> WorkloadReport:
    scenario_kw = {"store_replicas": 2, "seed": 21}
    scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, **scenario_kw)
    victim = scenario.store_replica_ids(0)[0]
    churn = ChurnSchedule.from_events(
        [
            ChurnEvent(4.0, ChurnEventKind.CRASH, victim),
            ChurnEvent(20.0, ChurnEventKind.JOIN, victim),
        ]
    )
    return report_for(seed=11, steps=6, churn=churn, scenario_kw=scenario_kw)


def _control_tape() -> WorkloadReport:
    scenario_kw = {"store_replicas": 3, "seed": 21}
    scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, **scenario_kw)
    replicas = scenario.store_replica_ids(0)
    control = ControlSchedule.from_events(
        [
            ControlEvent(6.0, ControlEventKind.SET_WEIGHT, replicas[1], 7),
            ControlEvent(14.0, ControlEventKind.DRAIN, replicas[2]),
        ]
    )
    return report_for(seed=11, steps=6, control=control, scenario_kw=scenario_kw)


def _kitchen_sink() -> WorkloadReport:
    """Everything at once: replicas, queue model, jitter, churn AND
    control tapes, long traces, sharded resolvers."""
    fed = FederationConfig(
        latency=LatencyModel(jitter_sigma=0.3),
        service_times=ServiceTimeModel(default_ms=2.0, per_kind_ms={"routing": 5.0}),
        server_queue_capacity=64,
    )
    scenario_kw = {"store_replicas": 2, "seed": 21, "config": fed}
    scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, **scenario_kw)
    replicas = scenario.store_replica_ids(0)
    churn = ChurnSchedule.from_events(
        [
            ChurnEvent(4.0, ChurnEventKind.CRASH, replicas[0]),
            ChurnEvent(24.0, ChurnEventKind.JOIN, replicas[0]),
        ]
    )
    control = ControlSchedule.from_events([ControlEvent(10.0, ControlEventKind.SET_WEIGHT, replicas[1], 9)])
    return report_for(
        seed=3,
        steps=7,
        clients=30,
        resolver_pools=2,
        long_traces=True,
        churn=churn,
        control=control,
        scenario_kw=scenario_kw,
    )


def _autoscaler() -> WorkloadReport:
    """A live autoscaler driving warm-pool weights mid-run: the scaler's
    round observer fires at the same instants, so the whole decision tape
    is identical."""
    scenario = build_scenario(
        store_count=2,
        city_rows=4,
        city_cols=4,
        seed=33,
        store_replicas=2,
        config=FederationConfig(
            service_times=ServiceTimeModel(default_ms=2.0),
            server_queue_capacity=64,
        ),
    )
    scenario.federation.attach_warm_pool(sorted(scenario.federation.replica_groups)[0], 1)
    config = WorkloadConfig(
        clients=24,
        steps=6,
        seed=7,
        step_seconds=10.0,
        telemetry=TelemetryConfig(window_seconds=20.0),
        autoscale=AutoscalerConfig(
            wait_high_ms=1.0,
            wait_low_ms=0.5,
            burn_high=0.0,
            breach_evals=1,
            recover_evals=1,
            cooldown_seconds=10.0,
            ramp_cooldown_seconds=10.0,
            park_delay_seconds=10.0,
        ),
    )
    return WorkloadEngine(scenario, config).run()


def _fault_tape() -> WorkloadReport:
    """A partition of one replica per store, then a gray failure, on a
    federation with device caches, a queue model and jittered retries."""
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=120.0,
        registration_ttl_seconds=3600.0,
        client_tile_cache_entries=64,
        service_times=ServiceTimeModel(default_ms=2.0),
        server_queue_capacity=128,
        retry_policy=RetryPolicy.full_jitter(),
        stale_serve_max_ms=0.0,
    )
    scenario = build_scenario(
        store_count=2,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=33,
        reuse_worlds=True,
        store_replicas=2,
    )
    victims = tuple(scenario.store_replica_ids(i)[0] for i in range(2))
    plan = FaultPlan.partition(victims, 30.0, 90.0) + FaultPlan.gray(
        (scenario.store_replica_ids(0)[1],),
        50.0,
        110.0,
        latency_multiplier=6.0,
        loss_probability=0.2,
    )
    config = WorkloadConfig(clients=10, steps=6, seed=7, step_seconds=20.0, faults=plan)
    return WorkloadEngine(scenario, config).run()


def _every_subsystem() -> WorkloadReport:
    """Faults, churn with a rejoin, a drain and undrain sent through the
    operator API over the network, telemetry on two resolver regions and
    a live autoscaler: the one case where servers are rediscovered and
    devices converge."""
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=30.0,
        registration_ttl_seconds=60.0,
        client_tile_cache_entries=64,
        service_times=ServiceTimeModel(default_ms=2.0, per_kind_ms={"routing": 4.0}),
        server_queue_capacity=256,
        retry_policy=RetryPolicy.full_jitter(),
    )
    scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, config=config, seed=33, store_replicas=2)
    store0, store1 = scenario.store_replica_ids(0), scenario.store_replica_ids(1)
    scenario.federation.attach_warm_pool(sorted(scenario.federation.replica_groups)[0], 2)
    plan = (
        FaultPlan.flash_crowd(store0, 20.0, 50.0, extra_load=300)
        + FaultPlan.partition(store1[:1], 40.0, 60.0, regions=(1,))
        + FaultPlan.authority_outage(90.0, 110.0)
    )
    churn = ChurnSchedule.from_events(
        [ChurnEvent(10.0, ChurnEventKind.CRASH, store1[1]), ChurnEvent(50.0, ChurnEventKind.JOIN, store1[1])]
    )
    control = ControlSchedule.from_events(
        [ControlEvent(20.0, ControlEventKind.DRAIN, store0[1]), ControlEvent(70.0, ControlEventKind.UNDRAIN, store0[1])]
    )
    workload = WorkloadConfig(
        clients=16,
        steps=12,
        seed=7,
        step_seconds=10.0,
        resolver_pools=2,
        faults=plan,
        churn=churn,
        control=control,
        telemetry=TelemetryConfig(window_seconds=40.0),
        autoscale=AutoscalerConfig(
            wait_high_ms=1.0,
            wait_low_ms=0.5,
            burn_high=0.0,
            breach_evals=1,
            recover_evals=2,
            cooldown_seconds=60.0,
            ramp_cooldown_seconds=30.0,
            park_delay_seconds=40.0,
        ),
        operator=OperatorConfig(transport="network", timeout_ms=400.0),
    )
    return WorkloadEngine(scenario, workload).run()


RUNS: dict[str, Callable[[], WorkloadReport]] = {
    "seed-0": lambda: report_for(seed=0),
    "seed-7": lambda: report_for(seed=7),
    "seed-21": lambda: report_for(seed=21),
    "shape-1x1": lambda: report_for(clients=1, steps=1, seed=7),
    "shape-5x2": lambda: report_for(clients=5, steps=2, seed=7),
    "shape-40x4": lambda: report_for(clients=40, steps=4, seed=7),
    "long-traces": lambda: report_for(seed=7, long_traces=True, trace_dwell_steps=2, steps=5),
    "resolver-pools": lambda: report_for(seed=7, resolver_pools=3),
    "jitter": lambda: report_for(
        seed=7, scenario_kw={"config": FederationConfig(latency=LatencyModel(jitter_sigma=0.4))}
    ),
    "churn-tape": _churn_tape,
    "control-tape": _control_tape,
    "kitchen-sink": _kitchen_sink,
    "telemetry": lambda: report_for(seed=7, steps=5, telemetry=TelemetryConfig(window_seconds=4.0)),
    "autoscaler": _autoscaler,
    "fault-tape": _fault_tape,
    "every-subsystem": _every_subsystem,
    "cohort": lambda: report_for(
        clients=600,
        steps=3,
        seed=7,
        cohort_min_clients=500,
        scenario_kw={
            "config": FederationConfig(service_times=ServiceTimeModel(default_ms=2.0), server_queue_capacity=64)
        },
    ),
}
"""Each case's run.  Between them they turn on every subsystem, so the
report-key census (``test_ci_pipeline.py``) reads its snapshots from here."""

CASES: dict[str, Callable[[], object]] = {case: (lambda run=run: run().snapshot()) for case, run in RUNS.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_matches_golden(case):
    assert_golden(__file__, case, CASES[case]())


@pytest.mark.parametrize(
    "case,prefix",
    [
        ("telemetry", "telemetry."),
        ("autoscaler", "autoscale."),
        ("fault-tape", "faults."),
        ("every-subsystem", "operator."),
        ("cohort", "sampling."),
    ],
)
def test_golden_covers_its_subsystem(case, prefix):
    """The stored snapshot of a subsystem's case carries that subsystem's
    keys, so the golden above holds every one of them."""
    stored = json.loads(golden_path(Path(__file__).stem, case).read_text())
    assert any(key.startswith(prefix) for key in stored)


class TestRoundObserverHook:
    """The round-boundary observer hook must be byte-transparent."""

    def _snapshot_with_observer(self, observe: bool) -> tuple[str, list]:
        scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, seed=33)
        config = WorkloadConfig(clients=24, steps=4, seed=7)
        engine = WorkloadEngine(scenario, config)
        seen: list[tuple[int, float]] = []
        if observe:
            engine.add_round_observer(lambda index, now: seen.append((index, now)))
        report = engine.run()
        return json.dumps(report.snapshot(), sort_keys=True), seen

    def test_noop_observer_is_byte_transparent(self):
        """A registered observer that does nothing changes no snapshot byte
        — the hook itself is free — and sees every round index once, in
        order, at non-decreasing instants."""
        bare, _ = self._snapshot_with_observer(observe=False)
        observed, seen = self._snapshot_with_observer(observe=True)
        assert observed == bare
        assert [index for index, _ in seen] == [0, 1, 2, 3]
        instants = [now for _, now in seen]
        assert instants == sorted(instants)


class TestEquivalenceBoundary:
    def test_snapshot_has_no_sampling_keys_below_threshold(self):
        data = snapshot_for(seed=7)
        assert not any(key.startswith("sampling.") for key in data)

    def test_snapshot_has_no_telemetry_keys_when_disabled(self):
        data = snapshot_for(seed=7)
        assert not any(key.startswith("telemetry.") for key in data)
