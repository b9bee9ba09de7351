"""Golden digests: the round loop vs the retired legacy loop's recorded output.

The engine used to carry two loops — an event heap and the original round
loop it was gated against.  Before the second loop was deleted, the sha256
of the canonical ``WorkloadReport.snapshot()`` JSON was recorded from the
legacy loop (and confirmed identical on the event loop) for every case
below: seeds, mobility mixes, resolver shardings, churn tapes, control
tapes, stochastic network jitter, telemetry and a live autoscaler.  The
single loop must reproduce each digest *byte-identically* — identical
floats, identical keys — which is the same trick the committed
``BENCH_e*.json`` gate uses, applied to configurations no benchmark covers.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.config import FederationConfig
from repro.simulation.network import LatencyModel
from repro.simulation.queueing import ServiceTimeModel
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

GOLDEN = {
    "seed-0": "032e1be3b2c20dc8d49249da0342736a0775780553265c13e2749293650bbfa1",
    "seed-7": "6eba6f285a3610fe0c16500822846ef25a5fc3864464857e57b1770ee3230d93",
    "seed-21": "b01e7191238eafc19b66c9c351a273edc49237ef8ae3507a379401d95f746a0a",
    "shape-1x1": "72679bf46c7892e4e524884f4880f822f6f3c76bca86220306390b7038054432",
    "shape-5x2": "01a537686a723b0a62c1a04439b27fad7e82d9afabeb7d16ba47ecb405010b1f",
    "shape-40x4": "21d0b3f6c0283d97d3c7e316ed4275672c550614b56cb5b1c47e59037e0bd6a3",
    "long-traces": "9fcf53aa800408b3c9fd827c691a187cf84ca2d2531e022c59766879a4e63a45",
    "resolver-pools": "a6e9c91b50005a8ec7cac614c864aca941c38ae9c7b6575608256d965231ac20",
    "jitter": "3d238cca3b691e08c3b04f9859295ba2a95890f3f1fac3819b8fb53795f387d8",
    "churn-tape": "730e56d8e27a317bf5780a071e0e5fa0223615bf6a735a08d860fb99beb8b071",
    "control-tape": "6a27c3834aae185fa47d66e3931545ce3664f4b14cd20a4d7f60699198b3c267",
    "kitchen-sink": "304e1e51d8046dfe473038cddd8616ae62eae3d3a5e5f77e42e82cd9dc096be2",
    "telemetry": "2596d3ee320d241330c3ab2f72737ac018e340d2422684b01e3ef0d9f9c01348",
    "autoscaler": "34f2e103463dfb20d15c54662b2362e11c009ed6e153d726491b0f8f65144261",
}
"""sha256 of the canonical snapshot JSON per case, recorded from the
legacy loop at the commit that deleted it.  A digest may change only with
a deliberate, explained change to simulated behaviour."""


def snapshot_for(*, scenario_kw=None, **config_kw) -> str:
    """Run one fresh scenario+fleet and return the canonical snapshot JSON.

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
    report = WorkloadEngine(scenario, WorkloadConfig(**config_kw)).run()
    return json.dumps(report.snapshot(), sort_keys=True)


def assert_golden(case: str, snapshot_json: str) -> None:
    assert hashlib.sha256(snapshot_json.encode()).hexdigest() == GOLDEN[case]


class TestByteIdenticalSnapshots:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_across_seeds(self, seed):
        assert_golden(f"seed-{seed}", snapshot_for(seed=seed))

    @pytest.mark.parametrize("clients,steps", [(1, 1), (5, 2), (40, 4)])
    def test_across_fleet_shapes(self, clients, steps):
        assert_golden(
            f"shape-{clients}x{steps}", snapshot_for(clients=clients, steps=steps, seed=7)
        )

    def test_with_long_traces_and_dwell(self):
        assert_golden(
            "long-traces",
            snapshot_for(seed=7, long_traces=True, trace_dwell_steps=2, steps=5),
        )

    def test_with_resolver_pools(self):
        assert_golden("resolver-pools", snapshot_for(seed=7, resolver_pools=3))

    def test_with_stochastic_network_jitter(self):
        assert_golden(
            "jitter",
            snapshot_for(
                seed=7,
                scenario_kw={"config": FederationConfig(latency=LatencyModel(jitter_sigma=0.4))},
            ),
        )

    def test_with_churn_tape(self):
        scenario_kw = {"store_replicas": 2, "seed": 21}
        scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, **scenario_kw)
        victim = scenario.store_replica_ids(0)[0]
        churn = ChurnSchedule.from_events(
            [
                ChurnEvent(4.0, ChurnEventKind.CRASH, victim),
                ChurnEvent(20.0, ChurnEventKind.JOIN, victim),
            ]
        )
        assert_golden(
            "churn-tape", snapshot_for(seed=11, steps=6, churn=churn, scenario_kw=scenario_kw)
        )

    def test_with_control_tape(self):
        scenario_kw = {"store_replicas": 3, "seed": 21}
        scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, **scenario_kw)
        replicas = scenario.store_replica_ids(0)
        control = ControlSchedule.from_events(
            [
                ControlEvent(6.0, ControlEventKind.SET_WEIGHT, replicas[1], 7),
                ControlEvent(14.0, ControlEventKind.DRAIN, replicas[2]),
            ]
        )
        assert_golden(
            "control-tape",
            snapshot_for(seed=11, steps=6, control=control, scenario_kw=scenario_kw),
        )

    def test_kitchen_sink(self):
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
        control = ControlSchedule.from_events(
            [ControlEvent(10.0, ControlEventKind.SET_WEIGHT, replicas[1], 9)]
        )
        assert_golden(
            "kitchen-sink",
            snapshot_for(
                seed=3,
                steps=7,
                clients=30,
                resolver_pools=2,
                long_traces=True,
                churn=churn,
                control=control,
                scenario_kw=scenario_kw,
            ),
        )


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

    def test_telemetry_on_event_legacy_equivalence(self):
        """With telemetry collecting, the loop still matches the legacy
        loop's recorded digest (including every ``telemetry.*`` key)."""
        from repro.telemetry import TelemetryConfig

        snapshot = snapshot_for(
            seed=7, steps=5, telemetry=TelemetryConfig(window_seconds=4.0)
        )
        assert_golden("telemetry", snapshot)
        assert any(key.startswith("telemetry.") for key in json.loads(snapshot))

    def test_autoscaler_on_event_legacy_equivalence(self):
        """With a live autoscaler driving warm-pool weights mid-run, the
        loop still matches the legacy loop's recorded digest (including
        every ``autoscale.*`` key): the scaler's round observer fires at
        the same instants, so the whole decision tape is identical."""
        from repro.autoscale import AutoscalerConfig
        from repro.telemetry import TelemetryConfig

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
        scenario.federation.attach_warm_pool(
            sorted(scenario.federation.replica_groups)[0], 1
        )
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
        report = WorkloadEngine(scenario, config).run()
        snapshot = json.dumps(report.snapshot(), sort_keys=True)
        assert_golden("autoscaler", snapshot)
        assert any(key.startswith("autoscale.") for key in json.loads(snapshot))


class TestEquivalenceBoundary:
    def test_snapshot_has_no_sampling_keys_below_threshold(self):
        data = json.loads(snapshot_for(seed=7))
        assert not any(key.startswith("sampling.") for key in data)

    def test_snapshot_has_no_telemetry_keys_when_disabled(self):
        data = json.loads(snapshot_for(seed=7))
        assert not any(key.startswith("telemetry.") for key in data)
