"""Tests for the operator control plane: live re-weighting, drains, standbys.

Covers the imperative :class:`~repro.control.plane.ControlPlane` API
(set_weight / drain / undrain / promote) against a live federation, weight
preservation across the churn lifecycle, the
:class:`~repro.control.schedule.ControlSchedule` tape and its round-boundary
application, the client-side staleness machinery
(:class:`~repro.core.srv_view.DeviceSrvView`, ``Discoverer.srv_view``), and
the end-to-end drain/standby experiments the E15 benchmark sweeps.
"""

from __future__ import annotations

import random

import pytest

from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.control.plane import ControlOp, ControlPlane
from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.config import FederationConfig
from repro.core.errors import FederationConfigError
from repro.core.federation import Federation
from repro.core.srv_view import DeviceSrvView
from repro.dns.records import SrvData
from repro.geometry.point import LatLng
from repro.services.failover import rfc2782_order
from repro.services.retry import RetryPolicy
from repro.simulation.queueing import ServiceTimeModel
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.worldgen.indoor import generate_store
from repro.worldgen.scenario import build_scenario

ANCHOR = LatLng(40.4410, -79.9570)


def replicated_federation(weights=(1, 1, 1), priorities=None) -> Federation:
    federation = Federation()
    store = generate_store("shop.example", ANCHOR, seed=4)
    federation.add_replica_group(
        "shop.example",
        store.map_data,
        replica_count=len(weights),
        weights=weights,
        priorities=priorities,
    )
    return federation


def advertised_srv(federation: Federation, server_id: str) -> SrvData:
    """The SRV data the authority currently serves for a server."""
    registration = federation.registration_for(server_id)
    assert registration is not None
    for cell in registration.cells:
        for record in federation.registry.records_for_cell(cell):
            srv = SrvData.decode(record.data)
            if srv.target == registration.target:
                return srv
    raise AssertionError(f"no record found for {server_id!r}")


# ----------------------------------------------------------------------
# Imperative API
# ----------------------------------------------------------------------
class TestControlPlaneOps:
    def test_set_weight_propagates_to_records_group_and_srv_of(self):
        federation = replicated_federation()
        plane = ControlPlane(federation)
        assert plane.set_weight("r0.shop.example", 5) == (0, 5)
        assert federation.srv_of("r0.shop.example") == (0, 5)
        assert federation.replica_groups["shop.example"].weights == (5, 1, 1)
        assert advertised_srv(federation, "r0.shop.example").weight == 5
        assert advertised_srv(federation, "r1.shop.example").weight == 1

    def test_drain_and_undrain_restore_previous_weight(self):
        federation = replicated_federation(weights=(3, 1, 1))
        plane = ControlPlane(federation)
        plane.drain("r0.shop.example")
        assert federation.srv_of("r0.shop.example") == (0, 0)
        assert advertised_srv(federation, "r0.shop.example").weight == 0
        plane.undrain("r0.shop.example")
        assert federation.srv_of("r0.shop.example") == (0, 3)

    def test_undrain_without_memory_uses_default_weight(self):
        federation = replicated_federation(weights=(0, 1, 1))
        plane = ControlPlane(federation)
        # r0 was deployed at weight 0 — the plane has nothing remembered.
        plane.undrain("r0.shop.example")
        assert federation.srv_of("r0.shop.example")[1] == 1

    def test_undrain_with_explicit_weight_wins(self):
        federation = replicated_federation(weights=(3, 1, 1))
        plane = ControlPlane(federation)
        plane.drain("r0.shop.example")
        plane.undrain("r0.shop.example", weight=7)
        assert federation.srv_of("r0.shop.example") == (0, 7)

    def test_rejected_undrain_keeps_the_predrain_memory(self):
        """Regression: a failed restore must not consume the remembered
        weight — the operator retries with a valid request."""
        federation = replicated_federation(weights=(3, 1, 1))
        plane = ControlPlane(federation)
        plane.drain("r0.shop.example")
        with pytest.raises(FederationConfigError):
            plane.undrain("r0.shop.example", weight=-1)
        # The retry without an explicit weight still restores the pre-drain one.
        plane.undrain("r0.shop.example")
        assert federation.srv_of("r0.shop.example")[1] == 3

    def test_explicit_set_weight_clears_drain_memory(self):
        federation = replicated_federation(weights=(3, 1, 1))
        plane = ControlPlane(federation)
        plane.drain("r0.shop.example")
        plane.set_weight("r0.shop.example", 2)
        plane.drain("r0.shop.example")
        plane.undrain("r0.shop.example")
        assert federation.srv_of("r0.shop.example") == (0, 2)

    def test_promote_moves_tier_and_reorders_chains(self):
        federation = replicated_federation(weights=(1, 1), priorities=(0, 1))
        plane = ControlPlane(federation)
        srv_of = {
            "r0.shop.example": federation.srv_of("r0.shop.example"),
            "r1.shop.example": federation.srv_of("r1.shop.example"),
        }
        chain = rfc2782_order(sorted(srv_of), srv_of, random.Random(0))
        assert chain[0] == "r0.shop.example"  # tier 0 first
        plane.promote("r1.shop.example", 0)
        plane.promote("r0.shop.example", 1)
        srv_of = {sid: federation.srv_of(sid) for sid in srv_of}
        chain = rfc2782_order(sorted(srv_of), srv_of, random.Random(0))
        assert chain[0] == "r1.shop.example"  # tiers swapped
        assert advertised_srv(federation, "r1.shop.example").priority == 0

    def test_draining_last_positive_weight_is_rejected_atomically(self):
        federation = replicated_federation(weights=(1, 0, 0))
        plane = ControlPlane(federation)
        with pytest.raises(ValueError, match="no positive weight"):
            plane.drain("r0.shop.example")
        # Rejection left every layer untouched.
        assert federation.srv_of("r0.shop.example") == (0, 1)
        assert federation.replica_groups["shop.example"].weights == (1, 0, 0)
        assert advertised_srv(federation, "r0.shop.example").weight == 1

    def test_unknown_server_and_negative_values_raise(self):
        federation = replicated_federation()
        plane = ControlPlane(federation)
        with pytest.raises(FederationConfigError):
            plane.set_weight("ghost.example", 1)
        with pytest.raises(FederationConfigError):
            federation.set_srv("r0.shop.example", weight=-1)
        with pytest.raises(FederationConfigError):
            federation.set_srv("r0.shop.example", priority=-1)

    def test_standalone_server_can_be_reweighted(self):
        federation = Federation()
        store = generate_store("solo.example", ANCHOR, seed=4)
        federation.add_map_server("solo.example", store.map_data, srv_weight=2)
        ControlPlane(federation).set_weight("solo.example", 4)
        assert federation.srv_of("solo.example") == (0, 4)
        assert advertised_srv(federation, "solo.example").weight == 4


# ----------------------------------------------------------------------
# Batched application (the autoscaler's path)
# ----------------------------------------------------------------------
class TestApplyBatch:
    def test_second_op_on_same_server_sees_the_firsts_result(self):
        """Two ops targeting one server in one batch apply sequentially:
        the drain must remember the weight the batch's own set_weight just
        installed, not the pre-batch value."""
        federation = replicated_federation(weights=(3, 1, 1))
        plane = ControlPlane(federation)
        records = plane.apply_batch(
            10.0,
            [
                ControlOp(ControlEventKind.SET_WEIGHT, "r0.shop.example", 2),
                ControlOp(ControlEventKind.DRAIN, "r0.shop.example"),
            ],
        )
        assert [record.applied for record in records] == [True, True]
        assert federation.srv_of("r0.shop.example") == (0, 0)
        plane.undrain("r0.shop.example")
        assert federation.srv_of("r0.shop.example") == (0, 2)

    def test_drain_then_undrain_in_one_batch_round_trips(self):
        federation = replicated_federation(weights=(5, 1, 1))
        plane = ControlPlane(federation)
        records = plane.apply_batch(
            0.0,
            [
                ControlOp(ControlEventKind.DRAIN, "r0.shop.example"),
                ControlOp(ControlEventKind.UNDRAIN, "r0.shop.example"),
            ],
        )
        assert [(r.applied, r.weight) for r in records] == [(True, 0), (True, 5)]
        assert federation.srv_of("r0.shop.example") == (0, 5)

    def test_rejected_op_records_the_live_srv_state(self):
        """Regression: a rejected op used to fabricate ``(0, 0)`` in its
        audit record.  Conflicting drains in one batch (autoscaler ramp vs
        operator drain) must record the loser against the server's *true*
        live state — replay consumers and convergence tracking depend on
        the record, and (0, 0) is indistinguishable from a drained win."""
        federation = replicated_federation(weights=(1, 4))
        plane = ControlPlane(federation)
        records = plane.apply_batch(
            5.0,
            [
                ControlOp(ControlEventKind.DRAIN, "r0.shop.example"),
                ControlOp(ControlEventKind.DRAIN, "r1.shop.example"),
            ],
        )
        assert records[0].applied and records[0].weight == 0
        loser = records[1]
        assert not loser.applied
        # The record carries r1's real live SRV state, not (0, 0).
        assert (loser.priority, loser.weight) == federation.srv_of("r1.shop.example")
        assert loser.weight == 4

    def test_rejected_op_on_unknown_server_still_records_zeros(self):
        federation = replicated_federation()
        plane = ControlPlane(federation)
        [record] = plane.apply_batch(
            0.0, [ControlOp(ControlEventKind.DRAIN, "ghost.example")]
        )
        assert not record.applied
        assert (record.priority, record.weight) == (0, 0)

    def test_rejected_scheduled_event_records_live_state_too(self):
        """The tape path funnels through the same ``_perform``."""
        federation = replicated_federation(weights=(1, 0, 0))
        plane = ControlPlane(
            federation,
            schedule=ControlSchedule.from_events(
                [ControlEvent(0.0, ControlEventKind.DRAIN, "r0.shop.example")]
            ),
        )
        [record] = plane.apply_until(1.0)
        assert not record.applied
        assert (record.priority, record.weight) == (0, 1)


# ----------------------------------------------------------------------
# Interaction with the churn lifecycle
# ----------------------------------------------------------------------
class TestControlAcrossChurn:
    def test_new_weight_survives_crash_expire_revive(self):
        federation = replicated_federation(weights=(3, 1, 1))
        ControlPlane(federation).set_weight("r0.shop.example", 6)
        federation.crash_map_server("r0.shop.example")
        federation.expire_registration("r0.shop.example")
        federation.revive_map_server("r0.shop.example")
        assert federation.srv_of("r0.shop.example") == (0, 6)
        assert advertised_srv(federation, "r0.shop.example").weight == 6

    def test_reweight_while_crashed_updates_lingering_records(self):
        """A crashed server's records linger until the lease expires; an
        operator can still re-weight them (e.g. drain the corpse so caches
        converge away from it before the lease does)."""
        federation = replicated_federation(weights=(3, 1, 1))
        federation.crash_map_server("r0.shop.example")
        ControlPlane(federation).drain("r0.shop.example")
        assert advertised_srv(federation, "r0.shop.example").weight == 0

    def test_reweight_after_lease_expiry_applies_on_revival(self):
        federation = replicated_federation(weights=(3, 1, 1))
        federation.crash_map_server("r0.shop.example")
        federation.expire_registration("r0.shop.example")
        ControlPlane(federation).set_weight("r0.shop.example", 9)
        assert federation.registration_for("r0.shop.example") is None
        federation.revive_map_server("r0.shop.example")
        assert advertised_srv(federation, "r0.shop.example").weight == 9

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_control_and_churn_interleavings_stay_consistent(self, seed):
        """Any interleaving of set_srv with crash/expire/revive keeps the
        three layers (srv_of, group tuples, authority records) agreeing."""
        rng = random.Random(seed)
        federation = replicated_federation(weights=(2, 2, 2))
        replicas = list(federation.replica_groups["shop.example"].server_ids)
        for _ in range(120):
            server_id = rng.choice(replicas)
            op = rng.random()
            try:
                if op < 0.35:
                    federation.set_srv(
                        server_id,
                        priority=rng.randint(0, 2) if rng.random() < 0.4 else None,
                        weight=rng.randint(0, 4) if rng.random() < 0.9 else None,
                    )
                elif op < 0.55:
                    federation.crash_map_server(server_id)
                elif op < 0.7:
                    federation.expire_registration(server_id)
                elif op < 0.9:
                    federation.revive_map_server(server_id)
                else:
                    federation.leave_map_server(server_id)
            except (FederationConfigError, ValueError):
                continue  # inapplicable op for the current state — fine
        group = federation.replica_groups["shop.example"]
        for index, server_id in enumerate(group.server_ids):
            priority, weight = federation.srv_of(server_id)
            assert group.weights[index] == weight
            assert group.priorities[index] == priority
            if federation.registration_for(server_id) is not None:
                srv = advertised_srv(federation, server_id)
                assert (srv.priority, srv.weight) == (priority, weight)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
class TestControlSchedule:
    def test_events_sort_and_validate(self):
        schedule = ControlSchedule.from_events(
            [
                ControlEvent(20.0, ControlEventKind.UNDRAIN, "b"),
                ControlEvent(10.0, ControlEventKind.DRAIN, "a"),
            ]
        )
        assert [event.at_seconds for event in schedule] == [10.0, 20.0]
        assert schedule.horizon_seconds == 20.0
        assert schedule.servers == ("a", "b")
        with pytest.raises(ValueError, match="predate"):
            ControlEvent(-1.0, ControlEventKind.DRAIN, "a")
        with pytest.raises(ValueError, match="need a value"):
            ControlEvent(0.0, ControlEventKind.SET_WEIGHT, "a")
        with pytest.raises(ValueError, match="negative"):
            ControlEvent(0.0, ControlEventKind.PROMOTE, "a", value=-2)

    def test_same_instant_events_keep_authored_order(self):
        """Regression: the tape must not alphabetize same-instant actions —
        "set the weight, THEN drain" at one instant means exactly that."""
        federation = replicated_federation(weights=(3, 1, 1))
        plane = ControlPlane(
            federation,
            schedule=ControlSchedule.from_events(
                [
                    ControlEvent(10.0, ControlEventKind.SET_WEIGHT, "r0.shop.example", 5),
                    ControlEvent(10.0, ControlEventKind.DRAIN, "r0.shop.example"),
                ]
            ),
        )
        assert [event.kind for event in plane.schedule] == [
            ControlEventKind.SET_WEIGHT,
            ControlEventKind.DRAIN,
        ]
        plane.apply_until(10.0)
        # Drained last, remembering the just-set weight for the undrain.
        assert federation.srv_of("r0.shop.example")[1] == 0
        plane.undrain("r0.shop.example")
        assert federation.srv_of("r0.shop.example")[1] == 5

    def test_drain_window_helper(self):
        schedule = ControlSchedule.drain_window("a", 10.0, 50.0)
        kinds = [event.kind for event in schedule]
        assert kinds == [ControlEventKind.DRAIN, ControlEventKind.UNDRAIN]
        with pytest.raises(ValueError, match="after"):
            ControlSchedule.drain_window("a", 10.0, 5.0)

    def test_apply_until_walks_the_tape_once(self):
        federation = replicated_federation(weights=(3, 1, 1))
        plane = ControlPlane(
            federation,
            schedule=ControlSchedule.drain_window("r0.shop.example", 10.0, 50.0),
        )
        assert plane.pending_events == 2
        applied = plane.apply_until(10.0)
        assert [event.kind for event in applied] == ["drain"]
        assert federation.srv_of("r0.shop.example")[1] == 0
        assert plane.apply_until(10.0) == []  # cursor moved on
        applied = plane.apply_until(100.0)
        assert [event.kind for event in applied] == ["undrain"]
        assert federation.srv_of("r0.shop.example")[1] == 3
        assert plane.pending_events == 0

    def test_rejected_events_are_recorded_not_fatal(self):
        federation = replicated_federation()
        plane = ControlPlane(
            federation,
            schedule=ControlSchedule.from_events(
                [
                    ControlEvent(0.0, ControlEventKind.DRAIN, "ghost.example"),
                    ControlEvent(1.0, ControlEventKind.SET_WEIGHT, "r1.shop.example", 4),
                ]
            ),
        )
        applied = plane.apply_until(5.0)
        assert [event.applied for event in applied] == [False, True]
        assert federation.srv_of("r1.shop.example") == (0, 4)


# ----------------------------------------------------------------------
# Client-side staleness
# ----------------------------------------------------------------------
class TestDeviceSrvView:
    def test_discovered_values_override_the_live_fallback(self):
        view = DeviceSrvView({"a": (0, 3)}, {"a": (0, 9), "b": (1, 2)})
        assert view["a"] == (0, 3)  # stale but first-hand
        assert view["b"] == (1, 2)  # never resolved: live value
        assert view.get("c") is None
        assert view.get("c", (0, 0)) == (0, 0)
        assert "a" in view and "b" in view and "c" not in view
        assert len(view) == 2 and set(view) == {"a", "b"}
        assert view.is_stale("a") and not view.is_stale("b")

    def test_context_view_goes_stale_then_converges_with_the_caches(self):
        """A client that discovered a server keeps the old weight after a
        live re-weight, until both its device cache and the resolver cache
        have expired — then a fresh discovery converges its view."""
        federation = Federation(
            FederationConfig(
                device_discovery_cache_ttl_seconds=30.0,
                registration_ttl_seconds=60.0,
            )
        )
        store = generate_store("shop.example", ANCHOR, seed=4)
        federation.add_replica_group(
            "shop.example", store.map_data, replica_count=2, weights=(3, 1)
        )
        client = federation.client()
        context = client.context
        context.discover_at(store.entrance)
        assert context.srv_of.get("r0.shop.example") == (0, 3)

        ControlPlane(federation).set_weight("r0.shop.example", 1)
        # Authority updated; the device still holds the cached view.
        context.discover_at(store.entrance)
        assert context.srv_of.get("r0.shop.example") == (0, 3)
        assert context.srv_of.is_stale("r0.shop.example")

        # Past every TTL, a fresh discovery converges the view.
        federation.network.clock.advance(61.0)
        context.discover_at(store.entrance)
        assert context.srv_of.get("r0.shop.example") == (0, 1)
        assert not context.srv_of.is_stale("r0.shop.example")

    def test_fresh_device_bootstraps_on_live_values(self):
        federation = replicated_federation(weights=(3, 1, 1))
        ControlPlane(federation).set_weight("r0.shop.example", 5)
        context = federation.client().context
        # Never discovered anything: the fallback serves the live value.
        assert context.srv_of.get("r0.shop.example") == (0, 5)


# ----------------------------------------------------------------------
# End-to-end through the workload engine
# ----------------------------------------------------------------------
class TestEngineControlIntegration:
    STEP_SECONDS = 20.0

    def _scenario(self, replicas=4, priorities=None):
        config = FederationConfig(
            device_discovery_cache_ttl_seconds=20.0,
            registration_ttl_seconds=60.0,
            service_times=ServiceTimeModel(default_ms=2.0),
            retry_policy=RetryPolicy.utilization_aware(),
        )
        return build_scenario(
            store_count=1,
            city_rows=5,
            city_cols=5,
            config=config,
            seed=33,
            reuse_worlds=True,
            store_replicas=replicas,
            store_replica_priorities=priorities,
        )

    def _run(self, scenario, control=None, churn=None, clients=12, steps=10):
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(
                clients=clients,
                steps=steps,
                seed=7,
                step_seconds=self.STEP_SECONDS,
                control=control,
                churn=churn,
            ),
        )
        return engine.run()

    def test_drain_converges_within_one_dns_ttl_with_zero_failures(self):
        scenario = self._scenario()
        drained = scenario.store_replica_ids(0)[0]
        report = self._run(
            scenario,
            control=ControlSchedule.from_events(
                [ControlEvent(2 * self.STEP_SECONDS, ControlEventKind.DRAIN, drained)]
            ),
        )
        stats = report.control_stats
        assert stats["events_applied"] == 1.0
        assert stats["devices_tracked"] > 0
        assert stats["devices_converged"] == stats["devices_tracked"]
        assert stats["devices_unconverged"] == 0.0
        # Within one DNS TTL + the device cache TTL + a round of quantization.
        assert 0.0 < stats["converge_p95_s"] <= 60.0 + 20.0 + 2 * self.STEP_SECONDS
        # A drain is not an outage.
        assert report.failed_requests == 0
        assert report.failover.stale_attempts == 0
        # The drained replica's traffic moved to its pool mates.
        arrivals = {
            sid: report.server_stats[sid]["arrivals"]
            for sid in scenario.store_replica_ids(0)
        }
        mates = [value for sid, value in arrivals.items() if sid != drained]
        assert arrivals[drained] < 0.5 * (sum(mates) / len(mates))
        # Convergence landed in the deterministic snapshot.
        assert report.snapshot()["control.devices_converged"] == stats["devices_converged"]

    def test_warm_standby_idles_until_tier0_dies(self):
        scenario = self._scenario(replicas=2, priorities=(0, 1))
        primary, standby = scenario.store_replica_ids(0)
        report = self._run(scenario)
        assert report.server_stats[standby]["arrivals"] == 0
        assert report.server_stats[primary]["arrivals"] > 0

        crashed = self._scenario(replicas=2, priorities=(0, 1))
        primary, standby = crashed.store_replica_ids(0)
        report = self._run(
            crashed,
            churn=ChurnSchedule.from_events(
                [ChurnEvent(2 * self.STEP_SECONDS, ChurnEventKind.CRASH, primary)]
            ),
        )
        assert report.server_stats[standby]["arrivals"] > 0
        assert report.failed_requests == 0

    def test_operator_promotion_beats_cold_failover(self):
        def run(promote: bool):
            scenario = self._scenario(replicas=2, priorities=(0, 1))
            primary, standby = scenario.store_replica_ids(0)
            crash_at = 2 * self.STEP_SECONDS
            control = None
            if promote:
                control = ControlSchedule.from_events(
                    [
                        ControlEvent(crash_at, ControlEventKind.PROMOTE, standby, 0),
                        ControlEvent(crash_at, ControlEventKind.SET_WEIGHT, primary, 0),
                    ]
                )
            return self._run(
                scenario,
                control=control,
                churn=ChurnSchedule.from_events(
                    [ChurnEvent(crash_at, ChurnEventKind.CRASH, primary)]
                ),
            )

        cold = run(False)
        promoted = run(True)
        assert promoted.failover.stale_attempts < cold.failover.stale_attempts
        assert promoted.failover.dead_detections_own <= cold.failover.dead_detections_own

    def test_undrain_inside_ttl_voids_stale_stopwatches(self):
        """Regression: an undrain landing before devices ever saw the drain
        must cancel their pending convergence toward the obsolete weight —
        not report a fully-converged fleet as unconverged."""
        scenario = self._scenario()
        drained = scenario.store_replica_ids(0)[0]
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(
                clients=12,
                steps=10,
                seed=7,
                step_seconds=self.STEP_SECONDS,
                # Drain and restore within one DNS TTL: most devices never
                # observe the zero-weight records at all.
                control=ControlSchedule.drain_window(
                    drained, 2 * self.STEP_SECONDS, 3 * self.STEP_SECONDS
                ),
            ),
        )
        report = engine.run()
        stats = report.control_stats
        assert stats["events_applied"] == 2.0
        # Books balance: every tracked episode either converged or is still
        # genuinely pending — no phantom non-convergence.
        assert (
            stats["devices_tracked"]
            == stats["devices_converged"] + stats["devices_unconverged"]
        )
        assert stats["devices_unconverged"] == 0.0
        # And the run's fleet really did end on the live advertisement.
        live = scenario.federation.srv_of(drained)
        for device in engine.fleet:
            held = device.client.context.srv_of.get(drained)
            assert held == live

    def test_control_runs_are_deterministic(self):
        def snapshot():
            scenario = self._scenario()
            drained = scenario.store_replica_ids(0)[0]
            report = self._run(
                scenario,
                control=ControlSchedule.drain_window(
                    drained, self.STEP_SECONDS, 6 * self.STEP_SECONDS
                ),
            )
            return report.snapshot()

        assert snapshot() == snapshot()

    def test_runs_without_control_report_empty_control_stats(self):
        report = self._run(self._scenario(), clients=4, steps=2)
        assert report.control_stats == {}
        assert not any(key.startswith("control.") for key in report.snapshot())
