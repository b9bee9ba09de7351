"""The operator API layer: schemas, middleware, audit replay, the wire.

Covers the request/response schemas, the middleware walk (validate →
auth → idempotency → contention → dispatch → audit), the error-family
taxonomy, the append-only audit log as conflict arbiter and as a
deterministic replay tape, and the networked client: latency charged on
the simulated network, lost exchanges retried with the same idempotency
token, partitions evaluated from the operator's region, and the engine
integration (direct transport byte-identical to the in-process plane,
networked transport measurably laggier)."""

from __future__ import annotations

import random

import pytest

from repro.control.plane import ControlPlane
from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.config import FederationConfig
from repro.operator.api import OperatorApi
from repro.operator.audit import AuditLog, replay_audit, state_digest
from repro.operator.client import NetworkedControlPlayer, OperatorClient
from repro.operator.config import OperatorConfig
from repro.operator.errors import MalformedError, UnauthorizedError
from repro.operator.permissions import (
    ACTION_PERMISSIONS,
    ALL_PERMISSIONS,
    CONTROL_WRITE,
    HEALTH_REPORT,
    PrincipalRegistry,
)
from repro.operator.schemas import ControlRequest
from repro.services.retry import RetryPolicy
from repro.simulation.network import OPERATOR_TO_CONTROL_MS, GrayFailure
from repro.simulation.queueing import ServiceTimeModel
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.worldgen.indoor import generate_store
from repro.worldgen.scenario import build_scenario


def _federation_config(**overrides) -> FederationConfig:
    kw = dict(
        device_discovery_cache_ttl_seconds=20.0,
        registration_ttl_seconds=60.0,
        service_times=ServiceTimeModel(default_ms=2.0),
        retry_policy=RetryPolicy.utilization_aware(),
    )
    kw.update(overrides)
    return FederationConfig(**kw)


def _scenario(replicas=4, **config_overrides):
    return build_scenario(
        store_count=1,
        city_rows=5,
        city_cols=5,
        config=_federation_config(**config_overrides),
        seed=33,
        reuse_worlds=True,
        store_replicas=replicas,
    )


def _api(scenario, principal="ops", permissions=ALL_PERMISSIONS, **kwargs) -> OperatorApi:
    principals = PrincipalRegistry()
    principals.register(principal, permissions)
    return OperatorApi(
        federation=scenario.federation, principals=principals, **kwargs
    )


def _request(api, action, server_id=None, value=None, token="t-1", principal="ops", now=0.0):
    payload = {"principal": principal, "action": action, "token": token}
    if server_id is not None:
        payload["server_id"] = server_id
    if value is not None:
        payload["value"] = value
    return api.handle(payload, now=now)


class TestSchemas:
    def test_round_trip(self):
        request = ControlRequest.from_payload(
            {"principal": "ops", "action": "drain", "token": "t", "server_id": "s"}
        )
        assert ControlRequest.from_payload(request.to_payload()) == request

    @pytest.mark.parametrize(
        "payload",
        [
            "not a mapping",
            {"action": "drain", "token": "t", "server_id": "s"},
            {"principal": "", "action": "drain", "token": "t", "server_id": "s"},
            {"principal": "ops", "action": "reboot", "token": "t", "server_id": "s"},
            {"principal": "ops", "action": "drain", "server_id": "s"},
            {"principal": "ops", "action": "drain", "token": "t"},
            {"principal": "ops", "action": "set-weight", "token": "t", "server_id": "s"},
            {"principal": "ops", "action": "set-weight", "token": "t", "server_id": "s", "value": -1},
            {"principal": "ops", "action": "set-weight", "token": "t", "server_id": "s", "value": True},
            {"principal": "ops", "action": "drain", "token": "t", "server_id": "s", "extra": 1},
        ],
    )
    def test_invalid_payloads(self, payload):
        with pytest.raises(MalformedError):
            ControlRequest.from_payload(payload)

    def test_malformed_requests_are_answered_and_audited_not_raised(self):
        api = _api(_scenario())
        response = api.handle({"action": "drain"}, now=1.0)
        assert response.status == "error"
        assert response.error == "malformed"
        assert len(api.audit) == 1
        assert api.audit.records[0].outcome == "rejected"
        assert api.audit.records[0].error == "malformed"


class TestAuthz:
    def test_unknown_principal_rejected_before_any_state_change(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario)
        before = scenario.federation.srv_of(server_id)
        response = _request(api, "drain", server_id, principal="mallory")
        assert response.error == "unauthorized"
        assert scenario.federation.srv_of(server_id) == before
        assert api.plane.timeline == []

    def test_permission_checked_per_route(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario, principal="prober", permissions=(HEALTH_REPORT,))
        assert _request(api, "drain", server_id, principal="prober").error == "unauthorized"
        assert _request(api, "park", server_id, principal="prober").error == "unauthorized"
        assert _request(api, "events", principal="prober").error == "unauthorized"
        ok = _request(api, "health", server_id, value=1, principal="prober")
        assert ok.ok

    def test_unauthorized_is_not_cached_so_a_granted_retry_succeeds(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario, principal="junior", permissions=(HEALTH_REPORT,))
        denied = _request(api, "drain", server_id, principal="junior", token="tok")
        assert denied.error == "unauthorized"
        api.principals.register("junior", (HEALTH_REPORT, CONTROL_WRITE))
        granted = _request(api, "drain", server_id, principal="junior", token="tok")
        assert granted.ok
        assert not granted.replayed


class TestRoutes:
    def test_srv_ops_land_and_record_like_the_plane(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario)
        drained = _request(api, "drain", server_id, token="t-1", now=5.0)
        assert drained.ok and drained.weight == 0
        undrained = _request(api, "undrain", server_id, token="t-2", now=6.0)
        assert undrained.ok and undrained.weight > 0
        reweighted = _request(api, "set-weight", server_id, value=3, token="t-3")
        assert reweighted.ok and reweighted.weight == 3
        promoted = _request(api, "promote", server_id, value=1, token="t-4")
        assert promoted.ok and promoted.priority == 1
        kinds = [event.kind for event in api.plane.timeline]
        assert kinds == ["drain", "undrain", "set-weight", "promote"]
        assert all(event.applied for event in api.plane.timeline)

    def test_group_guard_is_a_conflict_recording_live_state(self):
        scenario = _scenario(replicas=2)
        first, second = scenario.store_replica_ids(0)
        api = _api(scenario)
        assert _request(api, "drain", first, token="t-1").ok
        response = _request(api, "drain", second, token="t-2")
        assert response.error == "conflict"
        # The rejected record carries the live SRV state, not (0, 0).
        record = api.plane.timeline[-1]
        assert not record.applied
        assert (record.priority, record.weight) == scenario.federation.srv_of(second)

    def test_unknown_server_is_unavailable(self):
        api = _api(_scenario())
        response = _request(api, "drain", "ghost")
        assert response.error == "unavailable"

    def test_park_requires_a_drained_server(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario)
        conflict = _request(api, "park", server_id, token="t-1")
        assert conflict.error == "conflict"
        assert not scenario.federation.is_parked(server_id)
        assert _request(api, "drain", server_id, token="t-2").ok
        parked = _request(api, "park", server_id, token="t-3")
        assert parked.ok
        assert scenario.federation.is_parked(server_id)
        assert scenario.federation.registration_for(server_id) is None
        unparked = _request(api, "unpark", server_id, token="t-4")
        assert unparked.ok
        assert not scenario.federation.is_parked(server_id)
        assert scenario.federation.registration_for(server_id) is not None

    def test_pool_ops_on_offline_server_conflict_without_corruption(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario)
        scenario.federation.crash_map_server(server_id)
        response = _request(api, "park", server_id)
        assert response.error == "conflict"
        assert not scenario.federation.is_parked(server_id)

    def test_health_route_records_gossip(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario)
        response = _request(api, "health", server_id, value=1, now=42.0)
        assert response.ok
        assert api.health_board[server_id] == (42.0, 1)

    def test_events_route_returns_the_audit_tail(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario)
        _request(api, "drain", server_id, token="t-1")
        _request(api, "undrain", server_id, token="t-2")
        response = _request(api, "events", value=2, token="t-3")
        assert response.ok
        assert [event["action"] for event in response.events] == ["drain", "undrain"]
        assert [event["seq"] for event in response.events] == [1, 2]


class TestIdempotency:
    def test_replay_does_not_double_apply(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        api = _api(scenario)
        first = _request(api, "set-weight", server_id, value=3, token="tok")
        replay = _request(api, "set-weight", server_id, value=3, token="tok")
        assert first.ok and replay.ok
        assert replay.replayed and not first.replayed
        assert replay.seq == first.seq
        # Applied exactly once; the replay is audited separately.
        assert len(api.plane.timeline) == 1
        assert [r.outcome for r in api.audit.records] == ["applied", "replayed"]

    def test_conflicts_are_terminal_and_replayed(self):
        scenario = _scenario(replicas=2)
        first, second = scenario.store_replica_ids(0)
        api = _api(scenario)
        _request(api, "drain", first, token="t-1")
        lost = _request(api, "drain", second, token="t-2")
        assert lost.error == "conflict"
        # Even after the state changes, the retry replays the conflict
        # instead of racing it.
        _request(api, "undrain", first, token="t-3")
        retried = _request(api, "drain", second, token="t-2")
        assert retried.error == "conflict"
        assert retried.replayed

    def test_unavailable_is_retryable_and_not_cached(self):
        """A target not (yet) deployed is ``unavailable``; the retry under
        the same token reaches dispatch again once the server is up."""
        scenario = _scenario()
        federation = scenario.federation
        api = _api(scenario)
        down = _request(api, "set-weight", "popup.example", value=3, token="tok")
        assert down.error == "unavailable"
        store = generate_store("popup.example", scenario.stores[0].entrance, seed=6)
        federation.add_map_server("popup.example", store.map_data)
        retried = _request(api, "set-weight", "popup.example", value=3, token="tok")
        assert retried.ok
        assert not retried.replayed
        assert federation.srv_of("popup.example")[1] == 3
        assert [r.outcome for r in api.audit.records] == ["rejected", "applied"]


class TestAuditArbitration:
    def test_seq_is_monotonic_across_two_consoles_sharing_one_log(self):
        scenario = _scenario(replicas=2)
        first, second = scenario.store_replica_ids(0)
        log = AuditLog()
        plane = ControlPlane(scenario.federation)
        alice_reg = PrincipalRegistry()
        alice_reg.register("alice", ALL_PERMISSIONS)
        bob_reg = PrincipalRegistry()
        bob_reg.register("bob", ALL_PERMISSIONS)
        alice = OperatorApi(
            federation=scenario.federation, principals=alice_reg, audit=log, plane=plane
        )
        bob = OperatorApi(
            federation=scenario.federation, principals=bob_reg, audit=log, plane=plane
        )
        won = _request(alice, "drain", first, principal="alice", token="a-1")
        lost = _request(bob, "drain", second, principal="bob", token="b-1")
        # The shared log's sequence arbitrates: first writer wins, the
        # loser's record shows the conflict that resolved it.
        assert won.ok and lost.error == "conflict"
        assert won.seq < lost.seq
        assert [r.outcome for r in log.records] == ["applied", "rejected"]
        assert log.records[1].principal == "bob"
        # Exactly one of the group's replicas was drained; the loser kept
        # its positive weight.
        weights = [scenario.federation.srv_of(sid)[1] for sid in (first, second)]
        assert weights[0] == 0 and weights[1] > 0


class TestReplayDeterminism:
    """Satellite: replaying the audit log through a fresh API reproduces
    the identical final SRV state (and state digest)."""

    def _drive(self, api):
        scenario_ids = sorted(api.federation.servers)
        a, b = scenario_ids[0], scenario_ids[1]
        _request(api, "drain", a, token="t-1", now=10.0)
        _request(api, "set-weight", b, value=7, token="t-2", now=11.0)
        _request(api, "promote", b, value=1, token="t-3", now=12.0)
        _request(api, "drain", a, token="t-1", now=13.0)  # replayed
        _request(api, "drain", "ghost", token="t-4", now=14.0)  # unavailable
        _request(api, "park", a, token="t-5", now=15.0)
        _request(api, "health", b, value=1, token="t-6", now=16.0)
        _request(api, "undrain", a, token="t-7", now=17.0)  # parked, still ok
        _request(api, "events", value=3, token="t-8", now=18.0)

    def test_replay_reproduces_state_and_digest(self):
        original = _api(_scenario())
        self._drive(original)
        digest = state_digest(original.federation)

        fresh = _api(_scenario())
        assert state_digest(fresh.federation) != digest
        count = replay_audit(original.audit.records, fresh)
        assert count == len(original.audit) - 1  # events route skipped
        assert state_digest(fresh.federation) == digest
        # The replayed log tells the same story, outcome for outcome.
        originals = [(r.action, r.outcome, r.error) for r in original.audit.records if r.action != "events"]
        replays = [(r.action, r.outcome, r.error) for r in fresh.audit.records]
        assert replays == originals

    def test_state_digest_distinguishes_operator_visible_state(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        before = state_digest(scenario.federation)
        scenario.federation.set_srv(server_id, weight=0)
        after_drain = state_digest(scenario.federation)
        assert after_drain != before
        scenario.federation.park_map_server(server_id)
        assert state_digest(scenario.federation) not in (before, after_drain)


class TestNetworkedClient:
    def _client(self, scenario, **kwargs) -> OperatorClient:
        api = _api(scenario)
        defaults = dict(
            transport="network",
            endpoint_id=scenario.federation.discovery_authority_id,
            timeout_ms=400.0,
            jitter_rng=random.Random(99),
        )
        defaults.update(kwargs)
        return OperatorClient(api=api, principal="ops", **defaults)

    def test_direct_transport_charges_nothing(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        client = self._client(scenario, transport="direct", jitter_rng=None)
        network = scenario.federation.network
        before = network.clock.now()
        result = client.request("drain", server_id)
        assert result.response.ok and result.arrived
        assert network.clock.now() == before
        assert "control.request" not in network.stats.messages_by_kind

    def test_network_transport_pays_the_control_hop(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        client = self._client(scenario)
        network = scenario.federation.network
        before = network.clock.now()
        result = client.request("drain", server_id)
        assert result.response.ok
        elapsed_ms = (network.clock.now() - before) * 1000.0
        assert elapsed_ms == pytest.approx(2.0 * OPERATOR_TO_CONTROL_MS)
        assert network.stats.messages_by_kind["control.request"] == 1
        assert result.latency_ms == pytest.approx(elapsed_ms)

    def test_device_jitter_stream_is_restored_around_the_exchange(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        client = self._client(scenario)
        network = scenario.federation.network
        sentinel = random.Random(1234)
        network.set_jitter_stream(sentinel)
        client.request("drain", server_id)
        assert network.current_jitter_stream() is sentinel

    def test_unreachable_endpoint_times_out_then_a_token_retry_lands_once(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        client = self._client(scenario)
        network = scenario.federation.network
        faults = network.fault_state()
        faults.block(client.endpoint_id)
        before = network.clock.now()
        token = client.next_token()
        lost = client.request("drain", server_id, token=token)
        assert not lost.arrived
        assert lost.response.error == "unavailable"
        # The full patience was charged, and the API never saw it.
        assert (network.clock.now() - before) * 1000.0 == pytest.approx(client.timeout_ms)
        assert len(client.api.audit) == 0
        faults.unblock(client.endpoint_id)
        landed = client.request("drain", server_id, token=token)
        assert landed.arrived and landed.response.ok
        assert [r.outcome for r in client.api.audit.records] == ["applied"]
        assert client.counters["unreachable"] == 1

    def test_a_networked_tape_op_is_one_entry_and_a_lost_one_none_until_it_lands(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        client = self._client(scenario)
        player = NetworkedControlPlayer(
            schedule=ControlSchedule.from_events([ControlEvent(0.0, ControlEventKind.DRAIN, server_id)]),
            client=client,
        )
        timeline = client.api.plane.timeline
        assert player.timeline is timeline
        faults = scenario.federation.network.fault_state()
        faults.block(client.endpoint_id)
        assert player.apply_until(0.0) == []
        assert timeline == [] and player.pending_events == 1
        faults.unblock(client.endpoint_id)
        [entry] = player.apply_until(10.0)
        assert len(timeline) == 1 and timeline[0] is entry
        assert (entry.source, entry.kind, entry.subject, entry.applied) == ("control", "drain", server_id, True)
        assert player.retries == 1 and player.pending_events == 0
        # A replay of the landed token records nothing more.
        replay = client.request("drain", server_id, token="ops-1")
        assert replay.response.replayed and replay.record is None
        assert len(timeline) == 1

    def test_partition_is_evaluated_from_the_operators_region(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        client = self._client(scenario, region=1)
        network = scenario.federation.network
        faults = network.fault_state()
        faults.active_region = 0
        faults.block(client.endpoint_id, regions=(1,))
        cut_off = client.request("drain", server_id)
        assert not cut_off.arrived
        # The fleet's region context is restored afterwards.
        assert faults.active_region == 0
        other_side = self._client(scenario, region=0)
        other_side.api = client.api
        assert other_side.request("drain", server_id).arrived

    def test_lossy_control_hop_retransmits_and_sometimes_times_out(self):
        scenario = _scenario()
        server_id = scenario.store_replica_ids(0)[0]
        client = self._client(scenario, jitter_rng=random.Random(7))
        network = scenario.federation.network
        faults = network.fault_state()
        faults.set_gray(
            client.endpoint_id, GrayFailure(loss_probability=0.9)
        )
        outcomes = [client.request("health", server_id, value=1).arrived for _ in range(12)]
        assert network.stats.retransmissions > 0
        assert client.counters["timeouts"] > 0
        assert client.counters["timeouts"] == outcomes.count(False)


class _EngineScenarios:
    STEP_SECONDS = 20.0

    def _run(self, operator=None, clients=12, steps=10, seed_scenario=None):
        scenario = seed_scenario or _scenario()
        drained = scenario.store_replica_ids(0)[0]
        tape = ControlSchedule.from_events(
            [ControlEvent(2 * self.STEP_SECONDS, ControlEventKind.DRAIN, drained)]
        )
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(
                clients=clients,
                steps=steps,
                seed=7,
                step_seconds=self.STEP_SECONDS,
                control=tape,
                operator=operator,
            ),
        )
        return engine, engine.run()


class TestEngineIntegration(_EngineScenarios):
    def test_direct_transport_is_byte_identical_modulo_operator_keys(self):
        _, plain = self._run(operator=None)
        engine, routed = self._run(operator=OperatorConfig(transport="direct"))
        plain_snapshot = plain.snapshot()
        routed_snapshot = {
            key: value
            for key, value in routed.snapshot().items()
            if not key.startswith("operator.")
        }
        assert routed_snapshot == plain_snapshot
        # And the operator keys exist, reporting the tape's trip through
        # the API.
        stats = routed.operator_stats
        assert stats["requests"] == stats["delivered"] == 1.0
        assert stats["audit_records"] == 1.0
        # Direct lag is round quantization only (the tape instant waits
        # for the next CONTROL event), never a full extra round.
        assert 0.0 <= stats["delivery_lag_mean"] < self.STEP_SECONDS
        assert isinstance(engine.control_plane, NetworkedControlPlayer)

    def test_networked_transport_measurably_lags_the_tape(self):
        _, direct = self._run(operator=OperatorConfig(transport="direct"))
        engine, report = self._run(operator=OperatorConfig(transport="network"))
        stats = report.operator_stats
        assert stats["delivered"] >= 1.0
        # The control hop's RTT lands on top of the direct baseline's
        # round-quantization lag.
        assert stats["delivery_lag_mean"] > direct.operator_stats["delivery_lag_mean"]
        assert stats["tape_pending"] == 0.0
        assert report.control_stats["events_applied"] == 1.0
        # A networked drain is still not an outage.
        assert report.failed_requests == 0
        network = engine.scenario.federation.network
        assert network.stats.messages_by_kind.get("control.request", 0) >= 1

    def test_networked_control_round_ends_after_its_devices_ran(self):
        """A control exchange that advances the clock while round *k*'s tape
        is applied must not reorder the round: round *k*'s observers fire
        only after every device took its round-*k* turn, and paying the
        control hop never makes the run *shorter* than the in-process one."""
        scenario = _scenario()
        drained = scenario.store_replica_ids(0)[0]
        control_round = 2
        tape = ControlSchedule.from_events(
            [ControlEvent(control_round * self.STEP_SECONDS, ControlEventKind.DRAIN, drained)]
        )
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(
                clients=12,
                steps=5,
                seed=7,
                step_seconds=self.STEP_SECONDS,
                control=tape,
                operator=OperatorConfig(transport="network"),
            ),
        )
        turns = {device.index: 0 for device in engine.fleet}
        for device in engine.fleet:

            def counted(advance=device.advance, index=device.index):
                turns[index] += 1
                return advance()

            device.advance = counted
        turns_at_round_end: list[tuple[int, set[int]]] = []
        engine.add_round_observer(
            lambda index, now: turns_at_round_end.append((index, set(turns.values())))
        )
        networked = engine.run()
        assert networked.control_stats["events_applied"] == 1.0
        assert turns_at_round_end == [(k, {k + 1}) for k in range(5)]
        _, direct = self._run(operator=OperatorConfig(transport="direct"), steps=5)
        assert networked.simulated_seconds >= direct.simulated_seconds

    def test_networked_runs_are_deterministic(self):
        def snapshot():
            _, report = self._run(operator=OperatorConfig(transport="network"))
            return report.snapshot()

        assert snapshot() == snapshot()

    def test_operator_free_runs_carry_no_operator_keys(self):
        _, report = self._run(operator=None)
        assert report.operator_stats == {}
        assert not any(key.startswith("operator.") for key in report.snapshot())


class TestPrincipalRegistry:
    def test_authenticate_returns_the_registered_principal(self):
        registry = PrincipalRegistry()
        registered = registry.register("ops", (CONTROL_WRITE,))
        assert registry.authenticate("ops") is registered
        assert registered.can(CONTROL_WRITE)
        assert not registered.can(HEALTH_REPORT)

    def test_authenticate_unknown_name_is_unauthorized(self):
        with pytest.raises(UnauthorizedError, match="mallory"):
            PrincipalRegistry().authenticate("mallory")

    def test_register_replaces_and_rejects_empty_names(self):
        registry = PrincipalRegistry()
        registry.register("ops", (CONTROL_WRITE,))
        registry.register("ops", (HEALTH_REPORT,))
        assert registry.authenticate("ops").permissions == (HEALTH_REPORT,)
        with pytest.raises(ValueError):
            registry.register("", ALL_PERMISSIONS)

    def test_unknown_action_is_refused_even_with_every_permission(self):
        registry = PrincipalRegistry()
        root = registry.register("root", ALL_PERMISSIONS)
        with pytest.raises(UnauthorizedError, match="no route"):
            registry.authorize(root, "reboot")

    @pytest.mark.parametrize("action", sorted(ACTION_PERMISSIONS))
    def test_one_permission_opens_exactly_its_routes(self, action: str):
        """A principal holding only the permission ``action`` needs may call
        every route that permission guards and no other; the refusal names
        the grant to request."""
        registry = PrincipalRegistry()
        granted = ACTION_PERMISSIONS[action]
        principal = registry.register("p", (granted,))
        registry.authorize(principal, action)
        for other, required in ACTION_PERMISSIONS.items():
            if required == granted:
                registry.authorize(principal, other)
            else:
                with pytest.raises(UnauthorizedError, match=required):
                    registry.authorize(principal, other)
