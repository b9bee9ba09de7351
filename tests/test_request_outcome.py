"""How a federated request was served: ``RequestOutcome`` on every result.

Each service fans its request out through ``FederationContext.fan_out`` and
returns ``outcome = RequestOutcome(served, degraded)`` with its result (a
routing failure carries it on the exception).  The transition tests walk a
one-device, store-only federation through a tape one step at a time; the
oracle test holds the outcome to the verdict the workload engine used to
infer from shared counters, request by request, on a faulted, churning fleet.
"""

from __future__ import annotations

import random

import pytest

from repro.churn.controller import ChurnController
from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.core.client import OpenFlameClient
from repro.core.config import FederationConfig
from repro.core.federation import Federation
from repro.discovery.discoverer import Discoverer
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultPlan
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.mapserver.policy import AccessDenied, ServiceName
from repro.services.context import RequestOutcome
from repro.services.retry import RetryPolicy
from repro.services.routing import FederatedRoutingError
from repro.simulation.queueing import ServiceTimeModel
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.worldgen.indoor import generate_store
from repro.worldgen.scenario import build_scenario

ANCHOR = LatLng(40.4415, -79.9575)
REPLICAS = ("r0.shop.example", "r1.shop.example")

HEALTHY = RequestOutcome(served=True, degraded=False)
UNSERVED = RequestOutcome(served=False, degraded=False)
DEGRADED = RequestOutcome(served=True, degraded=True)


def one_device():
    """A replicated store and nothing else, one client, and the device cache
    and stale-serve window the degraded transitions need: entries live 30 s,
    records 60 s, and an expired entry may be served for 60 s more."""
    federation = Federation(
        config=FederationConfig(
            retry_policy=RetryPolicy.utilization_aware(),
            device_discovery_cache_ttl_seconds=30.0,
            registration_ttl_seconds=60.0,
            stale_serve_max_ms=60_000.0,
        )
    )
    store = generate_store("shop.example", ANCHOR, seed=4)
    federation.add_replica_group("shop.example", store.map_data, replica_count=len(REPLICAS))
    return federation, store, federation.client(selection_seed=1)


def request(service: str, client: OpenFlameClient, store) -> RequestOutcome:
    """One request of ``service`` inside the store, reduced to its outcome."""
    shelf = store.product_locations[sorted(store.product_locations)[0]]
    if service == "search":
        return client.search("milk", near=store.entrance, radius_meters=150.0).outcome
    if service == "route":
        try:
            return client.route(store.entrance, shelf).outcome
        except FederatedRoutingError as error:
            return error.outcome
    if service == "tiles":
        return client.render_viewport(BoundingBox.around(store.entrance, 60.0), zoom=18).outcome
    if service == "localize":
        cues = store.sense_cues(store.geographic_to_local(shelf), random.Random(3))
        return client.localize(shelf, cues).outcome
    # A 1 m radius discovers one cell: one stale cell alone must degrade it.
    return client.reverse_geocode(shelf, max_distance_meters=1.0).outcome


SERVICES = ("search", "route", "tiles", "localize", "reverse_geocode")


def play(federation: Federation, actors, at_seconds: float) -> None:
    """Advance the shared clock to ``at_seconds`` and land every due tape entry."""
    clock = federation.network.clock
    clock.advance(at_seconds - clock.now())
    for actor in actors:
        actor.apply_until(clock.now())


def crash(at_seconds: float) -> list[ChurnEvent]:
    return [ChurnEvent(at_seconds, ChurnEventKind.CRASH, server_id) for server_id in REPLICAS]


def rejoin(at_seconds: float) -> list[ChurnEvent]:
    return [ChurnEvent(at_seconds, ChurnEventKind.JOIN, server_id) for server_id in REPLICAS]


@pytest.mark.parametrize("service", SERVICES)
class TestTransitions:
    def test_served_then_unserved_then_served(self, service):
        """Crashing every replica of the group leaves the request unserved;
        the rejoin serves it again.  Discovery stays fresh throughout."""
        federation, store, client = one_device()
        churn = ChurnController(
            federation=federation, schedule=ChurnSchedule.from_events(crash(10.0) + rejoin(30.0))
        )
        play(federation, [churn], 0.0)
        assert request(service, client, store) == HEALTHY
        play(federation, [churn], 15.0)
        assert request(service, client, store) == UNSERVED
        play(federation, [churn], 40.0)
        assert request(service, client, store) == HEALTHY

    def test_healthy_then_degraded_then_healthy(self, service):
        """With the authority dark, an entry that expired at 30 s is served
        stale at 70 s (inside the 60 s window): degraded, still served.  Once
        the authority is back, fresh resolution makes it healthy again."""
        federation, store, client = one_device()
        faults = FaultInjector(federation=federation, plan=FaultPlan.authority_outage(10.0, 120.0))
        play(federation, [faults], 0.0)
        assert request(service, client, store) == HEALTHY
        play(federation, [faults], 70.0)
        assert request(service, client, store) == DEGRADED
        play(federation, [faults], 130.0)
        assert request(service, client, store) == HEALTHY

    def test_degraded_and_unserved_at_once(self, service):
        """A stale view that names only dead replicas: the request is both."""
        federation, store, client = one_device()
        churn = ChurnController(federation=federation, schedule=ChurnSchedule.from_events(crash(5.0)))
        faults = FaultInjector(federation=federation, plan=FaultPlan.authority_outage(10.0, 120.0))
        play(federation, [churn, faults], 0.0)
        assert request(service, client, store) == HEALTHY
        play(federation, [churn, faults], 70.0)
        assert request(service, client, store) == RequestOutcome(served=False, degraded=True)


class TestFanOut:
    def test_a_denied_chain_is_neither_answered_nor_exhausted(self):
        _, _, client = one_device()
        targets = client.context.targets(list(REPLICAS))

        def deny(server):
            raise AccessDenied(ServiceName.TILES, server.server_id)

        assert client.context.fan_out(targets, deny) == ([], True)
        recorder = client.context.failover
        assert (recorder.chains, recorder.chains_denied, recorder.chains_failed) == (1, 1, 0)

    def test_one_answer_serves_the_request_despite_an_exhausted_chain(self):
        federation, store, client = one_device()
        federation.add_map_server("other.example", store.map_data)
        federation.crash_map_server("other.example")
        targets = client.context.targets([*REPLICAS, "other.example"])
        assert [target.key for target in targets] == ["shop.example", "other.example"]
        answers, served = client.context.fan_out(targets, lambda server: server.server_id)
        assert len(answers) == 1 and served
        assert client.context.failover.chains_failed == 1


# ----------------------------------------------------------------------
# The counter-diff oracle
# ----------------------------------------------------------------------
def counter_verdict(before: tuple[int, int, int, int], after: tuple[int, int, int, int]) -> RequestOutcome:
    """What ``WorkloadEngine._issue`` inferred before services returned an
    outcome: unserved when some chain failed and none answered; degraded
    when the device's stale-serve counter moved.  Answered chains are
    ``chains − chains_failed − chains_denied``."""
    chains, failed, denied, stale = (a - b for a, b in zip(after, before))
    answered = chains - failed - denied
    return RequestOutcome(served=not (failed > 0 and answered == 0), degraded=stale > 0)


def _counters(client: OpenFlameClient) -> tuple[int, int, int, int]:
    recorder = client.context.failover
    return (
        recorder.chains,
        recorder.chains_failed,
        recorder.chains_denied,
        client.context.discoverer.stale_serves,
    )


def _watch(method, verdicts: list[tuple[RequestOutcome, RequestOutcome]]):
    """``method`` of ``OpenFlameClient``, recording each call's outcome
    beside the counter verdict for the same call."""

    def call(client, *args, **kwargs):
        before = _counters(client)
        try:
            result = method(client, *args, **kwargs)
        except FederatedRoutingError as error:
            verdicts.append((error.outcome, counter_verdict(before, _counters(client))))
            raise
        verdicts.append((result.outcome, counter_verdict(before, _counters(client))))
        return result

    return call


class TestCounterOracle:
    def test_every_request_outcome_equals_the_counter_verdict(self, monkeypatch):
        """30 clients, 18 rounds: a partition, an authority outage, and two
        crash / rejoin rounds of the city and one store's replicas.  Every
        request's outcome equals the counter diff around it, and each
        device's ``stale_serves`` is the sum of its walks' ``stale_cells``."""
        verdicts: list[tuple[RequestOutcome, RequestOutcome]] = []
        stale_cells: dict[int, int] = {}

        for name in ("search", "route", "render_viewport", "localize"):
            monkeypatch.setattr(OpenFlameClient, name, _watch(getattr(OpenFlameClient, name), verdicts))

        walk = Discoverer._discover_cells

        def counted_walk(self, cells):
            result = walk(self, cells)
            stale_cells[id(self)] = stale_cells.get(id(self), 0) + result.stale_cells
            return result

        monkeypatch.setattr(Discoverer, "_discover_cells", counted_walk)

        scenario = build_scenario(
            store_count=2,
            city_rows=4,
            city_cols=4,
            seed=5,
            store_replicas=2,
            config=FederationConfig(
                device_discovery_cache_ttl_seconds=30.0,
                registration_ttl_seconds=60.0,
                stale_serve_max_ms=60_000.0,
                service_times=ServiceTimeModel(default_ms=2.0),
                retry_policy=RetryPolicy.full_jitter(),
            ),
        )
        victims = scenario.store_replica_ids(0) + ("city.example",)
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(
                clients=30,
                steps=18,
                seed=7,
                step_seconds=10.0,
                faults=FaultPlan.partition(scenario.store_replica_ids(1)[:1], 10.0, 60.0)
                + FaultPlan.authority_outage(70.0, 150.0),
                churn=ChurnSchedule.from_events(
                    [ChurnEvent(at, ChurnEventKind.CRASH, sid) for sid in victims for at in (20.0, 110.0)]
                    + [ChurnEvent(at, ChurnEventKind.JOIN, sid) for sid in victims for at in (50.0, 140.0)]
                ),
            ),
        )
        report = engine.run()

        assert len(verdicts) == report.requests + report.errors
        for outcome, verdict in verdicts:
            assert outcome == verdict
        # The run reaches all four outcomes, so the comparison is not vacuous.
        seen = {outcome for outcome, _ in verdicts}
        assert seen == {HEALTHY, UNSERVED, DEGRADED, RequestOutcome(served=False, degraded=True)}
        assert report.degraded_requests == sum(outcome.degraded for outcome, _ in verdicts)
        for device in engine.fleet:
            discoverer = device.client.context.discoverer
            assert discoverer.stale_serves == stale_cells.get(id(discoverer), 0)


class TestWorldProvider:
    """The geocoder asks the world provider by id, through ``targets`` and
    ``fan_out``, so a crash reaches it as it reaches any discovered server."""

    def test_a_crashed_world_provider_contributes_no_candidate(self):
        scenario = build_scenario(store_count=1, city_rows=4, city_cols=4, seed=33)
        federation = scenario.federation
        built_before = federation.client()
        federation.crash_map_server(federation.world_provider_id)
        built_after = federation.client()
        point = scenario.city.building_addresses["100 Forbes Street"]

        found = built_before.reverse_geocode(point)
        expected = built_after.reverse_geocode(point)
        assert found.servers_consulted == expected.servers_consulted == 1
        assert [c.map_name for c in found.candidates] == [c.map_name for c in expected.candidates]
        assert found.best.map_name != "Simville city map"

    def test_a_lost_coarse_stage_leaves_a_geocode_unserved(self):
        """With a retry policy the crashed provider stays a target and its
        chain is exhausted: no coarse location, no fallback answer, and so
        nothing served.  Back up, it serves the same address again."""
        scenario = build_scenario(
            store_count=1,
            city_rows=4,
            city_cols=4,
            seed=33,
            config=FederationConfig(retry_policy=RetryPolicy.utilization_aware()),
        )
        federation = scenario.federation
        client = federation.client()
        address = next(iter(scenario.city.building_addresses))
        healthy = client.geocode(address)
        assert healthy.outcome == HEALTHY and healthy.coarse_location is not None

        federation.crash_map_server(federation.world_provider_id)
        lost = client.geocode(address)
        assert lost.outcome == UNSERVED
        assert (lost.coarse_location, lost.best, lost.servers_consulted) == (None, None, 1)

