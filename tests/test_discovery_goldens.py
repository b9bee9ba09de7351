"""Differential goldens for the §5.1 discovery walk.

Each case drives one :class:`Discoverer` through a seeded sequence of
``discover_at`` / ``discover_region`` / ``discover_along`` calls and records
everything the walk can observably touch after every call, keyed by field
name, under ``tests/goldens/test_discovery_goldens/`` (see ``golden.py``).
The observations were recorded on the commit *before* resolver answers
carried their own expiry (two cache probes per name, SRV strings re-parsed
per lookup, ``_jittered`` on every exchange), so they hold the rewrite to that behaviour bit for bit:
RNG draw order under jitter and loss, the SERVFAIL / stale-serve path, and
the expiry arithmetic ``now + min(ttl, expires_at - now)`` — which is not
``expires_at`` in floating point.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable

import pytest
from golden import assert_golden

from repro.discovery.discoverer import Discoverer
from repro.discovery.registry import DiscoveryRegistry
from repro.dns.records import RecordType
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.dns.server import NameServer
from repro.dns.zone import Zone
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.simulation.network import LatencyModel, SimulatedNetwork
from repro.spatialindex.covering import CoveringOptions

CENTER = LatLng(40.44, -79.95)
STEPS = 40


def _wire(
    *,
    latency: LatencyModel = LatencyModel(),
    ttls: tuple[float, float, float] = (3600.0, 3600.0, 3600.0),
    device_ttl: float = 0.0,
    stale_ms: float = 0.0,
) -> tuple[Discoverer, DiscoveryRegistry]:
    """A city-wide provider, a two-replica shop and a campus behind one
    authority; ``ttls`` are their registration TTLs in that order."""
    network = SimulatedNetwork(latency=latency, jitter_seed=9)
    registry = DiscoveryRegistry(
        covering_options=CoveringOptions(min_level=10, max_level=14, max_cells=32)
    )
    city_ttl, shop_ttl, campus_ttl = ttls
    registry.ttl_seconds = city_ttl
    registry.register_region("city.example", Polygon.regular(CENTER, 2500.0))
    registry.ttl_seconds = shop_ttl
    shop = Polygon.regular(CENTER.destination(120.0, 150.0), 220.0)
    registry.register_region("r0.shop.example", shop, priority=0, weight=3)
    registry.register_region("r1.shop.example", shop, priority=1, weight=1)
    registry.ttl_seconds = campus_ttl
    registry.register_region(
        "campus.example", Polygon.regular(CENTER.destination(45.0, 900.0), 400.0), weight=2
    )
    root_zone = Zone(origin="")
    root_zone.add(registry.naming.suffix, RecordType.NS, registry.authority.server_id)
    root = NameServer(server_id="root", zones={"": root_zone})
    resolver = RecursiveResolver(
        root=root,
        servers={"root": root, registry.authority.server_id: registry.authority},
        network=network,
    )
    discoverer = Discoverer(
        resolver=StubResolver(recursive=resolver, network=network),
        naming=registry.naming,
        query_level=14,
        ancestor_levels=6,
        device_cache_ttl_seconds=device_ttl,
        stale_serve_max_ms=stale_ms,
    )
    return discoverer, registry


def _drive(
    discoverer: Discoverer,
    seed: int,
    max_gap_seconds: float,
    before_step=lambda step: None,
) -> list[dict]:
    """Run the seeded call sequence; return the per-call observations."""
    rng = random.Random(seed)
    network = discoverer.resolver.network
    resolver = discoverer.resolver.recursive
    observed = []
    for step in range(STEPS):
        before_step(step)
        network.clock.advance(rng.uniform(0.0, max_gap_seconds))
        point = CENTER.destination(rng.uniform(0.0, 360.0), rng.uniform(0.0, 1500.0))
        how = rng.randrange(3)
        if how == 0:
            result = discoverer.discover_at(point, rng.choice((0.0, 40.0, 250.0)))
        elif how == 1:
            result = discoverer.discover_region(BoundingBox.around(point, rng.uniform(50.0, 400.0)))
        else:
            waypoints = [
                point.destination(rng.uniform(0.0, 360.0), 300.0 * leg)
                for leg in range(rng.randint(1, 4))
            ]
            result = discoverer.discover_along(waypoints, corridor_meters=rng.choice((60.0, 200.0)))
        observed.append(
            {
                "server_ids": result.server_ids,
                "dns_lookups": result.dns_lookups,
                "coalesced_lookups": result.coalesced_lookups,
                "now": network.clock.now(),
                "network": dataclasses.asdict(network.stats),
                "resolver": dataclasses.asdict(resolver.stats),
                "resolver_cache": dataclasses.asdict(resolver.cache.stats),
                "device_cache": dataclasses.asdict(discoverer.cache.stats),
                "stale_serves": discoverer.stale_serves,
                "srv_view": {
                    target: {"priority": priority, "weight": weight}
                    for target, (priority, weight) in discoverer.srv_view.items()
                },
            }
        )
    return observed


def _jitter_and_loss() -> list[dict]:
    discoverer, _ = _wire(latency=LatencyModel(jitter_sigma=0.3, loss_probability=0.15))
    discoverer.resolver.network.reseed_jitter(5)
    return _drive(discoverer, seed=11, max_gap_seconds=45.0)


def _authority_outage_with_stale_serve() -> list[dict]:
    discoverer, registry = _wire(ttls=(40.0, 25.0, 40.0), device_ttl=20.0, stale_ms=90_000.0)
    faults = discoverer.resolver.network.fault_state()

    def outage(step: int) -> None:
        if step == 12:
            faults.authority_down(registry.authority.server_id)
        elif step == 30:
            faults.authority_up(registry.authority.server_id)

    return _drive(discoverer, seed=12, max_gap_seconds=8.0, before_step=outage)


def _ttl_lapses_mid_walk() -> list[dict]:
    # A cold name costs two 50 ms authority exchanges, so a 0.6 s record
    # cached early in a walk is gone before the walk ends; 0 s records are
    # never cached by the resolver at all.
    discoverer, _ = _wire(ttls=(0.6, 0.0, 2.0), device_ttl=1.0)
    return _drive(discoverer, seed=13, max_gap_seconds=0.4)


def _device_cache_on() -> list[dict]:
    discoverer, _ = _wire(ttls=(90.0, 90.0, 300.0), device_ttl=120.0)
    return _drive(discoverer, seed=14, max_gap_seconds=40.0)


CASES: dict[str, Callable[[], object]] = {
    "jitter_and_loss": _jitter_and_loss,
    "authority_outage_with_stale_serve": _authority_outage_with_stale_serve,
    "ttl_lapses_mid_walk": _ttl_lapses_mid_walk,
    "device_cache_on": _device_cache_on,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_discovery_walk_matches_the_two_probe_implementation(case):
    assert_golden(__file__, case, CASES[case]())
