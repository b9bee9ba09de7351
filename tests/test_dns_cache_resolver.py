"""Unit tests for the DNS cache and the recursive resolver."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.dns.cache import NEGATIVE_TTL_SECONDS, CacheStats, DnsCache
from repro.dns.message import ResponseCode
from repro.dns.records import RecordType, ResourceRecord, normalize_name
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.dns.server import NameServer
from repro.dns.zone import Zone
from repro.simulation.clock import SimulatedClock
from repro.simulation.network import SimulatedNetwork


class TestDnsCache:
    @pytest.fixture()
    def clock(self) -> SimulatedClock:
        return SimulatedClock()

    @pytest.fixture()
    def cache(self, clock: SimulatedClock) -> DnsCache:
        return DnsCache(clock=clock)

    def test_miss_then_hit(self, cache: DnsCache):
        assert cache.lookup("a.example", RecordType.A) is None
        cache.put("a.example", RecordType.A, [ResourceRecord("a.example", RecordType.A, "1.1.1.1", 60)])
        hit = cache.lookup("a.example", RecordType.A)
        assert hit is not None and hit.answers[0].data == "1.1.1.1"
        assert hit.expires_at == 60.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_expiry(self, cache: DnsCache, clock: SimulatedClock):
        cache.put("a.example", RecordType.A, [ResourceRecord("a.example", RecordType.A, "1.1.1.1", 30)])
        clock.advance(31.0)
        assert cache.lookup("a.example", RecordType.A) is None

    def test_minimum_ttl_used(self, cache: DnsCache, clock: SimulatedClock):
        cache.put(
            "a.example",
            RecordType.A,
            [
                ResourceRecord("a.example", RecordType.A, "1.1.1.1", 10),
                ResourceRecord("a.example", RecordType.A, "1.1.1.2", 1000),
            ],
        )
        clock.advance(11.0)
        assert cache.lookup("a.example", RecordType.A) is None

    def test_negative_caching(self, cache: DnsCache, clock: SimulatedClock):
        cache.put_negative("missing.example", RecordType.SRV)
        assert cache.lookup("missing.example", RecordType.SRV).answers == []
        assert cache.stats.negative_hits == 1
        clock.advance(NEGATIVE_TTL_SECONDS + 1.0)
        assert cache.lookup("missing.example", RecordType.SRV) is None

    def test_empty_answer_becomes_negative_entry(self, cache: DnsCache):
        cache.put("a.example", RecordType.A, [])
        assert cache.lookup("a.example", RecordType.A).answers == []

    def test_eviction_when_full(self, clock: SimulatedClock):
        cache = DnsCache(clock=clock, max_entries=10)
        for index in range(20):
            cache.put(
                f"n{index}.example",
                RecordType.A,
                [ResourceRecord(f"n{index}.example", RecordType.A, "1.1.1.1", 300)],
            )
        assert cache.size <= 11
        assert cache.stats.evictions > 0

    def test_flush(self, cache: DnsCache):
        cache.put("a.example", RecordType.A, [ResourceRecord("a.example", RecordType.A, "1.1.1.1", 60)])
        cache.flush()
        assert cache.size == 0

    def test_entry_expiry_is_absolute(self, cache: DnsCache, clock: SimulatedClock):
        clock.advance(5.0)
        cache.put("a.example", RecordType.A, [ResourceRecord("a.example", RecordType.A, "1.1.1.1", 60)])
        assert cache.lookup("a.example", RecordType.A).expires_at == 65.0
        clock.advance(20.0)
        assert cache.lookup("a.example", RecordType.A).expires_at == 65.0
        clock.advance(41.0)
        assert cache.lookup("a.example", RecordType.A) is None

    def test_negative_entry_carries_its_expiry(self, cache: DnsCache):
        cache.put_negative("ghost.example", RecordType.SRV)
        entry = cache.lookup("ghost.example", RecordType.SRV)
        assert entry.answers == [] and entry.expires_at == NEGATIVE_TTL_SECONDS

    def test_a_key_holds_one_entry_whichever_kind_came_last(
        self, cache: DnsCache, clock: SimulatedClock
    ):
        """Regression: a live negative entry used to survive a positive
        insertion, so the cache answered "nothing here" while reporting the
        positive entry's lifetime (and the reverse after put → put_negative)."""
        record = ResourceRecord("k.example", RecordType.A, "1.1.1.1", 300)
        cache.put_negative("k.example", RecordType.A)
        cache.put("k.example", RecordType.A, [record])
        entry = cache.lookup("k.example", RecordType.A)
        assert entry.answers == [record] and entry.expires_at == 300.0
        assert cache.size == 1
        clock.advance(1.0)
        cache.put_negative("k.example", RecordType.A)
        entry = cache.lookup("k.example", RecordType.A)
        assert entry.answers == [] and entry.expires_at == 1.0 + NEGATIVE_TTL_SECONDS
        assert cache.size == 1
        assert (cache.stats.hits, cache.stats.negative_hits, cache.stats.misses) == (1, 1, 0)

    def test_negative_entries_count_toward_the_bound(self, clock: SimulatedClock):
        """Regression: 5,000 distinct NXDOMAIN names one second apart used to
        leave 5,000 entries in a cache bounded at 100."""
        cache = DnsCache(clock=clock, max_entries=100)
        for index in range(5_000):
            cache.put_negative(f"ghost{index}.example", RecordType.SRV)
            clock.advance(1.0)
            assert cache.size <= 100
        # Lapsed negative entries were swept, not displaced: nothing that
        # held data was evicted.
        assert cache.stats.evictions == 0
        assert cache.stats.insertions == 5_000

    def test_live_negative_entries_are_displaced_when_full(self, clock: SimulatedClock):
        cache = DnsCache(clock=clock, max_entries=3)
        for index in range(3):
            cache.put_negative(f"ghost{index}.example", RecordType.SRV, ttl=10.0 + index)
        cache.put("a.example", RecordType.A, [ResourceRecord("a.example", RecordType.A, "1.1.1.1", 60)])
        assert cache.size == 3 and cache.stats.evictions == 1
        # The entry closest to expiry went, whatever its kind.
        assert cache.lookup("ghost0.example", RecordType.SRV) is None
        assert cache.lookup("a.example", RecordType.A) is not None

    def test_filling_past_max_entries_counts_each_eviction(self, clock: SimulatedClock):
        cache = DnsCache(clock=clock, max_entries=5)
        for index in range(12):
            cache.put(
                f"n{index}.example",
                RecordType.A,
                [ResourceRecord(f"n{index}.example", RecordType.A, "1.1.1.1", 300)],
            )
            assert cache.size <= 5
        # Every insertion past capacity displaced exactly one fresh entry.
        assert cache.stats.evictions == 12 - 5
        assert cache.stats.insertions == 12
        # The survivors are all still resolvable from the cache.
        surviving = sum(
            1 for index in range(12) if cache.lookup(f"n{index}.example", RecordType.A)
        )
        assert surviving == 5

    def test_expired_entries_evicted_before_live_ones(self, clock: SimulatedClock):
        cache = DnsCache(clock=clock, max_entries=4)
        for index in range(3):
            cache.put(
                f"short{index}.example",
                RecordType.A,
                [ResourceRecord(f"short{index}.example", RecordType.A, "1.1.1.1", 10)],
            )
        cache.put(
            "long.example",
            RecordType.A,
            [ResourceRecord("long.example", RecordType.A, "2.2.2.2", 10_000)],
        )
        clock.advance(11.0)  # the three short entries are now expired
        cache.put(
            "new.example",
            RecordType.A,
            [ResourceRecord("new.example", RecordType.A, "3.3.3.3", 300)],
        )
        assert cache.stats.evictions == 3  # the expired entries, not the live one
        assert cache.lookup("long.example", RecordType.A) is not None
        assert cache.lookup("new.example", RecordType.A) is not None

    def test_hit_rate(self, cache: DnsCache):
        cache.lookup("a.example", RecordType.A)
        cache.put("a.example", RecordType.A, [ResourceRecord("a.example", RecordType.A, "1.1.1.1", 60)])
        cache.lookup("a.example", RecordType.A)
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TwoProbeCache:
    """The DnsCache this repo had before answers carried their own expiry,
    kept as the reference the one-probe cache must match: a positive and a
    negative table, ``get`` (negative first) for the answer and
    ``remaining_ttl`` (positive first) for its lifetime, each probing on its
    own.  It carries the two fixes that landed with the rewrite — an
    insertion of either kind drops the other kind's entry, and both kinds
    count toward (and are swept at) ``max_entries`` — because without them
    the two probes contradict each other and there is nothing to match.
    ``_order`` reproduces the eviction tie-break: among entries equally
    close to expiry, the key that has been present longest goes.
    """

    def __init__(self, clock: SimulatedClock, max_entries: int, negative_ttl_seconds: float = 60.0):
        self.clock = clock
        self.max_entries = max_entries
        self.negative_ttl_seconds = negative_ttl_seconds
        self.stats = CacheStats()
        self._positive: dict[tuple[str, RecordType], tuple[list[ResourceRecord], float]] = {}
        self._negative: dict[tuple[str, RecordType], float] = {}
        self._order: dict[tuple[str, RecordType], None] = {}

    def get(self, name: str, record_type: RecordType) -> list[ResourceRecord] | None:
        key = (normalize_name(name), record_type)
        now = self.clock.now()
        negative = self._negative.get(key)
        if negative is not None:
            if negative > now:
                self.stats.negative_hits += 1
                return []
            self._forget(key)
        entry = self._positive.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry[1] <= now:
            self._forget(key)
            self.stats.evictions += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return list(entry[0])

    def remaining_ttl(self, name: str, record_type: RecordType) -> float | None:
        key = (normalize_name(name), record_type)
        now = self.clock.now()
        entry = self._positive.get(key)
        if entry is not None and entry[1] > now:
            return entry[1] - now
        negative = self._negative.get(key)
        if negative is not None and negative > now:
            return negative - now
        return None

    def put(self, name: str, record_type: RecordType, records: list[ResourceRecord]) -> None:
        if not records:
            self.put_negative(name, record_type)
            return
        key = (normalize_name(name), record_type)
        ttl = min(record.ttl_seconds for record in records)
        if ttl <= 0:
            return
        self._evict_if_full()
        self._negative.pop(key, None)
        self._positive[key] = (list(records), self.clock.now() + ttl)
        self._order.setdefault(key)
        self.stats.insertions += 1

    def put_negative(self, name: str, record_type: RecordType, ttl: float | None = None) -> None:
        key = (normalize_name(name), record_type)
        ttl_value = self.negative_ttl_seconds if ttl is None else ttl
        if ttl_value <= 0:
            return
        self._evict_if_full()
        self._positive.pop(key, None)
        self._negative[key] = self.clock.now() + ttl_value
        self._order.setdefault(key)
        self.stats.insertions += 1

    def _expires_at(self, key: tuple[str, RecordType]) -> float:
        return self._positive[key][1] if key in self._positive else self._negative[key]

    def _forget(self, key: tuple[str, RecordType]) -> None:
        self._positive.pop(key, None)
        self._negative.pop(key, None)
        del self._order[key]

    def _evict_if_full(self) -> None:
        if self.size < self.max_entries:
            return
        now = self.clock.now()
        for key in [key for key in self._order if self._expires_at(key) <= now]:
            if key in self._positive:
                self.stats.evictions += 1
            self._forget(key)
        if self.size >= self.max_entries:
            self._forget(min(self._order, key=self._expires_at))
            self.stats.evictions += 1

    @property
    def size(self) -> int:
        return len(self._positive) + len(self._negative)


# "A.Example." is "a.example" spelled differently: one key, two names.
_NAMES = ("a.example", "A.Example.", "b.example", "c.example")
_keys = st.tuples(st.sampled_from(_NAMES), st.sampled_from((RecordType.A, RecordType.SRV)))
_ttls = st.sampled_from((0.0, 0.5, 7.0, 30.0, 300.0))


class CacheMachine(RuleBasedStateMachine):
    """put / put_negative / clock moves / lookups over a handful of keys,
    in a cache small enough that every insertion may have to make room."""

    @initialize(max_entries=st.sampled_from((1, 2, 3, 8)))
    def build(self, max_entries):
        self.clock = SimulatedClock()
        self.cache = DnsCache(clock=self.clock, max_entries=max_entries)
        self.oracle = TwoProbeCache(self.clock, max_entries)

    @rule(key=_keys, ttls=st.lists(_ttls, max_size=3))
    def put(self, key, ttls):
        records = [ResourceRecord(key[0], key[1], f"10.0.0.{i}", ttl) for i, ttl in enumerate(ttls)]
        self.cache.put(*key, records)
        self.oracle.put(*key, records)

    @rule(key=_keys, ttl=st.one_of(st.none(), _ttls))
    def put_negative(self, key, ttl):
        self.cache.put_negative(*key, ttl)
        self.oracle.put_negative(*key, ttl)

    @rule(seconds=st.sampled_from((0.0, 0.5, 6.5, 7.0, 30.0, 61.0, 300.0)))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule(key=_keys)
    def lookup(self, key):
        entry = self.cache.lookup(*key)
        answers = self.oracle.get(*key)
        remaining = self.oracle.remaining_ttl(*key)
        if entry is None:
            assert answers is None and remaining is None
        else:
            assert entry.answers == answers
            assert entry.expires_at - self.clock.now() == remaining
            assert entry.from_cache and entry.is_nxdomain == (not answers)
            assert entry.question.name == normalize_name(key[0])

    @invariant()
    def same_books(self):
        assert self.cache.stats == self.oracle.stats
        assert self.cache.size == self.oracle.size <= self.cache.max_entries


CacheMachine.TestCase.settings = settings(max_examples=200, stateful_step_count=50, deadline=None)
TestCacheMachine = CacheMachine.TestCase


def _build_namespace(network: SimulatedNetwork) -> tuple[RecursiveResolver, NameServer]:
    """root -> example (delegation) -> maps.example hosted on a child server."""
    root_zone = Zone(origin="")
    root_zone.add("example", RecordType.NS, "ns.example")
    root = NameServer(server_id="root", zones={"": root_zone})

    example_zone = Zone(origin="example")
    example_zone.add("maps.example", RecordType.NS, "ns.maps.example")
    example_zone.add("www.example", RecordType.A, "10.0.0.80")
    example_zone.add("alias.example", RecordType.CNAME, "www.example")
    example_server = NameServer(server_id="ns.example", zones={"example": example_zone})

    maps_zone = Zone(origin="maps.example")
    maps_zone.add("city.maps.example", RecordType.A, "10.0.1.1")
    maps_zone.add("city.maps.example", RecordType.SRV, "0 0 443 city-server")
    maps_server = NameServer(server_id="ns.maps.example", zones={"maps.example": maps_zone})

    resolver = RecursiveResolver(
        root=root,
        servers={
            "root": root,
            "ns.example": example_server,
            "ns.maps.example": maps_server,
        },
        network=network,
    )
    return resolver, maps_server


class TestRecursiveResolver:
    @pytest.fixture()
    def network(self) -> SimulatedNetwork:
        return SimulatedNetwork()

    @pytest.fixture()
    def resolver(self, network: SimulatedNetwork) -> RecursiveResolver:
        resolver, _ = _build_namespace(network)
        return resolver

    def test_resolution_through_two_delegations(self, resolver: RecursiveResolver):
        response = resolver.resolve("city.maps.example", RecordType.A)
        assert response.answers[0].data == "10.0.1.1"
        # root -> example -> maps.example = 3 authoritative exchanges
        assert resolver.stats.authoritative_exchanges == 3

    def test_answer_is_cached(self, resolver: RecursiveResolver, network: SimulatedNetwork):
        resolver.resolve("city.maps.example", RecordType.A)
        exchanges_before = resolver.stats.authoritative_exchanges
        response = resolver.resolve("city.maps.example", RecordType.A)
        assert response.from_cache
        assert resolver.stats.authoritative_exchanges == exchanges_before

    def test_cache_expires_with_ttl(self, resolver: RecursiveResolver, network: SimulatedNetwork):
        resolver.resolve("city.maps.example", RecordType.A)
        network.clock.advance(10_000.0)
        response = resolver.resolve("city.maps.example", RecordType.A)
        assert not response.from_cache

    def test_nxdomain_and_negative_cache(self, resolver: RecursiveResolver):
        first = resolver.resolve("ghost.maps.example", RecordType.A)
        assert first.is_nxdomain
        second = resolver.resolve("ghost.maps.example", RecordType.A)
        assert second.from_cache

    def test_expired_nxdomain_re_resolves(
        self, resolver: RecursiveResolver, network: SimulatedNetwork
    ):
        """After the negative TTL lapses the resolver must go upstream again."""
        resolver.resolve("ghost.maps.example", RecordType.A)
        exchanges_after_first = resolver.stats.authoritative_exchanges
        network.clock.advance(NEGATIVE_TTL_SECONDS + 1.0)
        response = resolver.resolve("ghost.maps.example", RecordType.A)
        assert not response.from_cache
        assert response.is_nxdomain
        assert resolver.stats.authoritative_exchanges > exchanges_after_first

    def test_name_registered_after_nxdomain_becomes_visible(
        self, network: SimulatedNetwork
    ):
        """A cell with no server today can gain one once the NXDOMAIN ages out."""
        resolver, maps_server = _build_namespace(network)
        assert resolver.resolve("late.maps.example", RecordType.A).is_nxdomain
        maps_server.zones["maps.example"].add("late.maps.example", RecordType.A, "10.0.9.9")
        # Still negative while the NXDOMAIN entry lives...
        assert resolver.resolve("late.maps.example", RecordType.A).is_nxdomain
        network.clock.advance(NEGATIVE_TTL_SECONDS + 1.0)
        # ...and resolvable after it expires.
        refreshed = resolver.resolve("late.maps.example", RecordType.A)
        assert refreshed.answers and refreshed.answers[0].data == "10.0.9.9"

    def test_cname_chase_across_names(self, resolver: RecursiveResolver):
        response = resolver.resolve("alias.example", RecordType.A)
        assert "10.0.0.80" in response.answer_data()

    def test_cached_nodata_stays_nodata(self, resolver: RecursiveResolver):
        """Regression: a name that exists without records of the asked type
        answered NOERROR the first time and NXDOMAIN from the cache (RFC 2308
        §5 keeps NODATA and NXDOMAIN apart)."""
        first = resolver.resolve("www.example", RecordType.SRV)  # www has an A record only
        second = resolver.resolve("www.example", RecordType.SRV)
        assert second.from_cache and not first.from_cache
        assert first.code == second.code == ResponseCode.NOERROR
        assert first.answers == second.answers == []
        assert second.expires_at == first.expires_at
        assert resolver.stats.nxdomain == 0
        ghost = resolver.resolve("ghost.maps.example", RecordType.SRV)
        assert ghost.is_nxdomain and resolver.resolve("ghost.maps.example", RecordType.SRV).is_nxdomain

    def test_cache_hits_count_as_lookup_counts_them(
        self, resolver: RecursiveResolver, network: SimulatedNetwork
    ):
        """``resolve`` answers a live hit itself; a twin cache driven through
        ``DnsCache.lookup`` with the same calls must keep the same books."""
        twin = DnsCache(clock=network.clock)
        names = ["city.maps.example", "ghost.maps.example", "www.example", "CITY.maps.example."]
        for step in range(48):
            name = names[step % len(names)]
            response = resolver.resolve(name, RecordType.A)
            if twin.lookup(name, RecordType.A) is None:
                if response.answers:
                    twin.put(name, RecordType.A, response.answers)
                else:
                    twin.put_negative(name, RecordType.A, code=response.code)
            network.clock.advance(10.0)
        assert resolver.cache.stats == twin.stats
        assert resolver.cache.stats.hits and resolver.cache.stats.negative_hits
        assert resolver.cache.stats.misses and resolver.cache.stats.evictions
        assert resolver.stats.cache_answers == twin.stats.hits + twin.stats.negative_hits

    def test_missing_glue_is_servfail(self, network: SimulatedNetwork):
        root_zone = Zone(origin="")
        root_zone.add("example", RecordType.NS, "ns.unknown")
        root = NameServer(server_id="root", zones={"": root_zone})
        resolver = RecursiveResolver(root=root, servers={"root": root}, network=network)
        response = resolver.resolve("a.example", RecordType.A)
        assert response.code.value == "SERVFAIL"

    def test_stub_resolver_charges_client_hop(self, network: SimulatedNetwork, resolver: RecursiveResolver):
        stub = StubResolver(recursive=resolver, network=network)
        before = network.stats.messages_by_kind.get("dns.client_resolver", 0)
        stub.resolve("city.maps.example", RecordType.A)
        assert network.stats.messages_by_kind["dns.client_resolver"] == before + 1

    def test_network_latency_accumulates(self, network: SimulatedNetwork, resolver: RecursiveResolver):
        resolver.resolve("city.maps.example", RecordType.A)
        assert network.stats.total_latency_ms > 0
        assert network.clock.now() > 0
