"""A recursive, caching DNS resolver over the simulated namespace.

The resolver walks delegations from a root name server down to the
authoritative server for a name, caching both answers and referrals, and
charging every server exchange against the simulated network so experiments
can report discovery latency and message counts (experiments E2/E3/E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.cache import DnsCache
from repro.dns.message import DnsResponse, Question, ResponseCode
from repro.dns.records import RecordType, normalize_name
from repro.dns.server import NameServer
from repro.simulation.network import SimulatedNetwork

MAX_REFERRALS = 16
"""Name-server exchanges one resolution may make before it raises
:class:`ResolutionError` (a referral loop)."""

DNS_TIMEOUT_MS = 300.0
"""What one query against a dark authority costs the resolver before it
gives up with SERVFAIL."""


class ResolutionError(Exception):
    """Raised when a name cannot be resolved (loop, missing glue, depth limit)."""


@dataclass
class ResolverStats:
    queries: int = 0
    authoritative_exchanges: int = 0
    cache_answers: int = 0
    nxdomain: int = 0
    timeouts: int = 0
    """Queries abandoned because the authority was dark (fault-injected
    outage): the resolver paid its full patience and synthesized SERVFAIL."""


@dataclass
class RecursiveResolver:
    """A caching recursive resolver.

    ``root`` is the root name server; ``servers`` maps a name-server identifier
    (the data of NS records) to the :class:`NameServer` that answers for it —
    the moral equivalent of glue records plus routing.
    """

    root: NameServer
    servers: dict[str, NameServer]
    network: SimulatedNetwork
    cache: DnsCache = field(default=None)  # type: ignore[assignment]
    stats: ResolverStats = field(default_factory=ResolverStats)

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = DnsCache(clock=self.network.clock)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, name: str, record_type: RecordType) -> DnsResponse:
        """Resolve ``name``/``record_type``, using the cache when possible.

        The response says how long this resolver will stand by it
        (``expires_at``), whether it came out of the cache or was cached
        just now.
        """
        stats = self.stats
        stats.queries += 1
        cache = self.cache
        # A live hit is answered in this frame — every discovery name lands
        # here — with ``DnsCache.lookup``'s probe, compare and counters.
        entry = cache._entries.get((normalize_name(name), record_type))
        if entry is not None and entry.expires_at > cache.clock.now():
            if entry.answers:
                cache.stats.hits += 1
            else:
                cache.stats.negative_hits += 1
            stats.cache_answers += 1
            return entry
        # No live entry: ``lookup`` drops a lapsed one and counts the miss.
        cache.lookup(name, record_type)

        response = self._resolve_iteratively(Question(name, record_type))
        stored = None
        if response.code == ResponseCode.NOERROR and response.answers:
            stored = cache.put(name, record_type, response.answers)
        elif response.code in (ResponseCode.NXDOMAIN, ResponseCode.NOERROR):
            stored = cache.put_negative(name, record_type, code=response.code)
            if response.code == ResponseCode.NXDOMAIN:
                stats.nxdomain += 1
        if stored is not None:
            response.expires_at = stored.expires_at
        return response

    def _resolve_iteratively(self, question: Question) -> DnsResponse:
        server = self.root
        for _ in range(MAX_REFERRALS):
            faults = self.network.faults
            if faults is not None and faults.authority_is_down(server.server_id):
                # The authority is dark: the query goes unanswered, the
                # resolver pays its full patience and gives up with SERVFAIL.
                # SERVFAIL is deliberately never cached (see resolve), so
                # recovery is visible on the very next uncached query.
                self.network.dns_timeout(DNS_TIMEOUT_MS)
                self.stats.timeouts += 1
                return DnsResponse(question, code=ResponseCode.SERVFAIL)
            self.network.resolver_authority_exchange()
            self.stats.authoritative_exchanges += 1
            response = server.handle(question)

            if response.code in (ResponseCode.NXDOMAIN, ResponseCode.SERVFAIL, ResponseCode.REFUSED):
                return response

            if response.answers:
                answers = self._chase_cname(question, response)
                return answers

            if response.is_referral:
                next_server = self._server_for_referral(response)
                if next_server is None:
                    return DnsResponse(question, code=ResponseCode.SERVFAIL)
                server = next_server
                continue

            # NODATA: the name exists but has no records of the requested type.
            return response

        raise ResolutionError(f"referral limit exceeded while resolving {question.name!r}")

    def _chase_cname(self, question: Question, response: DnsResponse) -> DnsResponse:
        """If the answer is only a CNAME, restart resolution at the target."""
        direct = [r for r in response.answers if r.record_type == question.record_type]
        if direct:
            return response
        cnames = [r for r in response.answers if r.record_type == RecordType.CNAME]
        if not cnames:
            return response
        target = cnames[0].data
        chained = self.resolve(target, question.record_type)
        merged = list(response.answers) + list(chained.answers)
        return DnsResponse(question, code=chained.code, answers=merged)

    def _server_for_referral(self, response: DnsResponse) -> NameServer | None:
        for ns_record in response.authority:
            if ns_record.record_type != RecordType.NS:
                continue
            server = self.servers.get(normalize_name(ns_record.data))
            if server is not None:
                return server
        return None


@dataclass
class StubResolver:
    """A client-side stub: forwards every query to one recursive resolver.

    The stub charges the client→resolver hop so that end-to-end discovery
    latency seen by a client includes both the access hop and whatever the
    recursive resolver had to do upstream.  The discovery walk makes the
    same two calls itself, per name, on the stub's ``network`` and
    ``recursive``.
    """

    recursive: RecursiveResolver
    network: SimulatedNetwork

    def resolve(self, name: str, record_type: RecordType) -> DnsResponse:
        self.network.client_resolver_exchange()
        return self.recursive.resolve(name, record_type)
