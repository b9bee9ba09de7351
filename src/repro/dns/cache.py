"""TTL-based DNS caching.

The paper's case for DNS-based discovery leans heavily on caching: "the
address of the map servers are not expected to change frequently so the
system would benefit from a ubiquitous caching mechanism" (Section 5.1).  The
cache honours per-record TTLs against a simulated clock and also performs
negative caching of NXDOMAIN and NODATA answers — important because most
spatial cells have no map server registered and repeated discovery of empty
cells must stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.message import DnsResponse, Question, ResponseCode
from repro.dns.records import RecordType, ResourceRecord, normalize_name
from repro.simulation.clock import SimulatedClock

NEGATIVE_TTL_SECONDS = 60.0
"""How long an NXDOMAIN / NODATA answer is cached when the caller names no
TTL."""


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.negative_hits
        return (self.hits + self.negative_hits) / total if total else 0.0


@dataclass
class DnsCache:
    """A TTL cache for DNS answers keyed by (name, type).

    An entry is the :class:`DnsResponse` the cache answers with: the cached
    records (none for a negative entry — NXDOMAIN / NODATA), ``from_cache``
    set, and ``expires_at`` the absolute instant on ``clock`` it lapses, so
    whoever is handed the answer can bound what they derive from it without
    asking the cache a second time.  A key holds at most one entry, positive
    or negative: inserting either kind replaces whatever was there.
    ``max_entries`` bounds both kinds together.
    """

    clock: SimulatedClock
    max_entries: int = 10_000
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[tuple[str, RecordType], DnsResponse] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, name: str, record_type: RecordType) -> DnsResponse | None:
        """The live cached answer for ``name``/``record_type``, or None on a miss.

        A negative-cache hit is an answer with no records (distinct from
        None), NXDOMAIN or NODATA as it was stored.  Every hit on a key
        returns the same object: read it, do not mutate it.
        """
        key = (normalize_name(name), record_type)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.expires_at > self.clock.now():
                if entry.answers:
                    self.stats.hits += 1
                else:
                    self.stats.negative_hits += 1
                return entry
            self._drop_expired(key, entry)
        self.stats.misses += 1
        return None

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def put(
        self, name: str, record_type: RecordType, records: list[ResourceRecord]
    ) -> DnsResponse | None:
        """Cache a positive answer using the minimum TTL across records.

        Returns the stored entry, or None when the answer is not cacheable
        (a zero TTL).
        """
        if not records:
            return self.put_negative(name, record_type)
        return self._store(
            name,
            record_type,
            list(records),
            min(r.ttl_seconds for r in records),
            ResponseCode.NOERROR,
        )

    def put_negative(
        self,
        name: str,
        record_type: RecordType,
        ttl: float | None = None,
        code: ResponseCode = ResponseCode.NXDOMAIN,
    ) -> DnsResponse | None:
        """Cache the absence of records at ``name``/``record_type``.

        ``code`` is what the upstream said: NXDOMAIN (no such name) or
        NOERROR (NODATA — the name exists without records of this type).
        The cache answers with it, as RFC 2308 §5 keeps the two apart.
        """
        return self._store(
            name, record_type, [], NEGATIVE_TTL_SECONDS if ttl is None else ttl, code
        )

    def _store(
        self,
        name: str,
        record_type: RecordType,
        records: list[ResourceRecord],
        ttl: float,
        code: ResponseCode,
    ) -> DnsResponse | None:
        if ttl <= 0:
            return None
        self._make_room()
        question = Question(name, record_type)
        entry = self._entries[(question.name, record_type)] = DnsResponse(
            question,
            code=code,
            answers=records,
            from_cache=True,
            expires_at=self.clock.now() + ttl,
        )
        self.stats.insertions += 1
        return entry

    def _make_room(self) -> None:
        if len(self._entries) < self.max_entries:
            return
        now = self.clock.now()
        expired = [(key, entry) for key, entry in self._entries.items() if entry.expires_at <= now]
        for key, entry in expired:
            self._drop_expired(key, entry)
        if len(self._entries) >= self.max_entries:
            # Evict the entry closest to expiry.
            victim = min(self._entries, key=lambda k: self._entries[k].expires_at)
            del self._entries[victim]
            self.stats.evictions += 1

    def _drop_expired(self, key: tuple[str, RecordType], entry: DnsResponse) -> None:
        """Remove a lapsed entry; only lapsed *answers* count as evictions
        (a lapsed negative entry was never holding data)."""
        del self._entries[key]
        if entry.answers:
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> None:
        self._entries.clear()

    @property
    def size(self) -> int:
        return len(self._entries)
