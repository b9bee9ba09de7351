"""The device-side discovery cache.

Section 5.1 argues map-server addresses change rarely, "so the system would
benefit from a ubiquitous caching mechanism".  The recursive resolver already
caches DNS answers; this cache sits one layer closer to the application and
stores the *merged per-cell discovery result* (the ancestor walk collapsed to
a server list), so a device revisiting a cell skips DNS entirely — including
the client→resolver hop the resolver cache cannot remove.

Entries honour DNS TTLs: the discoverer computes each cell's time-to-live
from the remaining lifetimes of the DNS answers (and negative entries) that
produced it, clamped by the device-configured TTL, so a device cache can
never outlive the records it was derived from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.simulation.clock import SimulatedClock
from repro.simulation.lru import LruCache, LruStats

@dataclass
class DiscoveryCache:
    """An LRU, TTL-bounded cache of per-cell discovery results.

    Keys are cell tokens; values are the ordered tuple of server ids the
    discovery walk produced for that cell.  ``default_ttl_seconds <= 0``
    disables the cache entirely (every ``get`` is a miss, ``put`` is a no-op),
    which keeps the uncached baseline byte-identical to not having a cache.
    """

    clock: SimulatedClock
    max_entries: int = 4096
    default_ttl_seconds: float = 120.0
    stale_grace_seconds: float = 0.0
    """How long past expiry an entry may still be served *stale* via
    :meth:`get_stale` (graceful degradation during discovery outages).
    Zero — the default — keeps eviction and stats byte-identical to the
    no-grace behaviour."""
    _lru: LruCache = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.stale_grace_seconds < math.inf):
            raise ValueError(
                f"stale_grace_seconds must be finite and >= 0, got {self.stale_grace_seconds}"
            )
        self._lru = LruCache(max_entries=self.max_entries)

    @property
    def stats(self) -> LruStats:
        return self._lru.stats

    @property
    def enabled(self) -> bool:
        return self.default_ttl_seconds > 0.0

    def get(self, cell_token: str) -> tuple[str, ...] | None:
        """The cached *fresh* server list for a cell, or None on a miss.

        Nine probes in ten hit, and a fleet makes tens of thousands, so the
        probe is :meth:`LruCache.lookup` written out in this one frame: the
        same dict probe, expiry compare, recency refresh and stat bumps, in
        the same order (``tests/test_client_half.py`` holds ``lookup`` with
        an ``is_live`` predicate as the ``==`` oracle).
        """
        if not self.default_ttl_seconds > 0.0:
            return None
        entries = self._lru._entries
        stats = self._lru.stats
        entry = entries.get(cell_token)
        if entry is None:
            stats.misses += 1
            return None
        expires_at = entry[0]
        now = self.clock.now()
        if expires_at > now:
            entries.move_to_end(cell_token)
            stats.hits += 1
            return entry[1]
        if expires_at + self.stale_grace_seconds > now:
            # Inside the stale grace window the entry must survive its expiry
            # so a later get_stale can find it, and it is still *used* (its
            # recency is refreshed), but it does not answer a normal lookup —
            # resolution is still tried — so it counts as a miss.
            entries.move_to_end(cell_token)
            stats.misses += 1
            return None
        del entries[cell_token]
        stats.expirations += 1
        stats.misses += 1
        return None

    def get_stale(self, cell_token: str) -> tuple[str, ...] | None:
        """An *expired* entry still inside the stale grace window, else None.

        The degradation path: when live resolution fails (authority dark,
        SERVFAIL), the discoverer may serve this stale view rather than
        hard-fail.  No stats or recency are perturbed — degraded serves are
        counted by the discoverer, not as cache hits.
        """
        if not self.enabled or self.stale_grace_seconds <= 0.0:
            return None
        entry = self._lru.peek(cell_token)
        if entry is None:
            return None
        expires_at, servers = entry
        now = self.clock.now()
        if expires_at <= now < expires_at + self.stale_grace_seconds:
            return servers
        return None

    def put(self, cell_token: str, servers: list[str] | tuple[str, ...], ttl_seconds: float | None = None) -> None:
        """Cache a cell's discovery result for ``ttl_seconds``.

        The effective TTL is the smaller of ``ttl_seconds`` (the DNS-derived
        bound) and the device-configured default.
        """
        if not self.enabled:
            return
        ttl = self.default_ttl_seconds
        if ttl_seconds is not None:
            ttl = min(ttl, ttl_seconds)
        if ttl <= 0.0:
            return
        self._lru.store(cell_token, (self.clock.now() + ttl, tuple(dict.fromkeys(servers))))

    def flush(self) -> None:
        self._lru.flush()

    @property
    def size(self) -> int:
        return self._lru.size
