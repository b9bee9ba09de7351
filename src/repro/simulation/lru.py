"""A small LRU cache primitive, and the one rule for state derived from a
mutable source.

:class:`repro.discovery.cache.DiscoveryCache` (TTL-aware) and
:class:`repro.tiles.cache.TileCache` (immutable entries) are both bounded
LRU maps with the same hit/miss/eviction accounting; this module holds the
one copy of that machinery so the eviction and stats semantics cannot drift
apart.  The host-side memos (``docs/ARCHITECTURE.md`` § Answer reuse) are
bounded by the same class, and held by :class:`MutableSource`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, TypeVar

_MISSING = object()
"""Sentinel distinguishing "no entry" from a stored ``None`` value."""

ANSWER_MEMO_ENTRIES = 2048
"""Bound of each per-map answer memo (search, geocode and path answers per
map, vertex snaps per routing graph).  The committed workloads ask at most
≈1.2k distinct questions *summed over every server*, so no memo evicts on
any of them, while a stream of never-repeating requests is held to
≈2.5 MiB per map (measured full: 1.5 MiB of ten-result search answers,
0.6 MiB of geocode answers, 0.2 MiB of snaps)."""

_Derived = TypeVar("_Derived")


@dataclass(eq=False)
class MutableSource:
    """Something mutable that other state is derived from: a map, a routing
    graph, a fingerprint database.

    One rule keeps all of that state current.  What is derived is held *in*
    the source, through :meth:`derive`, and every mutation of the source
    calls :meth:`_changed`, which drops all of it.  A value lives as long as
    the source and the state it was derived from.  ``eq=False``: a source
    keeps its own equality (identity, unless a subclass defines fields).
    """

    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _changed(self) -> None:
        """Record a mutation: drop everything derived."""
        self._derived.clear()

    def derive(self, key: Hashable, build: Callable[[Any], _Derived]) -> _Derived:
        """The value held under ``key``, else ``build(self)``, held until the
        source next changes.  ``key`` names what is derived, and every site
        that passes it must derive the same thing."""
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value


def answer_memo(_source: object) -> LruCache:
    """A fresh answer memo: the ``build`` of every answer memo a source holds."""
    return LruCache(max_entries=ANSWER_MEMO_ENTRIES)


@dataclass
class LruStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class LruCache:
    """A bounded least-recently-used map with hit/miss accounting.

    Every operation is strictly O(1): lookups are one hash probe plus an
    OrderedDict ``move_to_end`` relink, and stores evict with ``popitem`` —
    no scans, no sorting, no per-entry walks.  A micro-benchmark guard test
    (``tests/test_simulation.py``) holds this to account: per-operation cost
    must not grow with the cache size.
    """

    max_entries: int = 256
    stats: LruStats = field(default_factory=LruStats)
    _entries: OrderedDict = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            # A table that can hold nothing would evict from an empty dict.
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")

    def lookup(self, key: Any, is_live: Callable[[Any], bool] | None = None) -> Any | None:
        """The live value for ``key`` (None on miss), refreshing its recency.

        ``is_live`` lets a TTL-aware wrapper reject a stored entry: a stale
        entry is dropped, counted as an expiration, and reported as a miss.
        (:meth:`repro.discovery.cache.DiscoveryCache.get` is this method with
        its expiry rule written out in one frame; a test holds the two equal.)
        """
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return None
        if is_live is not None and not is_live(value):
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def peek(self, key: Any) -> Any | None:
        """The stored value for ``key`` with no accounting or recency effects.

        Lets a TTL-aware wrapper inspect an entry that would fail its
        ``is_live`` check — e.g. to serve it stale during an outage —
        without perturbing hit/miss statistics or the eviction order.
        """
        value = self._entries.get(key, _MISSING)
        return None if value is _MISSING else value

    def store(self, key: Any, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        entries = self._entries
        if key in entries:
            # Refresh: overwrite in place and relink to the MRU end.
            entries[key] = value
            entries.move_to_end(key)
        else:
            if len(entries) >= self.max_entries:
                entries.popitem(last=False)
                self.stats.evictions += 1
            entries[key] = value
        self.stats.insertions += 1

    def flush(self) -> None:
        self._entries.clear()

    @property
    def size(self) -> int:
        return len(self._entries)
