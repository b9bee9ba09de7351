"""DNS zones: independently managed portions of the namespace.

A map in OpenFLAME "is conceptually equivalent to a zone in a traditional
naming system like the DNS" (Section 3).  Zones hold resource records,
support wildcard-free exact-name lookup, and record delegations (child zones
served elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.records import (
    RecordType,
    ResourceRecord,
    is_subdomain,
    normalize_name,
    validate_name,
)


class ZoneError(Exception):
    """Raised for invalid zone manipulation."""


@dataclass
class Zone:
    """One zone of the DNS namespace.

    ``origin`` is the zone apex (e.g. ``"maps.example"``).  Records must live
    at or below the apex.  Delegations are represented by NS records for a
    child name; lookups below a delegation return a referral.
    """

    origin: str
    default_ttl: float = 300.0
    _records: dict[tuple[str, RecordType], list[ResourceRecord]] = field(default_factory=dict)
    _delegations: set[str] = field(default_factory=set)
    _name_index: dict[str, set[RecordType]] = field(default_factory=dict)
    """Record types present per name — O(1) existence checks and O(1)
    removal without scanning the whole record table.  Removal MUST keep this
    index (and the ``_delegations`` set the ``covering_delegation`` suffix
    walk probes) exact: a deregistered server stops resolving at the
    authority the moment its records go; only caches may stay stale."""

    def __post_init__(self) -> None:
        self.origin = normalize_name(self.origin)
        if self.origin:
            validate_name(self.origin)

    # ------------------------------------------------------------------
    # Record management
    # ------------------------------------------------------------------
    def add_record(self, record: ResourceRecord) -> None:
        """Add a record, enforcing that it belongs to this zone."""
        if not is_subdomain(record.name, self.origin):
            raise ZoneError(f"record {record.name!r} is outside zone {self.origin!r}")
        key = (record.name, record.record_type)
        bucket = self._records.get(key)
        if bucket is None:
            bucket = self._records[key] = []
            self._name_index.setdefault(record.name, set()).add(record.record_type)
        if record in bucket:
            return
        bucket.append(record)
        if record.record_type == RecordType.NS and record.name != self.origin:
            self._delegations.add(record.name)

    def add(self, name: str, record_type: RecordType, data: str, ttl: float | None = None) -> ResourceRecord:
        """Convenience wrapper building and adding a record."""
        record = ResourceRecord(name, record_type, data, ttl if ttl is not None else self.default_ttl)
        self.add_record(record)
        return record

    def _drop_bucket(self, name: str, record_type: RecordType) -> None:
        """Remove an emptied bucket's entries from the lookup indexes."""
        types = self._name_index.get(name)
        if types is not None:
            types.discard(record_type)
            if not types:
                del self._name_index[name]
        if record_type == RecordType.NS:
            self._delegations.discard(name)

    def remove_record(self, record: ResourceRecord) -> bool:
        """Remove exactly one record; returns whether it was present.

        Surgical removal is what deregistration needs: withdrawing one map
        server's SRV record from a spatial name shared with other servers
        (replicas of one coverage region) must leave the others resolving,
        while the last record at a name must also clear the name's existence
        (``contains_name``) and any delegation the ``covering_delegation``
        suffix walk would still find.
        """
        key = (record.name, record.record_type)
        bucket = self._records.get(key)
        if bucket is None or record not in bucket:
            return False
        bucket.remove(record)
        if not bucket:
            del self._records[key]
            self._drop_bucket(record.name, record.record_type)
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def records_at(self, name: str, record_type: RecordType | None = None) -> list[ResourceRecord]:
        """All records at exactly ``name`` (of ``record_type`` if given)."""
        name_n = normalize_name(name)
        if record_type is not None:
            return list(self._records.get((name_n, record_type), []))
        out: list[ResourceRecord] = []
        for (key_name, _), bucket in self._records.items():
            if key_name == name_n:
                out.extend(bucket)
        return out

    def covering_delegation(self, name: str) -> str | None:
        """The delegated child zone that covers ``name``, if any.

        A delegation covering ``name`` is by definition one of ``name``'s
        label suffixes, so instead of scanning every delegation (the spatial
        zone holds one per registered covering cell) the lookup walks the
        name's own suffixes longest-first and probes the delegation set —
        O(labels) regardless of how many zones are delegated.
        """
        name_n = normalize_name(name)
        delegations = self._delegations
        if not delegations:
            return None
        candidate = name_n
        while candidate:
            if candidate != self.origin and candidate in delegations:
                return candidate
            dot = candidate.find(".")
            if dot < 0:
                return None
            candidate = candidate[dot + 1 :]
        return None

    def delegation_records(self, child: str) -> list[ResourceRecord]:
        return self.records_at(child, RecordType.NS)

    def contains_name(self, name: str) -> bool:
        """True if any record exists at exactly ``name``."""
        return normalize_name(name) in self._name_index

    def names(self) -> set[str]:
        """All names with at least one record."""
        return set(self._name_index)

    @property
    def record_count(self) -> int:
        return sum(len(bucket) for bucket in self._records.values())

    def in_zone(self, name: str) -> bool:
        return is_subdomain(name, self.origin)
