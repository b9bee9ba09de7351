"""DNS resource records and domain-name utilities.

The discovery layer (Section 5.1) repurposes the DNS: spatial cells become
hierarchical domain names and map servers are advertised as records under
those names.  This module models the small subset of the DNS data model the
system needs — names, record types, records with TTLs — with the same
hierarchy/suffix semantics as the real thing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

_LABEL_RE = re.compile(r"^[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?$")


class RecordType(str, Enum):
    """Supported resource-record types."""

    A = "A"
    AAAA = "AAAA"
    NS = "NS"
    CNAME = "CNAME"
    TXT = "TXT"
    SRV = "SRV"
    SOA = "SOA"
    PTR = "PTR"


@lru_cache(maxsize=65536)
def normalize_name(name: str) -> str:
    """Canonicalise a domain name: lower-case, no trailing dot, no whitespace.

    Memoized: resolution normalizes the same spatial names on every cache
    probe, referral and zone lookup, so the repertoire of distinct names in a
    run is tiny compared to the number of normalizations.
    """
    cleaned = name.strip().lower().rstrip(".")
    if not cleaned:
        return ""
    return cleaned


def validate_name(name: str) -> None:
    """Raise ``ValueError`` if ``name`` is not a syntactically valid domain name."""
    normalized = normalize_name(name)
    if not normalized:
        raise ValueError("empty domain name")
    if len(normalized) > 253:
        raise ValueError(f"domain name too long ({len(normalized)} chars)")
    for label in normalized.split("."):
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid DNS label {label!r} in {name!r}")


def is_subdomain(name: str, zone: str) -> bool:
    """True if ``name`` is within ``zone`` (inclusive)."""
    name_n = normalize_name(name)
    zone_n = normalize_name(zone)
    if not zone_n:
        return True
    return name_n == zone_n or name_n.endswith("." + zone_n)


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """A single DNS resource record."""

    name: str
    record_type: RecordType
    data: str
    ttl_seconds: float = 300.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.ttl_seconds < 0:
            raise ValueError("TTL must be non-negative")


@dataclass(frozen=True, slots=True)
class SrvData:
    """Parsed contents of an SRV-style record: a service endpoint.

    Map servers are advertised as SRV-like records whose data encodes the
    server identifier plus RFC 2782 priority/weight for load sharing:
    clients must try lower ``priority`` values first, and within one
    priority tier spread load proportionally to ``weight`` (a weight of 0
    means "only when nothing weighted is available").
    """

    target: str
    port: int = 443
    priority: int = 0
    weight: int = 0

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("SRV target cannot be empty")
        if self.port < 0:
            raise ValueError("SRV port cannot be negative")
        if self.priority < 0:
            raise ValueError("SRV priority cannot be negative")
        if self.weight < 0:
            raise ValueError("SRV weight cannot be negative")

    @property
    def endpoint(self) -> tuple[str, int]:
        """The host:port pair this record points at (shadow-dedup key)."""
        return (self.target, self.port)

    def encode(self) -> str:
        return f"{self.priority} {self.weight} {self.port} {self.target}"

    @classmethod
    @lru_cache(maxsize=4096)
    def decode(cls, data: str) -> "SrvData":
        """Parse :meth:`encode`'s format.

        Memoized on the data string (instances are frozen, so sharing one is
        safe): a run advertises a few dozen distinct SRV strings and reads
        them back on every discovery answer and registry scan.
        """
        parts = data.split(maxsplit=3)
        if len(parts) != 4:
            raise ValueError(f"malformed SRV data {data!r}")
        priority, weight, port, target = parts
        return cls(target=target, port=int(port), priority=int(priority), weight=int(weight))
