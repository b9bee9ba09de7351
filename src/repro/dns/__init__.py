"""An in-process DNS substrate: zones, authoritative servers, caching resolver."""

from repro.dns.cache import CacheStats, DnsCache
from repro.dns.message import DnsResponse, Question, ResponseCode
from repro.dns.records import (
    RecordType,
    ResourceRecord,
    SrvData,
    is_subdomain,
    normalize_name,
    validate_name,
)
from repro.dns.resolver import (
    RecursiveResolver,
    ResolutionError,
    ResolverStats,
    StubResolver,
)
from repro.dns.server import NameServer
from repro.dns.zone import Zone, ZoneError

__all__ = [
    "CacheStats",
    "DnsCache",
    "DnsResponse",
    "NameServer",
    "Question",
    "RecordType",
    "RecursiveResolver",
    "ResolutionError",
    "ResolverStats",
    "ResourceRecord",
    "ResponseCode",
    "SrvData",
    "StubResolver",
    "Zone",
    "ZoneError",
    "is_subdomain",
    "normalize_name",
    "validate_name",
]
