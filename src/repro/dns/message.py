"""DNS query/response messages."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.dns.records import RecordType, ResourceRecord, normalize_name


class ResponseCode(str, Enum):
    """Subset of DNS RCODEs used by the substrate."""

    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    SERVFAIL = "SERVFAIL"
    REFUSED = "REFUSED"


@dataclass(frozen=True, slots=True)
class Question:
    """A DNS question: (name, type)."""

    name: str
    record_type: RecordType

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))


@dataclass(slots=True)
class DnsResponse:
    """A DNS response carrying answers, referrals and authority data."""

    question: Question
    code: ResponseCode = ResponseCode.NOERROR
    answers: list[ResourceRecord] = field(default_factory=list)
    authority: list[ResourceRecord] = field(default_factory=list)
    additional: list[ResourceRecord] = field(default_factory=list)
    authoritative: bool = False
    from_cache: bool = False
    expires_at: float | None = None
    """Absolute instant (on the answering resolver's clock) until which the
    resolver will keep giving this answer from its cache; ``None`` when it
    is not caching it (SERVFAIL, a zero TTL, an authority's own response).
    Set only by :meth:`repro.dns.resolver.RecursiveResolver.resolve`, so a
    device can bound what it derives from the answer without ever reading
    the resolver's cache."""

    @property
    def is_referral(self) -> bool:
        """True when the response delegates to another zone (NS in authority)."""
        return (
            self.code == ResponseCode.NOERROR
            and not self.answers
            and any(r.record_type == RecordType.NS for r in self.authority)
        )

    @property
    def is_nxdomain(self) -> bool:
        return self.code == ResponseCode.NXDOMAIN

    def answer_data(self) -> list[str]:
        """The data strings of all answer records."""
        return [record.data for record in self.answers]
