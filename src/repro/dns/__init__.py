"""An in-process DNS substrate: zones, authoritative servers, caching resolver."""

from repro.dns.resolver import RecursiveResolver

__all__ = ["RecursiveResolver"]
