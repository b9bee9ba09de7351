"""Map servers: per-organization maps with services and access policies."""

from repro.mapserver.server import MapServer

__all__ = ["MapServer"]
