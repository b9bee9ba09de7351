"""Core public API: federation bootstrap and the OpenFLAME client."""

from repro.core.client import OpenFlameClient
from repro.core.config import FederationConfig

__all__ = ["FederationConfig", "OpenFlameClient"]
