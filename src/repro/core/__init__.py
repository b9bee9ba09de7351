"""Core public API: federation bootstrap and the OpenFLAME client."""

from repro.core.client import OpenFlameClient
from repro.core.config import FederationConfig
from repro.core.errors import FederationConfigError, OpenFlameError
from repro.core.federation import Federation

__all__ = [
    "Federation",
    "FederationConfig",
    "FederationConfigError",
    "OpenFlameClient",
    "OpenFlameError",
]
