"""Top-level exception types for the OpenFLAME reproduction."""

from __future__ import annotations


class OpenFlameError(Exception):
    """Base class for errors raised by the federation layer."""


class FederationConfigError(OpenFlameError):
    """Raised for invalid federation configuration (duplicate servers, bad suffix)."""
