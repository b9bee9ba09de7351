"""Federated client-side location-based services (Section 5.2 of the paper)."""

from repro.services.context import FederationContext, RequestOutcome
from repro.services.geocode import (
    FederatedGeocodeResult,
    FederatedGeocoder,
    FederatedReverseGeocodeResult,
)
from repro.services.localization import FederatedLocalizationResult, FederatedLocalizer
from repro.services.routing import (
    FederatedRouteResult,
    FederatedRouter,
    FederatedRoutingError,
)
from repro.services.search import FederatedSearch, FederatedSearchResult
from repro.services.tiles import FederatedTileClient, FederatedViewport

__all__ = [
    "FederatedGeocodeResult",
    "FederatedGeocoder",
    "FederatedLocalizationResult",
    "FederatedLocalizer",
    "FederatedReverseGeocodeResult",
    "FederatedRouteResult",
    "FederatedRouter",
    "FederatedRoutingError",
    "FederatedSearch",
    "FederatedSearchResult",
    "FederatedTileClient",
    "FederatedViewport",
    "FederationContext",
    "RequestOutcome",
]
