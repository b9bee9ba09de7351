"""Per-service access-control policies for map servers.

Section 5.3: "map providers in OpenFLAME can control access to their data and
services in fine-grained ways as they can implement separate authentication
processes for each of the services and map data."  Three control levels are
modelled exactly as the paper describes:

* **User-level** — e.g. only users who authenticate with the university's
  email domain get fine-grained map data.
* **Service-level** — e.g. tiles for everyone, localization only for people
  with physical access (a token).
* **Application-level** — e.g. localization only for requests from the campus
  navigation application.

Additionally, individual map elements can be marked private via a tag and
are filtered out of responses for principals without data access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.mapserver.auth import Credential
from repro.osm.elements import TAG_PRIVACY, Node


class ServiceName(str, Enum):
    """The base location-based services a map server can expose (Section 4)."""

    GEOCODE = "geocode"
    REVERSE_GEOCODE = "reverse_geocode"
    SEARCH = "search"
    ROUTING = "routing"
    LOCALIZATION = "localization"
    TILES = "tiles"


class AccessDenied(Exception):
    """Raised when a request fails the map server's policy checks."""

    def __init__(self, service: ServiceName, reason: str):
        super().__init__(f"access to {service.value} denied: {reason}")
        self.service = service
        self.reason = reason


@dataclass
class ServiceRule:
    """The policy for one service.

    A request passes if it satisfies *all* configured constraints.  An empty
    rule allows everyone (the default for a fully public map server).
    """

    allowed_email_domains: set[str] = field(default_factory=set)
    allowed_applications: set[str] = field(default_factory=set)
    required_tokens: set[str] = field(default_factory=set)
    allow_anonymous: bool = True

    def evaluate(self, credential: Credential) -> str | None:
        """None if allowed, otherwise the reason the request is denied."""
        if not self.allow_anonymous and credential.is_anonymous:
            return "anonymous access is not permitted"
        if self.allowed_email_domains:
            domain = credential.email_domain
            if domain is None or domain not in self.allowed_email_domains:
                return "email domain is not authorised"
        if self.allowed_applications:
            if credential.application_id not in self.allowed_applications:
                return "application is not authorised"
        if self.required_tokens:
            if not self.required_tokens & set(credential.tokens):
                return "a required access token is missing"
        return None


@dataclass
class AccessPolicy:
    """The complete policy of one map server."""

    rules: dict[ServiceName, ServiceRule] = field(default_factory=dict)
    default_rule: ServiceRule = field(default_factory=ServiceRule)
    private_data_domains: set[str] = field(default_factory=set)
    private_data_tokens: set[str] = field(default_factory=set)
    checks_performed: int = field(default=0, init=False)

    def restrict_to_domain(self, service: ServiceName, domain: str) -> None:
        """User-level control: only users from ``domain`` may use ``service``."""
        rule = self.rules.setdefault(service, ServiceRule(allow_anonymous=False))
        rule.allow_anonymous = False
        rule.allowed_email_domains.add(domain.lower())

    def restrict_to_application(self, service: ServiceName, application_id: str) -> None:
        """Application-level control: only ``application_id`` may use ``service``."""
        rule = self.rules.setdefault(service, ServiceRule())
        rule.allowed_applications.add(application_id)

    def require_token(self, service: ServiceName, token: str) -> None:
        """Service-level control: ``service`` requires a bearer token."""
        rule = self.rules.setdefault(service, ServiceRule())
        rule.required_tokens.add(token)

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------
    def check(self, service: ServiceName, credential: Credential) -> None:
        """Raise :class:`AccessDenied` if ``credential`` may not use ``service``."""
        self.checks_performed += 1
        rule = self.rules.get(service, self.default_rule)
        reason = rule.evaluate(credential)
        if reason is not None:
            raise AccessDenied(service, reason)

    def allows(self, service: ServiceName, credential: Credential) -> bool:
        """Non-raising variant of :meth:`check`."""
        try:
            self.check(service, credential)
        except AccessDenied:
            return False
        return True

    # ------------------------------------------------------------------
    # Data-level filtering
    # ------------------------------------------------------------------
    def can_see_private_data(self, credential: Credential) -> bool:
        """True if the principal may see elements tagged private."""
        if not self.private_data_domains and not self.private_data_tokens:
            return True
        domain = credential.email_domain
        if domain is not None and domain in self.private_data_domains:
            return True
        if self.private_data_tokens & set(credential.tokens):
            return True
        return False

    def node_filter(self, credential: Credential) -> Callable[[Node], bool] | None:
        """The per-node visibility test for ``credential``: ``None`` when the
        principal sees every node, else a predicate that is false for
        private-tagged ones.  Services apply it while ranking, before their
        ``limit`` cut."""
        if self.can_see_private_data(credential):
            return None
        return _is_public

    def filter_nodes(self, nodes: list[Node], credential: Credential) -> list[Node]:
        """Drop private-tagged nodes for principals without data access."""
        visible = self.node_filter(credential)
        if visible is None:
            return nodes
        return [node for node in nodes if visible(node)]


def _is_public(node: Node) -> bool:
    return node.tags.get(TAG_PRIVACY) != "private"
