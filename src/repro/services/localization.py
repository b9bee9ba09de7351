"""Federated localization.

Section 5.2 (Localization): the client discovers map servers at its coarse
location, sends each one the location cues matching the technologies it
advertises, collects the candidate results, and selects the most plausible
one by comparing against its own dead-reckoning (IMU/SLAM) estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng
from repro.localization.cues import CueBundle, LocalizationResult
from repro.localization.fusion import LocalizationSelector, ScoredResult
from repro.localization.imu import DeadReckoningTracker
from repro.services.context import FederationContext
from repro.services.failover import TargetUnavailableError


@dataclass(frozen=True, slots=True)
class FederatedLocalizationResult:
    """The selected fix plus every candidate considered."""

    best: ScoredResult | None
    candidates: tuple[ScoredResult, ...]
    servers_consulted: int
    servers_answering: int
    dns_lookups: int

    @property
    def location(self) -> LatLng | None:
        return self.best.result.location if self.best is not None else None

    @property
    def accuracy_meters(self) -> float | None:
        return self.best.result.accuracy_meters if self.best is not None else None


@dataclass
class FederatedLocalizer:
    """Discover, fan out cues, and select the most plausible localization."""

    context: FederationContext
    selector: LocalizationSelector = field(default_factory=LocalizationSelector)
    discovery_uncertainty_meters: float = 150.0
    queries: int = field(default=0, init=False)

    def localize(
        self,
        coarse_location: LatLng,
        cues: CueBundle,
        tracker: DeadReckoningTracker | None = None,
    ) -> FederatedLocalizationResult:
        """Localize the device given a coarse position and its sensed cues.

        ``coarse_location`` is the ubiquitous (GPS-grade) position used only
        for discovery; the returned fix comes from whichever discovered map
        server produced the most plausible result.
        """
        self.queries += 1
        discovery = self.context.discover_at(coarse_location, self.discovery_uncertainty_meters)

        available = cues.available_types()
        candidates: list[LocalizationResult] = []
        servers_consulted = 0
        servers_answering = 0

        for target in self.context.targets(discovery.server_ids):
            # Replicas serve the same map, so any live one tells us whether
            # the group can consume our cues; skip the request if not.  A
            # target with no live replica cannot be pre-filtered — the
            # device only finds out by paying the timeout.
            live = next((server for _, server in target.candidates if server is not None), None)
            if live is not None and not (live.advertised_localization_technologies() & available):
                continue
            servers_consulted += 1
            try:
                results = self.context.request(
                    target, lambda server: server.localize(cues, self.context.credential)
                )
            except TargetUnavailableError:
                continue
            if results:
                servers_answering += 1
                candidates.extend(results)

        # The coarse (GNSS-like) fix is always a candidate of last resort, so
        # the outdoor case degrades gracefully to plain GPS behaviour.
        if cues.gnss is not None:
            candidates.append(
                LocalizationResult(
                    server_id="client.gnss",
                    location=cues.gnss.location,
                    accuracy_meters=cues.gnss.accuracy_meters,
                    confidence=0.6,
                    cue_type=cues.gnss.cue_type,
                )
            )

        ranked = self.selector.rank(candidates, tracker)
        best = ranked[0] if ranked and ranked[0].plausibility >= self.selector.min_plausibility else None
        return FederatedLocalizationResult(
            best=best,
            candidates=tuple(ranked),
            servers_consulted=servers_consulted,
            servers_answering=servers_answering,
            dns_lookups=discovery.dns_lookups,
        )
