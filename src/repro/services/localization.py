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
from repro.services.context import FederationContext, RequestOutcome

LOCALIZE_DISCOVERY_UNCERTAINTY_METERS = 150.0
"""The uncertainty of the coarse (GPS-grade) fix discovery searches
around."""


@dataclass(frozen=True, slots=True)
class FederatedLocalizationResult:
    """The selected fix plus every candidate considered."""

    best: ScoredResult | None
    candidates: tuple[ScoredResult, ...]
    servers_consulted: int
    dns_lookups: int
    outcome: RequestOutcome

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
        discovery = self.context.discover_at(coarse_location, LOCALIZE_DISCOVERY_UNCERTAINTY_METERS)

        available = cues.available_types()
        # Replicas serve the same map, so any live one tells us whether the
        # group can consume our cues; skip the request if not.  A target with
        # no live replica cannot be pre-filtered — the device only finds out
        # by paying the timeout.
        targets = [
            target
            for target in self.context.targets(discovery.server_ids)
            if (live := target.first_live) is None
            or live.advertised_localization_technologies() & available
        ]
        answers, served = self.context.fan_out(
            targets, lambda server: server.localize(cues, self.context.credential)
        )
        candidates: list[LocalizationResult] = [result for results in answers for result in results]

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
            servers_consulted=len(targets),
            dns_lookups=discovery.dns_lookups,
            outcome=RequestOutcome.of(served, discovery),
        )
