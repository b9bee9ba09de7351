"""Client-side selection and fusion of localization results.

Section 5.2: the client "might discover multiple overlapping servers or even
unrelated maps because of the coarseness of the discovery process... The
client then selects the best one by comparing these results with its own IMU
sensors or local SLAM algorithm.  The most plausible result is returned to
the application."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.localization.cues import CueType, LocalizationResult
from repro.localization.imu import DeadReckoningTracker, consistency_score

# Relative trust in each localization technology, used to break ties between
# results that are equally consistent with dead reckoning.
_TECHNOLOGY_PRIOR = {
    CueType.FIDUCIAL: 1.0,
    CueType.IMAGE: 0.9,
    CueType.BEACON: 0.75,
    CueType.GNSS: 0.5,
}


@dataclass(frozen=True, slots=True)
class ScoredResult:
    """A localization result with the client-side plausibility score attached."""

    result: LocalizationResult
    plausibility: float


@dataclass
class LocalizationSelector:
    """Scores candidate results and picks the most plausible one.

    The plausibility of a candidate combines (a) the server-reported
    confidence, (b) a prior on the localization technology, and (c) — when a
    dead-reckoning tracker is available — the candidate's consistency with
    the client's own motion estimate.  ``min_plausibility`` rejects results
    from unrelated maps outright.
    """

    min_plausibility: float = 0.05
    consistency_floor: float = 0.05

    def score(
        self,
        result: LocalizationResult,
        tracker: DeadReckoningTracker | None = None,
    ) -> float:
        """Plausibility of one candidate.

        Without a tracker the score is the server confidence weighted by a
        technology prior.  With a tracker the score is additionally *gated*
        by consistency with dead reckoning: a result far from where the
        device's own motion estimate says it is can only retain
        ``consistency_floor`` of its base score, no matter how confident the
        server was — this is what rejects answers from unrelated maps that
        the coarse discovery step swept in.
        """
        prior = _TECHNOLOGY_PRIOR.get(result.cue_type, 0.5)
        base = result.confidence * prior
        if tracker is None:
            return base
        consistency = consistency_score(tracker, result.location)
        gate = self.consistency_floor + (1.0 - self.consistency_floor) * consistency
        return base * gate

    def rank(
        self,
        results: list[LocalizationResult],
        tracker: DeadReckoningTracker | None = None,
    ) -> list[ScoredResult]:
        """All candidates scored and sorted, best first."""
        scored = [ScoredResult(r, self.score(r, tracker)) for r in results]
        scored.sort(key=lambda item: item.plausibility, reverse=True)
        return scored
