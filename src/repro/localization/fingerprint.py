"""Fingerprint databases: matching location cues to positions.

A map server that advertises beacon or image localization holds a fingerprint
database — a set of surveyed reference points, each with the cue signature
observed there.  Localization is nearest-neighbour matching in signature
space followed by weighted averaging of the best matches' positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.point import LatLng
from repro.localization.cues import BeaconCue, CueType, ImageCue, LocalizationResult

# Log-distance path-loss model parameters shared by the signal simulator in
# worldgen and the matcher here (they only need to be mutually consistent).
BEACON_TX_POWER_DBM = -40.0
BEACON_PATH_LOSS_EXPONENT = 2.2
BEACON_MIN_RSSI_DBM = -100.0


def rssi_at_distance(distance_meters: float) -> float:
    """Expected RSSI of a beacon at ``distance_meters`` (log-distance model)."""
    d = max(distance_meters, 0.5)
    return BEACON_TX_POWER_DBM - 10.0 * BEACON_PATH_LOSS_EXPONENT * math.log10(d)


@dataclass(frozen=True, slots=True)
class BeaconFingerprint:
    """The beacon signature observed at one surveyed reference point."""

    location: LatLng
    rssi_by_beacon: dict[str, float]


@dataclass
class BeaconFingerprintDatabase:
    """Matches beacon cues against surveyed beacon signatures."""

    fingerprints: list[BeaconFingerprint] = field(default_factory=list)
    k_neighbors: int = 3

    def add(self, fingerprint: BeaconFingerprint) -> None:
        self.fingerprints.append(fingerprint)

    def __len__(self) -> int:
        return len(self.fingerprints)

    def localize(self, cue: BeaconCue, server_id: str) -> LocalizationResult | None:
        """Weighted k-nearest-neighbour localization in RSSI space."""
        if not self.fingerprints or not cue.readings:
            return None
        # Summed in the cue's reading order; over a set of beacon ids the
        # float rounding of the sum would follow PYTHONHASHSEED.
        readings = list(cue.reading_map().items())
        scored: list[tuple[float, int]] = []
        for position, fingerprint in enumerate(self.fingerprints):
            surveyed_rssi = fingerprint.rssi_by_beacon.get
            total = 0.0
            common = 0
            for beacon, rssi in readings:
                surveyed = surveyed_rssi(beacon)
                if surveyed is not None:
                    total += (rssi - surveyed) ** 2
                    common += 1
            if not common:
                continue
            # RMS difference over the shared beacons, penalising sparse
            # overlap so signatures sharing more beacons win.
            overlap_penalty = 10.0 * (len(readings) - common)
            scored.append((math.sqrt(total / common) + overlap_penalty, position))
        if not scored:
            return None
        scored.sort()
        best = [(distance, self.fingerprints[position]) for distance, position in scored[: self.k_neighbors]]

        weights = [1.0 / (distance + 1e-3) for distance, _ in best]
        total_weight = sum(weights)
        lat = sum(w * fp.location.latitude for w, (_, fp) in zip(weights, best)) / total_weight
        lng = sum(w * fp.location.longitude for w, (_, fp) in zip(weights, best)) / total_weight
        estimate = LatLng(lat, lng)

        # Accuracy: spread of the matched fingerprints around the estimate.
        spread = max(estimate.distance_to(fp.location) for _, fp in best)
        accuracy = max(1.0, spread)
        mean_distance = sum(d for d, _ in best) / len(best)
        confidence = 1.0 / (1.0 + mean_distance / 10.0)
        return LocalizationResult(
            server_id=server_id,
            location=estimate,
            accuracy_meters=accuracy,
            confidence=min(1.0, confidence),
            cue_type=CueType.BEACON,
        )


@dataclass(frozen=True)
class ImageFingerprint:
    """The image descriptor captured at one surveyed reference point."""

    location: LatLng
    descriptor: tuple[float, ...]
    heading_degrees: float | None = None


_ImageReference = tuple[np.ndarray, tuple[int, ...], float]
"""A descriptor as a float array, with its shape and its norm."""


@dataclass
class ImageFingerprintDatabase:
    """Matches image cues against surveyed visual descriptors (cosine similarity)."""

    fingerprints: list[ImageFingerprint] = field(default_factory=list)
    k_neighbors: int = 3
    min_similarity: float = 0.2
    _references: list[_ImageReference] = field(init=False, repr=False, compare=False)
    """Derived once when a fingerprint is registered; index-aligned with
    ``fingerprints``."""

    def __post_init__(self) -> None:
        self._references = [self._reference(fingerprint) for fingerprint in self.fingerprints]

    @staticmethod
    def _reference(fingerprint: ImageFingerprint) -> _ImageReference:
        descriptor = np.asarray(fingerprint.descriptor, dtype=float)
        return descriptor, descriptor.shape, float(np.linalg.norm(descriptor))

    def add(self, fingerprint: ImageFingerprint) -> None:
        self.fingerprints.append(fingerprint)
        self._references.append(self._reference(fingerprint))

    def __len__(self) -> int:
        return len(self.fingerprints)

    def localize(self, cue: ImageCue, server_id: str) -> LocalizationResult | None:
        if not self.fingerprints:
            return None
        query = cue.as_array()
        query_norm = float(np.linalg.norm(query))
        if query_norm < 1e-12:
            return None

        # One dot product per reference, not one matrix product: whether
        # ``gemv`` rounds like ``ddot`` depends on the BLAS build.
        query_shape = query.shape
        scored: list[tuple[float, int]] = []
        for position, (reference, shape, norm) in enumerate(self._references):
            if shape != query_shape:
                continue
            denom = query_norm * norm
            if denom < 1e-12:
                continue
            scored.append((-float(query @ reference / denom), position))
        if not scored:
            return None
        scored.sort()
        best = [
            (-negated, self.fingerprints[position])
            for negated, position in scored[: self.k_neighbors]
            if -negated >= self.min_similarity
        ]
        if not best:
            return None

        weights = [max(similarity, 1e-3) for similarity, _ in best]
        total_weight = sum(weights)
        lat = sum(w * fp.location.latitude for w, (_, fp) in zip(weights, best)) / total_weight
        lng = sum(w * fp.location.longitude for w, (_, fp) in zip(weights, best)) / total_weight
        estimate = LatLng(lat, lng)
        spread = max(estimate.distance_to(fp.location) for _, fp in best)
        top_similarity = best[0][0]
        headings = [fp.heading_degrees for _, fp in best if fp.heading_degrees is not None]
        return LocalizationResult(
            server_id=server_id,
            location=estimate,
            accuracy_meters=max(0.5, spread),
            confidence=min(1.0, max(0.0, top_similarity)),
            cue_type=CueType.IMAGE,
            heading_degrees=headings[0] if headings else None,
        )


@dataclass
class FiducialRegistry:
    """Known fiducial tags and their surveyed positions."""

    tags: dict[str, LatLng] = field(default_factory=dict)

    def add(self, tag_id: str, location: LatLng) -> None:
        self.tags[tag_id] = location

    def __len__(self) -> int:
        return len(self.tags)

    def localize(self, tag_id: str, offset_east: float, offset_north: float, server_id: str) -> LocalizationResult | None:
        anchor = self.tags.get(tag_id)
        if anchor is None:
            return None
        # Apply the camera offset from the tag.
        moved = anchor.destination(90.0, offset_east).destination(0.0, offset_north)
        return LocalizationResult(
            server_id=server_id,
            location=moved,
            accuracy_meters=0.3,
            confidence=0.98,
            cue_type=CueType.FIDUCIAL,
        )
