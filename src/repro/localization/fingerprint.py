"""Fingerprint databases: matching location cues to positions.

A map server that advertises beacon or image localization holds a fingerprint
database — a set of surveyed reference points, each with the cue signature
observed there.  Localization is nearest-neighbour matching in signature
space followed by weighted averaging of the best matches' positions.

**Nominate wide, score exactly.**  A database surveys hundreds of references
and keeps ``k_neighbors`` of them, so each ``localize`` is filter-and-refine:
one stacked numpy pass gives every reference an *approximate* score, every
reference within a margin of the ``k``-th best approximate score is nominated,
and only the nominees are scored by the per-row expressions
(:func:`_beacon_distance`, :func:`_image_similarity`) whose floats are the
answer.  No float of the stacked pass reaches a ``LocalizationResult``; it
differs from the per-row float only by rounding (``gemv`` against ``ddot``,
column order against cue order), and the margins absorb that:

* If ``|approx - exact| <= delta`` for every reference, fewer than ``k``
  references have an exact score strictly better than the ``k``-th best
  exact score ``T``, so the ``k``-th best approximate score is no better than
  ``T`` by more than ``delta``, and every reference scoring ``T`` or better —
  the exact top ``k`` with all its ties — is within ``2 * delta`` of it.
* Image: both sides are a ``d``-term dot product over a product of norms,
  ``delta ~ 2 * d * 2**-53`` on a cosine (4e-15 at ``d = 16``).
  ``_IMAGE_MARGIN = 1e-9`` is five orders wider and grows with ``d`` past
  1000 components.
* Beacon: both sides sum at most ``R`` non-negative squared differences (no
  cancellation), ``delta ~ R * 2**-53`` relative (1e-12 on a score of 10^3).
  ``_BEACON_MARGIN = 1e-6`` is relative to the score above 1 and absolute
  below it.
* A reference the comparison cannot prove worse (a NaN, a tie at the margin)
  is nominated.  Inputs the argument does not cover take the full scan: no
  more than ``k`` references, a reference under the ``denom < 1e-12`` floor
  for this query, norms whose product overflows, a reference sharing no
  beacon with the cue, non-finite survey data, a descriptor shape no stack
  holds.

The stacks are derived from the references and held on the database
(:meth:`repro.simulation.lru.MutableSource.derive`): built on the first
``localize`` after the references changed, bounded by the database they
mirror.  ``fingerprints`` is a tuple and :meth:`add` the one way to change
it, so no edit can leave a stack behind.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.point import LatLng
from repro.localization.cues import BeaconCue, CueType, ImageCue, LocalizationResult
from repro.simulation.lru import MutableSource
from repro.simulation.metrics import float_sum

# Log-distance path-loss model parameters shared by the signal simulator in
# worldgen and the matcher here (they only need to be mutually consistent).
BEACON_TX_POWER_DBM = -40.0
BEACON_PATH_LOSS_EXPONENT = 2.2
BEACON_MIN_RSSI_DBM = -100.0


_IMAGE_MARGIN = 1e-9
_BEACON_MARGIN = 1e-6


def _nominees(approx: np.ndarray, k: int, margin: float, unit: float) -> list[int]:
    """Indices of ``approx`` (lower is better, more than ``k`` entries) not
    provably worse than the ``k``-th best by more than ``margin``, which is
    relative to the score above ``unit`` and to ``unit`` below it."""
    kth = float(np.partition(approx, k - 1)[k - 1])
    return np.flatnonzero(~(approx > kth + margin * max(unit, abs(kth)))).tolist()


def _positive_int(name: str, value: object) -> None:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def rssi_at_distance(distance_meters: float) -> float:
    """Expected RSSI of a beacon at ``distance_meters`` (log-distance model)."""
    d = max(distance_meters, 0.5)
    return BEACON_TX_POWER_DBM - 10.0 * BEACON_PATH_LOSS_EXPONENT * math.log10(d)


@dataclass(frozen=True, slots=True)
class BeaconFingerprint:
    """The beacon signature observed at one surveyed reference point."""

    location: LatLng
    rssi_by_beacon: dict[str, float]


def _beacon_distance(readings: list[tuple[str, float]], rssi_by_beacon: dict[str, float]) -> float | None:
    """RMS difference over the beacons a cue shares with one surveyed
    signature, penalising sparse overlap so signatures sharing more beacons
    win; ``None`` when they share none.

    Summed in the cue's reading order; over a set of beacon ids the float
    rounding of the sum would follow PYTHONHASHSEED.
    """
    surveyed_rssi = rssi_by_beacon.get
    total = 0.0
    common = 0
    for beacon, rssi in readings:
        surveyed = surveyed_rssi(beacon)
        if surveyed is not None:
            total += (rssi - surveyed) ** 2
            common += 1
    if not common:
        return None
    return math.sqrt(total / common) + 10.0 * (len(readings) - common)


@dataclass(frozen=True, slots=True)
class _BeaconStack:
    """Every surveyed signature of a database as rows of one matrix."""

    columns: dict[str, int]
    """Beacon id -> column, in first-seen order."""
    surveyed: np.ndarray
    """One row per fingerprint: RSSI, 0 where it lacks the beacon."""
    present: np.ndarray
    """1.0 where the reference surveyed the beacon, else 0.0."""
    finite: bool

    @classmethod
    def build(cls, database: BeaconFingerprintDatabase) -> _BeaconStack:
        fingerprints = database.fingerprints
        columns: dict[str, int] = {}
        for fingerprint in fingerprints:
            for beacon in fingerprint.rssi_by_beacon:
                columns.setdefault(beacon, len(columns))
        surveyed = np.zeros((len(fingerprints), len(columns)))
        present = np.zeros_like(surveyed)
        for row, fingerprint in enumerate(fingerprints):
            for beacon, rssi in fingerprint.rssi_by_beacon.items():
                surveyed[row, columns[beacon]] = rssi
                present[row, columns[beacon]] = 1.0
        return cls(columns, surveyed, present, bool(np.isfinite(surveyed).all()))

    def approximate(self, readings: list[tuple[str, float]]) -> np.ndarray | None:
        """:func:`_beacon_distance` of every row to within rounding, or
        ``None`` when the survey holds a non-finite value or some row shares
        no beacon with the cue."""
        if not self.finite:
            return None
        columns = self.columns
        observed = [0.0] * len(columns)
        mask = [0.0] * len(columns)
        for beacon, rssi in readings:
            column = columns.get(beacon)
            if column is not None:
                observed[column] = rssi
                mask[column] = 1.0
        observed, mask = np.array(observed), np.array(mask)
        common = self.present @ mask
        if common.min() < 1.0:
            return None
        difference = self.present * observed
        np.subtract(self.surveyed, difference, out=difference)
        np.multiply(difference, difference, out=difference)
        score = difference @ mask
        score /= common
        np.sqrt(score, out=score)
        score += (len(readings) - common) * 10.0
        return score


@dataclass
class BeaconFingerprintDatabase(MutableSource):
    """Matches beacon cues against surveyed beacon signatures."""

    fingerprints: tuple[BeaconFingerprint, ...] = ()
    """The surveyed references (any iterable is taken as a tuple)."""
    k_neighbors: int = 3

    def __post_init__(self) -> None:
        _positive_int("k_neighbors", self.k_neighbors)
        self.fingerprints = tuple(self.fingerprints)

    def add(self, fingerprint: BeaconFingerprint) -> None:
        self.fingerprints += (fingerprint,)
        self._changed()

    def __len__(self) -> int:
        return len(self.fingerprints)

    def _approximate(self, readings: list[tuple[str, float]]) -> np.ndarray | None:
        """:meth:`_BeaconStack.approximate` on the current references."""
        return self.derive("stack", _BeaconStack.build).approximate(readings)

    def _nominate(self, readings: list[tuple[str, float]]) -> Iterable[int]:
        """Positions of every fingerprint that may be among the ``k_neighbors``
        nearest to ``readings`` (all of them for a degenerate input)."""
        approx = self._approximate(readings)
        if approx is None or len(approx) <= self.k_neighbors:
            return range(len(self.fingerprints))
        return _nominees(approx, self.k_neighbors, _BEACON_MARGIN, 1.0)

    def localize(self, cue: BeaconCue, server_id: str) -> LocalizationResult | None:
        """Weighted k-nearest-neighbour localization in RSSI space."""
        if not self.fingerprints or not cue.readings:
            return None
        readings = list(cue.reading_map().items())
        fingerprints = self.fingerprints
        scored: list[tuple[float, int]] = []
        for position in self._nominate(readings):
            distance = _beacon_distance(readings, fingerprints[position].rssi_by_beacon)
            if distance is not None:
                scored.append((distance, position))
        if not scored:
            return None
        scored.sort()
        best = [(distance, self.fingerprints[position]) for distance, position in scored[: self.k_neighbors]]

        weights = [1.0 / (distance + 1e-3) for distance, _ in best]
        total_weight = float_sum(weights)
        lat = float_sum(w * fp.location.latitude for w, (_, fp) in zip(weights, best)) / total_weight
        lng = float_sum(w * fp.location.longitude for w, (_, fp) in zip(weights, best)) / total_weight
        estimate = LatLng(lat, lng)

        # Accuracy: spread of the matched fingerprints around the estimate.
        spread = max(estimate.distance_to(fp.location) for _, fp in best)
        accuracy = max(1.0, spread)
        mean_distance = float_sum(d for d, _ in best) / len(best)
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


def _image_similarity(query: np.ndarray, query_norm: float, reference: _ImageReference) -> float | None:
    """Cosine similarity of ``query`` to one reference; ``None`` for a
    reference of another shape or a vanishing norm product.

    One dot product per reference, not one matrix product: whether ``gemv``
    rounds like ``ddot`` depends on the BLAS build.
    """
    descriptor, shape, norm = reference
    if shape != query.shape:
        return None
    denom = query_norm * norm
    if denom < 1e-12:
        return None
    return float(query @ descriptor / denom)


def _image_references(database: ImageFingerprintDatabase) -> list[_ImageReference]:
    references = []
    for fingerprint in database.fingerprints:
        descriptor = np.asarray(fingerprint.descriptor, dtype=float)
        references.append((descriptor, descriptor.shape, float(np.linalg.norm(descriptor))))
    return references


_NORM_PRODUCT_CEILING = 1e300
"""Below this no partial sum of ``query @ reference`` overflows."""


@dataclass(frozen=True, slots=True)
class _ImageStack:
    """The references of a database as unit rows, one matrix per descriptor
    length."""

    groups: dict[tuple[int, ...], tuple[list[int], np.ndarray, float, float, float]]
    """Shape -> the positions of its references, their negated unit
    descriptors as rows, their smallest and largest norm, and the margin."""

    @classmethod
    def build(cls, database: ImageFingerprintDatabase) -> _ImageStack:
        """A zero norm is under the ``denom`` floor for every query and is
        left out; a length with a non-finite norm gets no group."""
        references = database._references
        positions_by_shape: dict[tuple[int, ...], list[int]] = {}
        for position, (_, shape, norm) in enumerate(references):
            if len(shape) == 1 and norm != 0.0:
                positions_by_shape.setdefault(shape, []).append(position)
        groups = {}
        for shape, positions in positions_by_shape.items():
            norms = np.array([references[position][2] for position in positions])
            if not np.isfinite(norms).all():
                continue
            descriptors = np.array([references[position][0] for position in positions])
            margin = _IMAGE_MARGIN * max(1.0, shape[0] / 1000.0)
            groups[shape] = (positions, -descriptors / norms[:, None], float(norms.min()), float(norms.max()), margin)
        return cls(groups)

    def approximate(self, query: np.ndarray, query_norm: float) -> tuple[list[int], np.ndarray, float] | None:
        """``(positions, -similarity * query_norm to within rounding, margin)``
        over every reference :func:`_image_similarity` scores for this query,
        or ``None`` when no group holds the query's shape, a reference is
        under the ``denom`` floor for this query or a norm product nears
        overflow."""
        group = self.groups.get(query.shape)
        if group is None:
            return None
        positions, negated_units, min_norm, max_norm, margin = group
        if not (1e-12 <= query_norm * min_norm and query_norm * max_norm <= _NORM_PRODUCT_CEILING):
            return None
        return positions, negated_units @ query, margin


@dataclass
class ImageFingerprintDatabase(MutableSource):
    """Matches image cues against surveyed visual descriptors (cosine similarity)."""

    fingerprints: tuple[ImageFingerprint, ...] = ()
    """The surveyed references (any iterable is taken as a tuple)."""
    k_neighbors: int = 3
    min_similarity: float = 0.2

    def __post_init__(self) -> None:
        _positive_int("k_neighbors", self.k_neighbors)
        if not math.isfinite(self.min_similarity):
            raise ValueError(f"min_similarity must be finite, got {self.min_similarity!r}")
        self.fingerprints = tuple(self.fingerprints)

    @property
    def _references(self) -> list[_ImageReference]:
        """Each descriptor as an array with its shape and norm, index-aligned
        with ``fingerprints``."""
        return self.derive("references", _image_references)

    def add(self, fingerprint: ImageFingerprint) -> None:
        self.fingerprints += (fingerprint,)
        self._changed()

    def __len__(self) -> int:
        return len(self.fingerprints)

    def _approximate(self, query: np.ndarray, query_norm: float) -> tuple[list[int], np.ndarray, float] | None:
        """:meth:`_ImageStack.approximate` on the current references."""
        return self.derive("stack", _ImageStack.build).approximate(query, query_norm)

    def _nominate(self, query: np.ndarray, query_norm: float) -> Iterable[int]:
        """Positions of every reference that may be among the ``k_neighbors``
        most similar to ``query`` (all of them for a degenerate input)."""
        approximated = self._approximate(query, query_norm)
        if approximated is not None:
            positions, approx, margin = approximated
            if len(positions) > self.k_neighbors:
                return [positions[index] for index in _nominees(approx, self.k_neighbors, margin, query_norm)]
        return range(len(self._references))

    def localize(self, cue: ImageCue, server_id: str) -> LocalizationResult | None:
        if not self.fingerprints:
            return None
        query = cue.as_array()
        query_norm = float(np.linalg.norm(query))
        if query_norm < 1e-12:
            return None

        references = self._references
        scored: list[tuple[float, int]] = []
        for position in self._nominate(query, query_norm):
            similarity = _image_similarity(query, query_norm, references[position])
            if similarity is not None:
                scored.append((-similarity, position))
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
        total_weight = float_sum(weights)
        lat = float_sum(w * fp.location.latitude for w, (_, fp) in zip(weights, best)) / total_weight
        lng = float_sum(w * fp.location.longitude for w, (_, fp) in zip(weights, best)) / total_weight
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
