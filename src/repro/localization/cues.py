"""Location cues: the sensor observations a client sends for localization.

Section 5.2 (Localization): "the client sends them 'location cues' collected
by the device sensors — images, beacon signals, fiduciary tag scans, etc.
The location cue sent to the map server depends on the localization
technology advertised by the server."

We model three cue families that cover the paper's examples:

* **Beacon cues** — RSSI readings from BLE/WiFi beacons with known ids.
* **Image cues** — a compact feature vector standing in for an image
  descriptor (visual positioning), matched against a fingerprint database.
* **Fiducial cues** — the observed id and relative offset of a printed tag
  with a precisely known position.

A GNSS (GPS-like) cue is included as the coarse outdoor fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.geometry.point import LatLng


class CueType(str, Enum):
    """The localization technologies a map server may advertise (Section 5.2)."""

    GNSS = "gnss"
    BEACON = "beacon"
    IMAGE = "image"
    FIDUCIAL = "fiducial"


@dataclass(frozen=True, slots=True)
class GnssCue:
    """A coarse satellite fix with an accuracy estimate."""

    location: LatLng
    accuracy_meters: float = 10.0

    @property
    def cue_type(self) -> CueType:
        return CueType.GNSS


@dataclass(frozen=True, slots=True)
class BeaconReading:
    """One received beacon: its identifier and signal strength in dBm."""

    beacon_id: str
    rssi_dbm: float

    def __post_init__(self) -> None:
        if not self.beacon_id:
            raise ValueError("beacon_id must not be empty")
        if not math.isfinite(self.rssi_dbm):
            raise ValueError(f"rssi_dbm must be finite, got {self.rssi_dbm!r} for beacon {self.beacon_id!r}")


@dataclass(frozen=True, slots=True)
class BeaconCue:
    """A set of simultaneous beacon readings."""

    readings: tuple[BeaconReading, ...]

    @property
    def cue_type(self) -> CueType:
        return CueType.BEACON

    def reading_map(self) -> dict[str, float]:
        return {reading.beacon_id: reading.rssi_dbm for reading in self.readings}


@dataclass(frozen=True)
class ImageCue:
    """A visual descriptor of what the camera currently sees.

    The descriptor is an arbitrary-length float vector; real systems would use
    a learned global image embedding, here world generators synthesise
    location-dependent vectors with controllable noise.
    """

    descriptor: tuple[float, ...]

    def __post_init__(self) -> None:
        for index, component in enumerate(self.descriptor):
            if not math.isfinite(component):
                raise ValueError(f"descriptor must be finite, got {component!r} at index {index}")

    @property
    def cue_type(self) -> CueType:
        return CueType.IMAGE

    def as_array(self) -> np.ndarray:
        return np.asarray(self.descriptor, dtype=float)


@dataclass(frozen=True, slots=True)
class FiducialCue:
    """An observed fiducial tag and the camera's offset from it in meters."""

    tag_id: str
    offset_east_meters: float = 0.0
    offset_north_meters: float = 0.0

    @property
    def cue_type(self) -> CueType:
        return CueType.FIDUCIAL


@dataclass(frozen=True, slots=True)
class LocalizationResult:
    """A map server's answer to a localization request."""

    server_id: str
    location: LatLng
    accuracy_meters: float
    confidence: float
    cue_type: CueType
    heading_degrees: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError("confidence must be in [0, 1]")
        if self.accuracy_meters < 0:
            raise ValueError("accuracy must be non-negative")


@dataclass
class CueBundle:
    """Everything a client has sensed at one instant, grouped by cue type."""

    gnss: GnssCue | None = None
    beacons: BeaconCue | None = None
    image: ImageCue | None = None
    fiducials: list[FiducialCue] = field(default_factory=list)

    def available_types(self) -> set[CueType]:
        types: set[CueType] = set()
        if self.gnss is not None:
            types.add(CueType.GNSS)
        if self.beacons is not None and self.beacons.readings:
            types.add(CueType.BEACON)
        if self.image is not None:
            types.add(CueType.IMAGE)
        if self.fiducials:
            types.add(CueType.FIDUCIAL)
        return types
