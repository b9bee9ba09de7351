"""The localization service exposed by one map server.

Section 5.2: "The map servers accept location cues, localize the device
within their map, and return the results to the client."  Each server
advertises the localization technologies it supports (the cue types it can
consume); the federated client only sends it cues of those types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.localization.cues import (
    BeaconCue,
    CueBundle,
    CueType,
    FiducialCue,
    GnssCue,
    ImageCue,
    LocalizationResult,
)
from repro.localization.fingerprint import (
    BeaconFingerprintDatabase,
    FiducialRegistry,
    ImageFingerprintDatabase,
)
from repro.osm.mapdata import MapData, MapDataError


@dataclass
class LocalizationService:
    """Cue-based localization within one map."""

    map_data: MapData
    server_id: str
    beacon_db: BeaconFingerprintDatabase = field(default_factory=BeaconFingerprintDatabase)
    image_db: ImageFingerprintDatabase = field(default_factory=ImageFingerprintDatabase)
    fiducials: FiducialRegistry = field(default_factory=FiducialRegistry)
    accepts_gnss: bool = False
    queries_served: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def advertised_technologies(self) -> set[CueType]:
        """The cue types this server can localize against."""
        technologies: set[CueType] = set()
        if len(self.beacon_db):
            technologies.add(CueType.BEACON)
        if len(self.image_db):
            technologies.add(CueType.IMAGE)
        if len(self.fiducials):
            technologies.add(CueType.FIDUCIAL)
        if self.accepts_gnss:
            technologies.add(CueType.GNSS)
        return technologies

    # ------------------------------------------------------------------
    # Localization
    # ------------------------------------------------------------------
    def localize(self, cues: CueBundle) -> list[LocalizationResult]:
        """Localize using every advertised technology for which a cue is present.

        Returns all candidate results (possibly from multiple technologies);
        the client-side selector ranks them together with other servers'.
        """
        self.queries_served += 1
        results: list[LocalizationResult] = []
        technologies = self.advertised_technologies()

        if CueType.FIDUCIAL in technologies:
            for fiducial in cues.fiducials:
                result = self._localize_fiducial(fiducial)
                if result is not None:
                    results.append(result)

        if CueType.IMAGE in technologies and cues.image is not None:
            result = self._localize_image(cues.image)
            if result is not None:
                results.append(result)

        if CueType.BEACON in technologies and cues.beacons is not None:
            result = self._localize_beacon(cues.beacons)
            if result is not None:
                results.append(result)

        if CueType.GNSS in technologies and cues.gnss is not None:
            results.append(self._localize_gnss(cues.gnss))

        # Only return results that fall within (or near) this map's coverage —
        # a server should not claim to know where a device is outside its map.
        return [r for r in results if self._plausibly_in_coverage(r)]

    # ------------------------------------------------------------------
    # Per-technology helpers
    # ------------------------------------------------------------------
    def _localize_beacon(self, cue: BeaconCue) -> LocalizationResult | None:
        return self.beacon_db.localize(cue, self.server_id)

    def _localize_image(self, cue: ImageCue) -> LocalizationResult | None:
        return self.image_db.localize(cue, self.server_id)

    def _localize_fiducial(self, cue: FiducialCue) -> LocalizationResult | None:
        return self.fiducials.localize(
            cue.tag_id, cue.offset_east_meters, cue.offset_north_meters, self.server_id
        )

    def _localize_gnss(self, cue: GnssCue) -> LocalizationResult:
        return LocalizationResult(
            server_id=self.server_id,
            location=cue.location,
            accuracy_meters=cue.accuracy_meters,
            confidence=0.6,
            cue_type=CueType.GNSS,
        )

    def _plausibly_in_coverage(self, result: LocalizationResult) -> bool:
        try:
            coverage = self.map_data.coverage
        except MapDataError:
            # No nodes and no explicit polygon: nothing to hold the fix against.
            return True
        if coverage.contains(result.location):
            return True
        # Allow results slightly outside the polygon (fuzzy boundaries).
        return coverage.bounding_box.expanded(50.0).contains(result.location)
