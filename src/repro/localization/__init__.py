"""Localization substrate: cues, fingerprint matching, dead reckoning, fusion."""

from repro.localization.cues import (
    BeaconCue,
    BeaconReading,
    CueBundle,
    CueType,
    FiducialCue,
    GnssCue,
    ImageCue,
    LocalizationResult,
    LocationCue,
)
from repro.localization.fingerprint import (
    BEACON_MIN_RSSI_DBM,
    BEACON_PATH_LOSS_EXPONENT,
    BEACON_TX_POWER_DBM,
    BeaconFingerprint,
    BeaconFingerprintDatabase,
    FiducialRegistry,
    ImageFingerprint,
    ImageFingerprintDatabase,
    rssi_at_distance,
)
from repro.localization.fusion import LocalizationSelector, ScoredResult
from repro.localization.imu import DeadReckoningTracker, MotionUpdate, consistency_score

__all__ = [
    "BEACON_MIN_RSSI_DBM",
    "BEACON_PATH_LOSS_EXPONENT",
    "BEACON_TX_POWER_DBM",
    "BeaconCue",
    "BeaconFingerprint",
    "BeaconFingerprintDatabase",
    "BeaconReading",
    "CueBundle",
    "CueType",
    "DeadReckoningTracker",
    "FiducialCue",
    "FiducialRegistry",
    "GnssCue",
    "ImageCue",
    "ImageFingerprint",
    "ImageFingerprintDatabase",
    "LocalizationResult",
    "LocalizationSelector",
    "LocationCue",
    "MotionUpdate",
    "ScoredResult",
    "consistency_score",
    "rssi_at_distance",
]
