"""Unit tests for the localization substrate (cues, fingerprints, fusion)."""

from __future__ import annotations

import random

import pytest

from repro.geometry.point import LatLng, LocalPoint
from repro.localization.cues import (
    BeaconCue,
    BeaconReading,
    CueBundle,
    CueType,
    FiducialCue,
    GnssCue,
    ImageCue,
    LocalizationResult,
)
from repro.localization.fingerprint import (
    BeaconFingerprint,
    BeaconFingerprintDatabase,
    FiducialRegistry,
    ImageFingerprint,
    ImageFingerprintDatabase,
    rssi_at_distance,
)
from repro.localization.fusion import LocalizationSelector
from repro.localization.imu import DeadReckoningTracker, MotionUpdate, consistency_score

ANCHOR = LatLng(40.44, -79.95)


class TestCues:
    def test_cue_types(self):
        assert GnssCue(ANCHOR).cue_type == CueType.GNSS
        assert BeaconCue((BeaconReading("b", -60.0),)).cue_type == CueType.BEACON
        assert ImageCue((1.0, 2.0)).cue_type == CueType.IMAGE
        assert FiducialCue("tag").cue_type == CueType.FIDUCIAL

    def test_bundle_available_types(self):
        bundle = CueBundle(gnss=GnssCue(ANCHOR), image=ImageCue((0.1, 0.2)))
        assert bundle.available_types() == {CueType.GNSS, CueType.IMAGE}

    def test_empty_beacon_cue_not_available(self):
        bundle = CueBundle(beacons=BeaconCue(()))
        assert CueType.BEACON not in bundle.available_types()

    def test_result_validation(self):
        with pytest.raises(ValueError):
            LocalizationResult("s", ANCHOR, accuracy_meters=1.0, confidence=1.5, cue_type=CueType.GNSS)
        with pytest.raises(ValueError):
            LocalizationResult("s", ANCHOR, accuracy_meters=-1.0, confidence=0.5, cue_type=CueType.GNSS)

    @pytest.mark.parametrize("rssi", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rssi_is_rejected_at_construction(self, rssi):
        """One bad sensor value must not reach a map server's kernel (it
        used to surface as ``latitude nan outside [-90, 90]`` or a
        ``ZeroDivisionError`` out of ``OpenFlameClient.localize``)."""
        with pytest.raises(ValueError, match=r"rssi_dbm must be finite, got (nan|-?inf) for beacon 'b0'"):
            BeaconReading("b0", rssi)

    def test_empty_beacon_id_is_rejected(self):
        with pytest.raises(ValueError, match="beacon_id"):
            BeaconReading("", -60.0)

    @pytest.mark.parametrize("component", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_descriptor_is_rejected_at_construction(self, component):
        """It used to return ``None`` behind a numpy ``RuntimeWarning``."""
        with pytest.raises(ValueError, match=r"descriptor must be finite, got (nan|-?inf) at index 1"):
            ImageCue((0.5, component, 0.25))

    def test_reading_map(self):
        cue = BeaconCue((BeaconReading("a", -50.0), BeaconReading("b", -70.0)))
        assert cue.reading_map() == {"a": -50.0, "b": -70.0}


class TestRssiModel:
    def test_rssi_decreases_with_distance(self):
        assert rssi_at_distance(1.0) > rssi_at_distance(10.0) > rssi_at_distance(50.0)

    def test_rssi_clamped_near_zero_distance(self):
        assert rssi_at_distance(0.0) == rssi_at_distance(0.4)


def _beacon_world() -> tuple[dict[str, LocalPoint], BeaconFingerprintDatabase]:
    """Four beacons at the corners of a 20x20 m room, surveyed on a 2 m grid."""
    beacons = {
        "b0": LocalPoint(0.0, 0.0, "room"),
        "b1": LocalPoint(20.0, 0.0, "room"),
        "b2": LocalPoint(0.0, 20.0, "room"),
        "b3": LocalPoint(20.0, 20.0, "room"),
    }
    database = BeaconFingerprintDatabase()
    from repro.geometry.projection import LocalProjection

    projection = LocalProjection(ANCHOR, frame="room")
    for xi in range(0, 21, 2):
        for yi in range(0, 21, 2):
            point = LocalPoint(float(xi), float(yi), "room")
            signature = {
                beacon_id: rssi_at_distance(point.distance_to(position))
                for beacon_id, position in beacons.items()
            }
            database.add(BeaconFingerprint(projection.to_geographic(point), signature))
    return beacons, database


class TestBeaconFingerprinting:
    def test_localizes_near_true_position(self):
        beacons, database = _beacon_world()
        from repro.geometry.projection import LocalProjection

        projection = LocalProjection(ANCHOR, frame="room")
        rng = random.Random(0)
        errors = []
        for _ in range(20):
            true = LocalPoint(rng.uniform(2.0, 18.0), rng.uniform(2.0, 18.0), "room")
            readings = tuple(
                BeaconReading(bid, rssi_at_distance(true.distance_to(pos)) + rng.gauss(0.0, 2.0))
                for bid, pos in beacons.items()
            )
            result = database.localize(BeaconCue(readings), "server")
            assert result is not None
            errors.append(result.location.distance_to(projection.to_geographic(true)))
        assert sum(errors) / len(errors) < 5.0

    def test_no_overlapping_beacons_returns_none(self):
        _, database = _beacon_world()
        cue = BeaconCue((BeaconReading("unknown", -50.0),))
        assert database.localize(cue, "server") is None

    def test_empty_database_returns_none(self):
        database = BeaconFingerprintDatabase()
        cue = BeaconCue((BeaconReading("b0", -50.0),))
        assert database.localize(cue, "server") is None

    def test_empty_cue_returns_none(self):
        _, database = _beacon_world()
        assert database.localize(BeaconCue(()), "server") is None

    @pytest.mark.parametrize("k", [0, -1, 2.0, None])
    def test_k_neighbors_is_validated(self, k):
        """``0`` used to divide by zero and ``-1`` to average all but one
        fingerprint into a fix with no error."""
        with pytest.raises(ValueError, match="k_neighbors must be an int >= 1"):
            BeaconFingerprintDatabase(k_neighbors=k)

    def test_result_metadata(self):
        beacons, database = _beacon_world()
        readings = tuple(BeaconReading(bid, rssi_at_distance(10.0)) for bid in beacons)
        result = database.localize(BeaconCue(readings), "my-server")
        assert result is not None
        assert result.server_id == "my-server"
        assert result.cue_type == CueType.BEACON
        assert 0.0 <= result.confidence <= 1.0


class TestImageFingerprinting:
    def _database(self) -> tuple[ImageFingerprintDatabase, list[tuple[LatLng, tuple[float, ...]]]]:
        database = ImageFingerprintDatabase()
        entries = []
        for index in range(25):
            location = ANCHOR.destination(90.0, index * 4.0)
            # One-hot descriptors: each surveyed spot looks unlike the others.
            descriptor = tuple(1.0 if d == index else 0.0 for d in range(25))
            database.add(ImageFingerprint(location, descriptor))
            entries.append((location, descriptor))
        return database, entries

    def test_exact_descriptor_matches_location(self):
        database, entries = self._database()
        location, descriptor = entries[7]
        result = database.localize(ImageCue(descriptor), "server")
        assert result is not None
        assert result.location.distance_to(location) < 10.0

    def test_dissimilar_descriptor_rejected(self):
        database, _ = self._database()
        result = database.localize(ImageCue(tuple([-1.0] * 25)), "server")
        assert result is None or result.confidence < 0.5

    def test_zero_descriptor_returns_none(self):
        database, _ = self._database()
        assert database.localize(ImageCue((0.0,) * 25), "server") is None

    @pytest.mark.parametrize("k", [0, -1, 2.0, None])
    def test_k_neighbors_is_validated(self, k):
        """``0`` used to answer ``None`` for every cue."""
        with pytest.raises(ValueError, match="k_neighbors must be an int >= 1"):
            ImageFingerprintDatabase(k_neighbors=k)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_min_similarity_must_be_finite(self, threshold):
        with pytest.raises(ValueError, match="min_similarity must be finite"):
            ImageFingerprintDatabase(min_similarity=threshold)

    def test_dimension_mismatch_ignored(self):
        database, _ = self._database()
        assert database.localize(ImageCue((1.0, 2.0)), "server") is None

    def test_empty_database(self):
        assert ImageFingerprintDatabase().localize(ImageCue((1.0,)), "s") is None


class TestReferencesChangeOnlyThroughAdd:
    """The stacked pass nominates the references the per-row expressions
    score, so a reference replaced behind a database's back went unscored: a
    ``k_neighbors=1`` localize kept answering the old best match while a
    fresh database over the same references answered the exact one.
    ``fingerprints`` is a tuple, and ``add`` the one way to change it."""

    @pytest.mark.parametrize("kind", ["beacon", "image"])
    def test_a_database_answers_from_the_references_it_holds(self, kind):
        spots = [ANCHOR.destination(0.0, 10.0 * index) for index in range(10)]
        exact_spot = LatLng(41.0, -81.0)
        if kind == "beacon":
            database = BeaconFingerprintDatabase(
                [BeaconFingerprint(spot, {"b0": -40.0 - 5.0 * index}) for index, spot in enumerate(spots)],
                k_neighbors=1,
            )
            cue, exact = BeaconCue((BeaconReading("b0", -90.0),)), BeaconFingerprint(exact_spot, {"b0": -90.0})
        else:
            database = ImageFingerprintDatabase(
                [ImageFingerprint(spot, (1.0, 0.1 * index)) for index, spot in enumerate(spots)], k_neighbors=1
            )
            cue, exact = ImageCue((0.0, 1.0)), ImageFingerprint(exact_spot, (0.0, 1.0))
        assert database.localize(cue, "s").location == spots[-1]
        try:
            database.fingerprints[0] = exact
        except TypeError:
            pass
        fresh = type(database)(list(database.fingerprints), k_neighbors=1)
        assert database.localize(cue, "s") == fresh.localize(cue, "s")
        database.add(exact)
        assert database.localize(cue, "s").location == exact_spot


class TestFiducials:
    def test_known_tag_localizes_precisely(self):
        registry = FiducialRegistry()
        tag_location = ANCHOR
        registry.add("tag-1", tag_location)
        result = registry.localize("tag-1", offset_east=3.0, offset_north=4.0, server_id="s")
        assert result is not None
        expected = tag_location.destination(90.0, 3.0).destination(0.0, 4.0)
        assert result.location.distance_to(expected) < 0.1
        assert result.accuracy_meters < 1.0

    def test_unknown_tag_returns_none(self):
        registry = FiducialRegistry()
        assert registry.localize("ghost", 0.0, 0.0, "s") is None


class TestDeadReckoning:
    def test_straight_walk(self):
        tracker = DeadReckoningTracker(anchor=ANCHOR)
        for _ in range(10):
            tracker.apply(MotionUpdate(heading_degrees=90.0, distance_meters=1.0))
        assert tracker.travelled_meters == pytest.approx(10.0)
        assert tracker.position.distance_to(ANCHOR.destination(90.0, 10.0)) < 0.1

    def test_uncertainty_grows_with_travel(self):
        tracker = DeadReckoningTracker(anchor=ANCHOR, drift_rate=0.1)
        start_uncertainty = tracker.uncertainty_meters
        tracker.apply(MotionUpdate(0.0, 50.0))
        assert tracker.uncertainty_meters > start_uncertainty

    def test_re_anchor_resets(self):
        tracker = DeadReckoningTracker(anchor=ANCHOR)
        tracker.apply(MotionUpdate(0.0, 30.0))
        new_anchor = ANCHOR.destination(45.0, 100.0)
        tracker.re_anchor(new_anchor, accuracy_meters=0.5)
        assert tracker.travelled_meters == 0.0
        assert tracker.position == new_anchor

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            MotionUpdate(0.0, -1.0)

    def test_consistency_score_decays_with_distance(self):
        tracker = DeadReckoningTracker(anchor=ANCHOR)
        near = consistency_score(tracker, ANCHOR.destination(0.0, 1.0))
        far = consistency_score(tracker, ANCHOR.destination(0.0, 5.0))
        very_far = consistency_score(tracker, ANCHOR.destination(0.0, 500.0))
        assert near > far > very_far
        assert 0.0 < far < near <= 1.0
        assert very_far == pytest.approx(0.0, abs=1e-6)


class TestSelector:
    def _result(self, server: str, location: LatLng, cue_type: CueType, confidence: float = 0.9) -> LocalizationResult:
        return LocalizationResult(server, location, accuracy_meters=2.0, confidence=confidence, cue_type=cue_type)

    def test_prefers_precise_technology_without_tracker(self):
        selector = LocalizationSelector()
        gnss = self._result("a", ANCHOR, CueType.GNSS)
        image = self._result("b", ANCHOR.destination(0.0, 5.0), CueType.IMAGE)
        best = selector.rank([gnss, image])[0]
        assert best.result.server_id == "b"

    def test_tracker_rejects_implausible_result(self):
        selector = LocalizationSelector()
        tracker = DeadReckoningTracker(anchor=ANCHOR)
        plausible = self._result("near", ANCHOR.destination(0.0, 2.0), CueType.BEACON, 0.7)
        implausible = self._result("far", ANCHOR.destination(0.0, 500.0), CueType.IMAGE, 0.95)
        best = selector.rank([implausible, plausible], tracker)[0]
        assert best.result.server_id == "near"

    def test_rank_is_sorted(self):
        selector = LocalizationSelector()
        results = [
            self._result("a", ANCHOR, CueType.GNSS, 0.5),
            self._result("b", ANCHOR, CueType.FIDUCIAL, 0.9),
            self._result("c", ANCHOR, CueType.BEACON, 0.7),
        ]
        ranked = selector.rank(results)
        scores = [r.plausibility for r in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0].result.server_id == "b"
