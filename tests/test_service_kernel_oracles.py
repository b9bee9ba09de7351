"""Reference oracles for the per-map-server service kernels.

``ImageFingerprintDatabase.localize``, ``BeaconFingerprintDatabase.localize``,
``GeocodeIndex.lookup`` and ``SearchService.search`` keep derived data beside
each reference, rank candidates on ``(score, position)`` scalars and build
result objects only for what survives the cut.  The oracles below are the
bodies those methods had before — a result object per candidate, a stable
``sort(reverse=True)``, ``np.asarray`` and ``np.linalg.norm`` per reference per
query — kept here as test-only code, and the kernels must return ``==`` results
(whole lists, every float, no ``approx``).

The beacon oracle is the old formula with one deliberate difference: the sum
of squared differences is a left-to-right accumulation in the cue's reading
order instead of ``sum()`` over ``set(observed) & set(reference)``, whose
iteration order — and so the float rounding of the sum — followed
``PYTHONHASHSEED``.  (Builtin ``sum()`` is that same left-to-right
accumulation up to CPython 3.11 and a compensated sum from 3.12; the explicit
loop gives one answer on both.)

Both fingerprint kernels are filter-and-refine: a stacked numpy pass nominates
every reference within a margin of the ``k``-th best approximate score and
only the nominees are scored by the per-row expressions.  The full scans
above stay the oracles, and ``adversarial_image_cases`` /
``adversarial_beacon_cases`` aim at what a filter can get wrong: exact ties,
scores a few ulp apart around the ``k``-th place, a flood of references tied
*at* it, databases of ``1 .. k + 1`` references, norms under the
query-dependent ``denom`` floor, partial beacon overlap.  The margin is
checked against the measured ``|approx - exact|`` over the same cases, and
the gain is pinned as a count of per-row scoring passes.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.geometry.point import LatLng
from repro.localization import fingerprint as kernels
from repro.localization.cues import BeaconCue, BeaconReading, CueType, ImageCue, LocalizationResult
from repro.localization.fingerprint import (
    BeaconFingerprint,
    BeaconFingerprintDatabase,
    ImageFingerprint,
    ImageFingerprintDatabase,
)
from repro.mapserver.geocode import Address, GeocodeIndex, GeocodeResult, _tokenise
from repro.mapserver.search import SearchResult, SearchService
from repro.osm.elements import Node
from repro.osm.mapdata import MapData, MapMetadata
from repro.worldgen.scenario import build_scenario


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def oracle_image_localize(
    db: ImageFingerprintDatabase, cue: ImageCue, server_id: str
) -> LocalizationResult | None:
    if not db.fingerprints:
        return None
    query = cue.as_array()
    query_norm = np.linalg.norm(query)
    if query_norm < 1e-12:
        return None

    scored: list[tuple[float, ImageFingerprint]] = []
    for fingerprint in db.fingerprints:
        reference = np.asarray(fingerprint.descriptor, dtype=float)
        if reference.shape != query.shape:
            continue
        denom = query_norm * np.linalg.norm(reference)
        if denom < 1e-12:
            continue
        similarity = float(query @ reference / denom)
        scored.append((similarity, fingerprint))
    if not scored:
        return None
    scored.sort(key=lambda item: item[0], reverse=True)
    best = [item for item in scored[: db.k_neighbors] if item[0] >= db.min_similarity]
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


def oracle_rms_distance(observed: dict[str, float], reference: dict[str, float]) -> float | None:
    """RMS difference over beacons present in both signatures, summed in
    ``observed``'s (the cue's) order."""
    common = [beacon for beacon in observed if beacon in reference]
    if not common:
        return None
    total = 0.0
    for beacon in common:
        total += (observed[beacon] - reference[beacon]) ** 2
    overlap_penalty = 10.0 * (len(observed) - len(common))
    return math.sqrt(total / len(common)) + overlap_penalty


def oracle_beacon_localize(
    db: BeaconFingerprintDatabase, cue: BeaconCue, server_id: str
) -> LocalizationResult | None:
    if not db.fingerprints or not cue.readings:
        return None
    observed = cue.reading_map()
    scored: list[tuple[float, BeaconFingerprint]] = []
    for fingerprint in db.fingerprints:
        distance = oracle_rms_distance(observed, fingerprint.rssi_by_beacon)
        if distance is None:
            continue
        scored.append((distance, fingerprint))
    if not scored:
        return None
    scored.sort(key=lambda item: item[0])
    best = scored[: db.k_neighbors]

    weights = [1.0 / (distance + 1e-3) for distance, _ in best]
    total_weight = sum(weights)
    lat = sum(w * fp.location.latitude for w, (_, fp) in zip(weights, best)) / total_weight
    lng = sum(w * fp.location.longitude for w, (_, fp) in zip(weights, best)) / total_weight
    estimate = LatLng(lat, lng)
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


def oracle_geocode_lookup(
    index: GeocodeIndex, address: Address, limit: int = 5, min_score: float = 0.3
) -> list[GeocodeResult]:
    query_tokens = _tokenise(address.as_query())
    if not query_tokens:
        return []
    results: list[GeocodeResult] = []
    for node_id, tokens, label in index._entries:
        overlap = query_tokens & tokens
        if not overlap:
            continue
        precision = len(overlap) / len(query_tokens)
        recall = len(overlap) / len(tokens)
        score = 0.7 * precision + 0.3 * recall
        if score < min_score:
            continue
        node = index.map_data.node(node_id)
        results.append(GeocodeResult(node_id, node.location, label, score, index.map_data.metadata.name))
    results.sort(key=lambda r: r.score, reverse=True)
    return results[:limit]


def oracle_search(
    service: SearchService,
    query: str,
    near: LatLng | None = None,
    radius_meters: float | None = None,
    limit: int = 10,
) -> list[SearchResult]:
    scored = service.index.candidates(query)
    if not scored:
        return []
    results: list[SearchResult] = []
    for node_id, keyword_score in scored.items():
        node = service.map_data.node(node_id)
        distance = near.distance_to(node.location) if near is not None else 0.0
        if radius_meters is not None and near is not None and distance > radius_meters:
            continue
        proximity = 1.0 / (1.0 + distance / 100.0) if near is not None else 1.0
        relevance = 0.7 * keyword_score + 0.3 * proximity
        results.append(
            SearchResult(
                node_id=node_id,
                location=node.location,
                label=service._label(node),
                relevance=relevance,
                distance_meters=distance,
                map_name=service.map_data.metadata.name,
                tags=tuple(sorted(node.tags.items())),
            )
        )
    results.sort(key=lambda r: r.relevance, reverse=True)
    return results[:limit]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
CENTER = LatLng(40.44, -79.95)

# A handful of locations, repeated: co-located references tie on distance.
locations = st.builds(
    lambda east, north: CENTER.destination(90.0, 40.0 * east).destination(0.0, 40.0 * north),
    st.integers(0, 3),
    st.integers(0, 3),
)

# Small integer components: repeated and parallel descriptors (tied cosine
# similarity), the all-zero descriptor (zero norm) and two lengths (shape
# mismatch) all come up often.
components = st.integers(-2, 2).map(float) | st.floats(-1.0, 1.0, allow_nan=False)
descriptors = st.lists(components, min_size=3, max_size=3).map(tuple) | st.lists(
    components, min_size=2, max_size=2
).map(tuple)
image_fingerprints = st.builds(
    ImageFingerprint,
    location=locations,
    descriptor=descriptors,
    heading_degrees=st.none() | st.sampled_from([0.0, 90.0, 270.0]),
)
k_neighbors = st.integers(1, 4)
# -1.0 keeps every match, 1.0 almost none; the middle values cut inside the top k.
min_similarities = st.sampled_from([-1.0, 0.0, 0.2, 0.5, 0.9, 1.0])

beacon_ids = st.sampled_from(["b0", "b1", "b2", "b3", "b4", "b5"])
rssi = st.floats(-100.0, -30.0, allow_nan=False)
beacon_fingerprints = st.builds(
    BeaconFingerprint,
    location=locations,
    rssi_by_beacon=st.dictionaries(beacon_ids, rssi, max_size=6),
)
# A list, not a dict: a cue may repeat a beacon id (the last reading wins,
# the first occurrence fixes its place in the order).
beacon_cues = st.lists(st.builds(BeaconReading, beacon_ids, rssi), max_size=8).map(
    lambda readings: BeaconCue(tuple(readings))
)


def nudged(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` representable floats up (down if negative)."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def _shuffled_and_cut(draw, k: int, references: list, filler) -> list:
    """``references`` cut to ``1 .. k + 1`` entries half of the time (the
    ``k``-th best may not exist), in a drawn order (ties resolve by position)."""
    references = draw(st.permutations(references)) if references else [draw(filler)]
    if draw(st.booleans()):
        references = references[: draw(st.integers(1, k + 1))]
    return list(references)


@st.composite
def adversarial_image_cases(draw):
    """``(fingerprints, query descriptor, k, min_similarity)`` built around
    one ``base`` direction the query is parallel to."""
    k = draw(k_neighbors)
    length = draw(st.sampled_from([2, 3, 16]))
    component = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)
    base = draw(st.lists(component, min_size=length, max_size=length))
    # 1e-7: under the ``denom < 1e-12`` floor for the 1e-6 query only.
    reference_scale = draw(st.sampled_from([1.0, 1.0, 1e-7, 1e3]))
    descriptors = [tuple(reference_scale * x for x in base)] * draw(st.integers(0, k + 7))
    for ulps in draw(st.lists(st.integers(-4, 4), max_size=6)):
        descriptors.append(tuple([nudged(reference_scale * base[0], ulps), *(reference_scale * x for x in base[1:])]))
    anything = st.lists(components, min_size=length, max_size=length).map(tuple)
    descriptors += draw(st.lists(anything | st.just((0.0,) * length) | st.just((1.0,) * (length + 1)), max_size=k + 2))
    descriptors = _shuffled_and_cut(draw, k, descriptors, anything)
    fingerprints = [
        ImageFingerprint(draw(locations), descriptor, draw(st.none() | st.sampled_from([0.0, 90.0])))
        for descriptor in descriptors
    ]
    query_scale = draw(st.sampled_from([1.0, 1e-6, 250.0]))
    query = draw(st.just(tuple(query_scale * x for x in base)) | anything)
    return fingerprints, query, k, draw(min_similarities)


@st.composite
def adversarial_beacon_cases(draw):
    """``(fingerprints, cue, k)`` where most fingerprints share ``b0`` with
    the cue (the stacked pass needs one beacon in common per reference)."""
    k = draw(k_neighbors)
    level = st.integers(-100, -30).map(float) | rssi
    surveyed = draw(st.sets(st.sampled_from(["b1", "b2", "b3", "b4"])))
    base = {beacon: draw(level) for beacon in ["b0", *sorted(surveyed)]}
    signatures = [dict(base)] * draw(st.integers(0, k + 7))
    for ulps in draw(st.lists(st.integers(-4, 4), max_size=6)):
        signatures.append({**base, "b0": nudged(base["b0"], ulps)})
    overlapping = st.dictionaries(beacon_ids, level, max_size=6).map(lambda extra: {"b0": -60.0, **extra})
    signatures += draw(st.lists(overlapping | st.dictionaries(beacon_ids, level, max_size=2), max_size=k + 2))
    signatures = _shuffled_and_cut(draw, k, signatures, overlapping)
    fingerprints = [BeaconFingerprint(draw(locations), signature) for signature in signatures]
    # The cue: the base beacons at the base levels (ties and near-ties at
    # distance ~0) or at any level (near-ties between sums taken in cue order
    # and in column order), then beacons no fingerprint surveyed and repeats.
    heard = [BeaconReading(beacon, draw(st.just(value) | level)) for beacon, value in base.items()]
    heard = heard[draw(st.integers(0, len(heard))) :]
    heard += draw(st.lists(st.builds(BeaconReading, beacon_ids | st.sampled_from(["b0", "zz"]), level), max_size=5))
    return fingerprints, BeaconCue(tuple(draw(st.permutations(heard)))), k


WORDS = ["forbes", "fifth", "street", "cafe", "library", "simville", "printer", "12"]
phrases = st.lists(st.sampled_from(WORDS), min_size=0, max_size=3).map(" ".join)


@st.composite
def maps(draw) -> MapData:
    """A small map whose nodes draw names, addresses and tags from a tiny
    vocabulary, so equal scores (and so the tie order) are the common case."""
    map_data = MapData(MapMetadata(name="oracle-map"))
    for node_id in range(1, draw(st.integers(0, 12)) + 1):
        tags = {}
        for key in ("name", "addr:street", "addr:housenumber", "addr:city", "addr:full", "amenity"):
            value = draw(phrases)
            if value and draw(st.booleans()):
                tags[key] = value
        map_data.add_node(Node(node_id, draw(locations), tags))
    return map_data


limits = st.sampled_from([0, 1, 2, 5, 100])


# ----------------------------------------------------------------------
# Kernels against their oracles
# ----------------------------------------------------------------------
class TestImageLocalize:
    @given(st.lists(image_fingerprints, max_size=10), descriptors, k_neighbors, min_similarities)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, fingerprints, query, k, min_similarity):
        db = ImageFingerprintDatabase(list(fingerprints), k_neighbors=k, min_similarity=min_similarity)
        cue = ImageCue(query)
        assert db.localize(cue, "s") == oracle_image_localize(db, cue, "s")

    @given(adversarial_image_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_where_a_filter_can_go_wrong(self, case):
        fingerprints, query, k, min_similarity = case
        db = ImageFingerprintDatabase(fingerprints, k_neighbors=k, min_similarity=min_similarity)
        cue = ImageCue(query)
        assert db.localize(cue, "s") == oracle_image_localize(db, cue, "s")

    @given(adversarial_image_cases())
    @settings(max_examples=150, deadline=None)
    def test_margin_is_a_thousand_times_the_rounding(self, case):
        fingerprints, query, k, _ = case
        db = ImageFingerprintDatabase(fingerprints, k_neighbors=k)
        query = ImageCue(query).as_array()
        query_norm = float(np.linalg.norm(query))
        approximated = db._approximate(query, query_norm)
        if approximated is None:
            return
        positions, approx, margin = approximated
        assert margin == kernels._IMAGE_MARGIN
        scoreable = [
            position
            for position, reference in enumerate(db._references)
            if kernels._image_similarity(query, query_norm, reference) is not None
        ]
        assert positions == scoreable
        for position, approximate in zip(positions, approx.tolist()):
            exact = -kernels._image_similarity(query, query_norm, db._references[position]) * query_norm
            assert abs(approximate - exact) * 1000.0 <= margin * max(query_norm, abs(exact))

    @given(
        st.lists(image_fingerprints, max_size=6),
        st.lists(image_fingerprints, min_size=1, max_size=6),
        descriptors,
        k_neighbors,
        min_similarities,
    )
    @settings(max_examples=100, deadline=None)
    def test_derived_arrays_never_lag_fingerprints(self, first, later, query, k, min_similarity):
        """Constructor-built, ``add()``-built and added-to-after-a-query
        databases answer alike: the derived arrays track ``fingerprints``."""
        cue = ImageCue(query)
        grown = ImageFingerprintDatabase(list(first), k_neighbors=k, min_similarity=min_similarity)
        assert grown.localize(cue, "s") == oracle_image_localize(grown, cue, "s")
        added = ImageFingerprintDatabase(k_neighbors=k, min_similarity=min_similarity)
        for fingerprint in first:
            added.add(fingerprint)
        for fingerprint in later:
            grown.add(fingerprint)
            added.add(fingerprint)
        whole = ImageFingerprintDatabase(first + later, k_neighbors=k, min_similarity=min_similarity)
        expected = oracle_image_localize(whole, cue, "s")
        assert grown.localize(cue, "s") == expected
        assert added.localize(cue, "s") == expected
        assert whole.localize(cue, "s") == expected
        assert len(grown) == len(added) == len(whole) == len(first) + len(later)


class TestBeaconLocalize:
    @given(st.lists(beacon_fingerprints, max_size=10), beacon_cues, k_neighbors)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, fingerprints, cue, k):
        db = BeaconFingerprintDatabase(list(fingerprints), k_neighbors=k)
        assert db.localize(cue, "s") == oracle_beacon_localize(db, cue, "s")

    @given(adversarial_beacon_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_where_a_filter_can_go_wrong(self, case):
        fingerprints, cue, k = case
        db = BeaconFingerprintDatabase(fingerprints, k_neighbors=k)
        assert db.localize(cue, "s") == oracle_beacon_localize(db, cue, "s")

    @given(adversarial_beacon_cases())
    @settings(max_examples=150, deadline=None)
    def test_margin_is_a_thousand_times_the_rounding(self, case):
        fingerprints, cue, k = case
        db = BeaconFingerprintDatabase(fingerprints, k_neighbors=k)
        readings = list(cue.reading_map().items())
        approx = db._approximate(readings) if readings else None
        exact = [kernels._beacon_distance(readings, fingerprint.rssi_by_beacon) for fingerprint in fingerprints]
        if approx is None:
            return
        assert len(approx) == len(exact)
        for approximate, distance in zip(approx.tolist(), exact):
            assert abs(approximate - distance) * 1000.0 <= kernels._BEACON_MARGIN * max(1.0, distance)

    @given(adversarial_beacon_cases(), st.lists(beacon_fingerprints, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_stack_never_lags_fingerprints(self, case, later):
        """Constructor-built, ``add()``-built and added-to-after-a-query
        databases answer alike: the stack tracks ``fingerprints``."""
        first, cue, k = case
        grown = BeaconFingerprintDatabase(list(first), k_neighbors=k)
        assert grown.localize(cue, "s") == oracle_beacon_localize(grown, cue, "s")
        added = BeaconFingerprintDatabase(k_neighbors=k)
        for fingerprint in first:
            added.add(fingerprint)
        for fingerprint in later:
            grown.add(fingerprint)
            added.add(fingerprint)
        whole = BeaconFingerprintDatabase(first + later, k_neighbors=k)
        expected = oracle_beacon_localize(whole, cue, "s")
        assert grown.localize(cue, "s") == expected
        assert added.localize(cue, "s") == expected
        assert whole.localize(cue, "s") == expected

    def test_sum_runs_in_cue_order(self):
        """A cue whose squared differences sum to different floats in reading
        order and in sorted-id order: the answer follows the readings."""
        reference = {"b3": -78.1, "b0": -47.8, "b2": -77.9, "b1": -43.3}
        readings = {"b3": -91.8, "b0": -78.6, "b2": -41.8, "b1": -46.8}
        db = BeaconFingerprintDatabase([BeaconFingerprint(CENTER, reference)])
        fixes = []
        for observed in (readings, dict(sorted(readings.items()))):
            cue = BeaconCue(tuple(BeaconReading(beacon, value) for beacon, value in observed.items()))
            fixes.append(db.localize(cue, "s"))
            assert fixes[-1] == oracle_beacon_localize(db, cue, "s")
        assert fixes[0].confidence != fixes[1].confidence


class TestGeocodeLookup:
    @given(maps(), phrases, limits, st.sampled_from([0.0, 0.3, 0.6]))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, map_data, query, limit, min_score):
        index = GeocodeIndex(map_data)
        address = Address(free_text=query)
        assert index.lookup(address, limit, min_score) == oracle_geocode_lookup(index, address, limit, min_score)

    @given(maps(), phrases, limits, st.sets(st.integers(1, 12)))
    @settings(max_examples=100, deadline=None)
    def test_visibility_is_applied_before_the_cut(self, map_data, query, limit, hidden):
        index = GeocodeIndex(map_data)
        address = Address(free_text=query)
        everything = oracle_geocode_lookup(index, address, limit=100)
        found = index.lookup(address, limit, visible=lambda node: node.node_id not in hidden)
        assert found == [r for r in everything if r.node_id not in hidden][:limit]


class TestSearch:
    @given(
        maps(),
        phrases,
        st.none() | locations,
        st.none() | st.sampled_from([0.0, 45.0, 90.0, 1000.0]),
        limits,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, map_data, query, near, radius, limit):
        service = SearchService(map_data)
        assert service.search(query, near, radius, limit) == oracle_search(service, query, near, radius, limit)

    @given(maps(), phrases, st.none() | locations, limits, st.sets(st.integers(1, 12)))
    @settings(max_examples=100, deadline=None)
    def test_visibility_is_applied_before_the_cut(self, map_data, query, near, limit, hidden):
        service = SearchService(map_data)
        everything = oracle_search(service, query, near, limit=100)
        found = service.search(query, near, limit=limit, visible=lambda node: node.node_id not in hidden)
        assert found == [r for r in everything if r.node_id not in hidden][:limit]


# ----------------------------------------------------------------------
# The gain, as a count
# ----------------------------------------------------------------------
def test_per_row_scoring_passes_stay_within_k_plus_two_per_call(monkeypatch):
    """40 seeded indoor localizations on the perfbench world: each database
    call scores ``k + 2`` references at most with the per-row expressions
    (3 of 130 on this world; all 130 with the nomination pass dropped)."""
    counts = Counter()

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    for owner, attribute, name in (
        (kernels, "_beacon_distance", "beacon rows"),
        (kernels, "_image_similarity", "image rows"),
        (BeaconFingerprintDatabase, "localize", "beacon calls"),
        (ImageFingerprintDatabase, "localize", "image calls"),
    ):
        monkeypatch.setattr(owner, attribute, counted(name, getattr(owner, attribute)))

    scenario = build_scenario(store_count=2, city_rows=5, city_cols=5, seed=33)
    client = scenario.federation.client()
    rng = random.Random(7)
    fixes = 0
    for _ in range(40):
        store = rng.choice(scenario.stores)
        indoors = store.random_interior_point(rng)
        fix = client.localize(store.local_to_geographic(indoors), store.sense_cues(indoors, rng))
        fixes += fix.best is not None
    assert fixes == 40
    assert all(len(store.beacon_db) == len(store.image_db) == 130 for store in scenario.stores)
    for technology, database in (("beacon", BeaconFingerprintDatabase), ("image", ImageFingerprintDatabase)):
        calls = counts[f"{technology} calls"]
        assert calls >= 40
        assert counts[f"{technology} rows"] <= calls * (database().k_neighbors + 2), counts


# ----------------------------------------------------------------------
# Beacon answers across PYTHONHASHSEED
# ----------------------------------------------------------------------
HASH_SEED_SCRIPT = """
import hashlib, random
from repro.worldgen.scenario import build_scenario

scenario = build_scenario(store_count=2, city_rows=5, city_cols=5, seed=33)
client = scenario.federation.client()
rng = random.Random(17)
digest = hashlib.sha256()
beacon_fixes = 0
for _ in range(50):
    store = rng.choice(scenario.stores)
    indoors = store.random_interior_point(rng)
    fix = client.localize(store.local_to_geographic(indoors), store.sense_cues(indoors, rng))
    for scored in fix.candidates:
        result = scored.result
        beacon_fixes += result.cue_type.value == "beacon"
        for value in (result.location.latitude, result.location.longitude,
                      result.accuracy_meters, result.confidence):
            digest.update(value.hex().encode())
assert beacon_fixes >= 25, beacon_fixes
print(digest.hexdigest())
"""


def _localization_digest(hash_seed: str) -> str:
    source_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(source_root))
    done = subprocess.run(
        [sys.executable, "-c", HASH_SEED_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.strip()


def test_localization_answers_do_not_depend_on_hash_seed():
    """50 seeded localizations answer with the same floats whatever the
    process's string-hash seed (beacon ids are ``str``; a sum over a set of
    them is ordered by their hashes)."""
    first = _localization_digest("0")
    assert len(first) == hashlib.sha256().digest_size * 2
    assert first == _localization_digest("1")
