"""E9 — Section 5.3: the fine-grained security and privacy model.

Quantifies (a) how much private map data each class of principal can see
under the campus policy (user-, service-, and application-level controls),
(b) the same exposure under a centralized model that had to ingest the data
to serve it at all, and (c) which services each principal may call.
"""

from __future__ import annotations

from repro.localization.cues import CueBundle, GnssCue
from repro.mapserver.auth import Credential
from repro.mapserver.policy import AccessDenied
from repro.tiles.tile_math import tile_for_point
from repro.worldgen.scenario import build_scenario

ROOM_QUERY = "room hall lab office"


def _campus_world():
    """A world whose campus map server enforces the Section 5.3 policy."""
    world = build_scenario(store_count=1, include_campus=True, city_rows=5, city_cols=5, seed=43)
    return world.campus, world.campus_server, next(iter(world.campus.building_locations.values()))


def _exposure_row(campus, results) -> dict:
    visible = sum(1 for result in results if result.label in campus.room_locations)
    return {
        "private_rooms": campus.private_room_count,
        "private_rooms_visible": visible,
        "fraction_of_private_data": visible / campus.private_room_count if campus.private_room_count else None,
    }


def exposure() -> dict:
    campus, server, building = _campus_world()
    principals = {
        "anonymous": Credential(),
        "outside user": Credential(email="user@gmail.com"),
        "campus user": Credential(email="user@campus.edu"),
    }
    rows = {}
    for principal, credential in principals.items():
        try:
            results = server.search(ROOM_QUERY, near=building, radius_meters=500.0, credential=credential, limit=100)
        except AccessDenied:
            results = []
        rows[principal] = _exposure_row(campus, results)
    return rows


def centralized_exposure() -> dict:
    """If the campus had uploaded its map centrally, everyone could query it."""
    world = build_scenario(store_count=0, include_campus=True, centralized_ingests_indoor=True, seed=61)
    building = next(iter(world.campus.building_locations.values()))
    results = world.centralized.search(ROOM_QUERY, near=building, radius_meters=500.0, limit=100)
    return {"anyone (centralized, data ingested)": _exposure_row(world.campus, results)}


def service_access() -> dict:
    """Tiles public, localization app-gated — per-service outcomes by principal."""
    campus, server, building = _campus_world()
    principals = {
        "anonymous": Credential(),
        "campus-nav app": Credential(application_id=campus.navigation_app_id),
        "campus user": Credential(email="x@campus.edu"),
    }

    def outcome(call) -> str:
        try:
            call()
            return "allowed"
        except AccessDenied:
            return "denied"

    return {
        principal: {
            "tiles": outcome(lambda: server.get_tile(tile_for_point(building, 18), credential)),
            "search": outcome(lambda: server.search("hall", near=building, credential=credential)),
            "localization": outcome(lambda: server.localize(CueBundle(gnss=GnssCue(building)), credential)),
        }
        for principal, credential in principals.items()
    }


CELLS = {"exposure": exposure, "centralized_exposure": centralized_exposure, "service_access": service_access}


def bands(t: dict) -> dict[str, bool]:
    anonymous, outsider, insider = (t["exposure"][who] for who in ("anonymous", "outside user", "campus user"))
    central = t["centralized_exposure"]["anyone (centralized, data ingested)"]
    access = t["service_access"]
    return {
        f"outsiders see 0 of >= 20 private rooms under the campus policy: {anonymous} and {outsider}": (
            anonymous["private_rooms"] >= 20
            and anonymous["private_rooms_visible"] == outsider["private_rooms_visible"] == 0
        ),
        f"a campus user sees > 0 private rooms: {insider}": insider["private_rooms_visible"] > 0,
        f"once the campus map is ingested centrally anyone sees > 0 of >= 20 private rooms: {central}": (
            central["private_rooms"] >= 20 and central["private_rooms_visible"] > 0
        ),
        f"service-level controls: anonymous tiles allowed / localization denied, app localization allowed: {access}": (
            access["anonymous"]["tiles"] == "allowed"
            and access["anonymous"]["localization"] == "denied"
            and access["campus-nav app"]["localization"] == "allowed"
        ),
    }
