"""E11 — Section 5.2 Tile rendering / Section 3 heterogeneity.

Measures (a) MapCruncher-style alignment error as a function of the number of
manual correspondences and their noise, and (b) composite-viewport coverage
when stitching the city map with a store's higher-fidelity indoor map, versus
the city map alone.
"""

from __future__ import annotations

import random

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LocalPoint
from repro.tiles.correspondence import CorrespondenceSet
from repro.tiles.renderer import TileRenderer
from repro.tiles.stitcher import TileStitcher, composite_coverage
from repro.tiles.tile_math import tiles_for_box

from _util import paper_world

ALIGNMENT_RUNS = 5


def alignment() -> dict:
    """More (noisy, 1 m) manual correspondences give a better frame alignment."""
    world, _ = paper_world()
    store = world.stores[0]
    truth = store.projection
    rng = random.Random(3)

    def random_local() -> LocalPoint:
        return LocalPoint(rng.uniform(0, store.width_meters), rng.uniform(0, store.depth_meters), truth.frame)

    probes = [random_local() for _ in range(20)]

    def mean_error(correspondence_count: int, noise_meters: float) -> float:
        correspondences = CorrespondenceSet(local_frame=truth.frame)
        for _ in range(correspondence_count):
            local = random_local()
            noisy = truth.to_geographic(local).destination(rng.uniform(0, 360.0), abs(rng.gauss(0.0, noise_meters)))
            correspondences.add(local, noisy)
        aligned = correspondences.estimate_alignment()
        return sum(aligned.local_to_geographic(p).distance_to(truth.to_geographic(p)) for p in probes) / len(probes)

    return {
        str(count): {
            "runs": ALIGNMENT_RUNS,
            "mean_alignment_error_m": sum(mean_error(count, 1.0) for _ in range(ALIGNMENT_RUNS)) / ALIGNMENT_RUNS,
        }
        for count in (2, 4, 8, 16)
    }


def coverage() -> dict:
    """Stitching the store map over the city map increases viewport content."""
    world, client = paper_world()
    viewport = BoundingBox.around(world.stores[0].entrance, 50.0)
    city_renderer = TileRenderer(world.city.map_data, line_thickness=1)
    stitcher = TileStitcher()
    city_only = {
        coordinate: stitcher.stitch([city_renderer.render(coordinate)]) for coordinate in tiles_for_box(viewport, 19)
    }
    view = client.render_viewport(viewport, zoom=19)
    return {
        "city map only": {"tiles": len(city_only), "mean_coverage": composite_coverage(city_only)},
        "federated composite": {"tiles": view.tiles_downloaded, "mean_coverage": view.coverage_fraction},
    }


CELLS = {"alignment": alignment, "coverage": coverage}


def bands(t: dict) -> dict[str, bool]:
    two, sixteen = t["alignment"]["2"], t["alignment"]["16"]
    city, composite = t["coverage"]["city map only"], t["coverage"]["federated composite"]
    return {
        "16 correspondences align to < 2 m and < the 2-point error + 0.5 m, >= 5 runs each: "
        f"{sixteen} vs {two}": (
            min(two["runs"], sixteen["runs"]) >= 5
            and sixteen["mean_alignment_error_m"] < min(two["mean_alignment_error_m"] + 0.5, 2.0)
        ),
        f"stitching the store map in loses no viewport content, >= 1 tile each: {composite} vs {city}": (
            min(city["tiles"], composite["tiles"]) >= 1 and composite["mean_coverage"] >= city["mean_coverage"]
        ),
    }
