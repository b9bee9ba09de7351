"""E4 — Section 5.1: cell coverings as DNS names.

How many domain names does a map registration need, and how much does the
covering over-approximate the true region (the "fuzzy boundary")?  Sweeps the
covering level limit and the region size.
"""

from __future__ import annotations

from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.spatialindex.covering import CoveringOptions, RegionCoverer, covering_area_square_meters

CENTER = LatLng(40.44, -79.95)
BOUNDARY_PROBES = 72


def _covering_row(region: Polygon, options: CoveringOptions) -> dict:
    cells = RegionCoverer(options).cover_polygon(region)
    return {
        "dns_names": len(cells),
        "blowup_factor": covering_area_square_meters(cells) / region.area_square_meters(),
    }


def level_sweep() -> dict:
    """Covering size and over-approximation for a 40 m store vs the max level."""
    region = Polygon.regular(CENTER, 40.0, sides=8)
    return {
        str(max_level): _covering_row(region, CoveringOptions(min_level=11, max_level=max_level, max_cells=128))
        for max_level in (13, 15, 17, 19)
    }


def region_sweep() -> dict:
    """From a store to a campus to a whole city district (levels 11-17)."""
    options = CoveringOptions(min_level=11, max_level=17, max_cells=256)
    return {
        str(radius): _covering_row(Polygon.regular(CENTER, float(radius), sides=10), options)
        for radius in (30, 150, 600, 2_000)
    }


def false_positives() -> dict:
    """How often does a point just outside the region still discover it?

    The covering over-approximation means nearby-but-outside clients discover
    the server and must filter it out afterwards; this quantifies how often,
    as a function of distance from the boundary of a 50 m region.
    """
    region = Polygon.regular(CENTER, 50.0, sides=12)
    cells = RegionCoverer(CoveringOptions(min_level=13, max_level=17, max_cells=64)).cover_polygon(region)
    rows = {}
    for meters_outside in (10, 50, 150, 400):
        bearings = (360.0 * step / BOUNDARY_PROBES for step in range(BOUNDARY_PROBES))
        probes = [CENTER.destination(bearing, 50.0 + meters_outside) for bearing in bearings]
        hits = sum(any(cell.contains_point(probe) for cell in cells) for probe in probes)
        rows[str(meters_outside)] = {"probes": len(probes), "false_positive_rate": hits / len(probes)}
    return rows


CELLS = {"level_sweep": level_sweep, "region_sweep": region_sweep, "false_positives": false_positives}


def bands(t: dict) -> dict[str, bool]:
    coarse, fine = t["level_sweep"]["13"], t["level_sweep"]["19"]
    near, far = t["false_positives"]["10"], t["false_positives"]["400"]
    return {
        f"a finer max level trades more DNS names for a tighter covering: level 19 {fine} vs level 13 {coarse}": (
            fine["blowup_factor"] < coarse["blowup_factor"] and fine["dns_names"] >= coarse["dns_names"] >= 1
        ),
        **{
            f"a {radius} m region registers under 1..256 DNS names: {row}": 1 <= row["dns_names"] <= 256
            for radius, row in t["region_sweep"].items()
        },
        f"fuzzy-boundary false positives do not grow with distance, >= 72 probes each: 400 m {far} vs 10 m {near}": (
            min(near["probes"], far["probes"]) >= 72 and far["false_positive_rate"] <= near["false_positive_rate"]
        ),
    }
