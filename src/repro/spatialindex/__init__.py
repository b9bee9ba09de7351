"""Hierarchical spatial indexing (S2-like cells, region coverings, quadtree)."""

from repro.spatialindex.cellid import MAX_LEVEL, CellId
from repro.spatialindex.covering import (
    CoveringOptions,
    RegionCoverer,
    cells_at_level,
    covering_area_square_meters,
    covering_contains_point,
    normalize_covering,
)
from repro.spatialindex.quadtree import QuadTree

__all__ = [
    "MAX_LEVEL",
    "CellId",
    "CoveringOptions",
    "QuadTree",
    "RegionCoverer",
    "cells_at_level",
    "covering_area_square_meters",
    "covering_contains_point",
    "normalize_covering",
]
