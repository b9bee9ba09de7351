"""Region coverings: approximate a region with a small set of cells.

A map server's zone (a polygon or bounding box) is registered in the
discovery DNS as a *covering* — a set of cells whose union contains the zone
(Section 5.1: "A polygonal region, or a zone, can be approximated by a
collection of domain names").  The covering is allowed to over-approximate the
region; that over-approximation is exactly the "fuzzy boundary" the paper
argues is acceptable for discovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.simulation.lru import LruCache
from repro.simulation.metrics import float_sum
from repro.spatialindex.cellid import MAX_LEVEL, CellId, _bounds_of, _grid_position


@dataclass(frozen=True, slots=True)
class CoveringOptions:
    """Tuning knobs for the region coverer.

    ``min_level``/``max_level`` bound cell sizes; ``max_cells`` bounds the
    covering size (and therefore the number of DNS records a registration
    creates and the number of lookups a discovery query may need).
    """

    min_level: int = 4
    max_level: int = 16
    max_cells: int = 32

    def __post_init__(self) -> None:
        if not (0 <= self.min_level <= self.max_level <= MAX_LEVEL):
            raise ValueError("require 0 <= min_level <= max_level <= MAX_LEVEL")
        if self.max_cells < 1:
            raise ValueError("max_cells must be >= 1")


_polygon_covering_memo: LruCache = LruCache(max_entries=1024)
"""Bounded memo of polygon coverings keyed by (vertices, covering options).

Map-server coverage polygons are registered every time a scenario is built,
and a fleet sweep builds one scenario per sweep point — the recursive
covering of an identical region is computed once per process instead of once
per registration.  Both Polygon and CellId are immutable, so sharing entries
is safe; callers get a fresh list.
"""


@dataclass
class RegionCoverer:
    """Computes cell coverings of boxes, polygons and discs."""

    options: CoveringOptions = field(default_factory=CoveringOptions)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def cover_box(self, box: BoundingBox) -> list[CellId]:
        """Covering of a bounding box."""
        return self._cover(lambda cell_box: cell_box.intersects(box),
                           lambda cell_box: box.contains_box(cell_box))

    def cover_polygon(self, polygon: Polygon) -> list[CellId]:
        """Covering of a polygon (memoized per region + options)."""
        opts = self.options
        key = (polygon.vertices, opts.min_level, opts.max_level, opts.max_cells)
        cached = _polygon_covering_memo.lookup(key)
        if cached is None:
            cached = self._cover(
                lambda cell_box: polygon.intersects_box(cell_box),
                lambda cell_box: all(polygon.contains(c) for c in cell_box.corners()),
            )
            _polygon_covering_memo.store(key, cached)
        return list(cached)

    # ------------------------------------------------------------------
    # Core recursive covering
    # ------------------------------------------------------------------
    def _cover(
        self,
        intersects: Callable[[BoundingBox], bool],
        contained: Callable[[BoundingBox], bool],
    ) -> list[CellId]:
        """Generic covering: refine intersecting cells until budget is spent."""
        opts = self.options
        # Seed with the cells at min_level that intersect the region.
        frontier: list[CellId] = []
        self._collect_intersecting(CellId.root(), opts.min_level, intersects, frontier)
        if not frontier:
            return []

        result: list[CellId] = []
        # Refine cells that are not fully inside the region while the cell
        # budget allows; fully-contained cells are kept as-is.
        while frontier:
            frontier.sort(key=lambda c: c.level)
            cell = frontier.pop(0)
            cell_box = cell.bounds()
            if contained(cell_box) or cell.level >= opts.max_level:
                result.append(cell)
                continue
            children = [child for child in cell.children() if intersects(child.bounds())]
            if not children:
                result.append(cell)
                continue
            if len(result) + len(frontier) + len(children) > opts.max_cells:
                result.append(cell)
            else:
                frontier.extend(children)

        return normalize_covering(result)

    def _collect_intersecting(
        self,
        cell: CellId,
        target_level: int,
        intersects: Callable[[BoundingBox], bool],
        out: list[CellId],
    ) -> None:
        if not intersects(cell.bounds()):
            return
        if cell.level >= target_level:
            out.append(cell)
            return
        for child in cell.children():
            self._collect_intersecting(child, target_level, intersects, out)


def cells_at_level(box: BoundingBox, level: int, max_cells: int = 64) -> list[CellId]:
    """All cells at exactly ``level`` intersecting ``box``, capped at ``max_cells``.

    Discovery queries use this fixed-level enumeration so that a query name is
    always at the same level as (or finer than) registration names and the
    DNS ancestor walk is guaranteed to meet every registration.  The scan runs
    south-west to north-east; if the box needs more than ``max_cells`` cells
    the northernmost rows (and the east end of the last row scanned) are
    dropped — the query becomes less complete rather than unboundedly
    expensive.
    """
    if max_cells < 1:
        raise ValueError("max_cells must be >= 1")
    south, west = max(-90.0, box.south), max(-180.0, box.west)
    north, east = min(90.0, box.north), min(180.0, box.east)
    if south > 90.0 or west > 180.0 or north < -90.0 or east < -180.0:
        raise ValueError(f"{box} lies outside the world")
    # The box matters only through the grid positions of its two corners, so
    # nearby queries (a fleet in one city) share a handful of blocks.
    row0, col0 = _grid_position(south, west, level)
    row1, col1 = _grid_position(north, east, level)
    return list(_block(row0, col0, max(row0, row1), max(col0, col1), level, max_cells))


@lru_cache(maxsize=1024)
def _block(
    row0: int, col0: int, row1: int, col1: int, level: int, max_cells: int
) -> tuple[CellId, ...]:
    """The first ``max_cells`` cells of a grid block, scanning rows
    south→north and west→east within a row, in token order.

    Every cell of the block intersects the box whose corners gave the
    indices — :func:`_grid_position` and ``CellId.bounds`` agree on the cell
    edges — so none is tested against it.
    """
    scan = ((row, col) for row in range(row0, row1 + 1) for col in range(col0, col1 + 1))
    cells = [CellId.from_indices(row, col, level) for row, col in islice(scan, max_cells)]
    # Unique same-level cells: normalization is the canonical token order.
    cells.sort(key=lambda cell: cell.token)
    return tuple(cells)


def normalize_covering(cells: list[CellId]) -> list[CellId]:
    """Sort a covering and drop cells already contained in coarser members.

    Containment of cell ids is a token-prefix test, so instead of comparing
    every pair (quadratic in the covering size) each cell checks its ancestor
    prefixes — one per coarser level already kept — against a set.
    """
    by_token = {cell.token: cell for cell in cells}
    # (level, token) order: a stable sort on length of the token-sorted list.
    tokens = sorted(sorted(by_token), key=len)
    if not tokens or len(tokens[0]) == len(tokens[-1]):
        # One level (every covering a route discovers along): no cell can
        # contain another, so the distinct cells in token order are the answer.
        return [by_token[token] for token in tokens]
    kept: list[CellId] = []
    kept_tokens: set[str] = set()
    kept_levels: list[int] = []
    for token in tokens:
        if any(token[:level] in kept_tokens for level in kept_levels):
            continue
        kept.append(by_token[token])
        kept_tokens.add(token)
        if not kept_levels or kept_levels[-1] != len(token):
            kept_levels.append(len(token))
    return kept


@lru_cache(maxsize=2048)
def _covering_contains(tokens: tuple[str, ...], latitude: float, longitude: float) -> bool:
    point = LatLng(latitude, longitude)
    return any(_bounds_of(token).contains(point) for token in tokens)


def covering_contains_point(cells: list[CellId], point: LatLng) -> bool:
    """True if any cell of the covering contains ``point``.

    Memoized on (covering tokens, exact coordinates) — this only pays off
    for callers re-checking *recurring* points (popular POIs, fixed probe
    grids) against stable coverings; continuously varying positions miss.
    """
    return _covering_contains(
        tuple(cell.token for cell in cells), point.latitude, point.longitude
    )


def covering_area_square_meters(cells: list[CellId]) -> float:
    """Total area of the covering (an upper bound on the region's area)."""
    return float_sum(cell.bounds().area_square_meters() for cell in cells)
