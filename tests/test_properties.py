"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.records import normalize_name
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng, LocalPoint
from repro.geometry.projection import LocalProjection
from repro.geometry.transform import estimate_similarity
from repro.spatialindex.cellid import MAX_LEVEL, CellId, _grid_position
from repro.spatialindex.covering import (
    CoveringOptions,
    RegionCoverer,
    cells_at_level,
    covering_contains_point,
    normalize_covering,
)
from repro.spatialindex.quadtree import QuadTree

# Strategies restricted to mid latitudes: the library's target workloads are
# city/building scale and the equirectangular approximations degrade at the
# poles by design.
latitudes = st.floats(min_value=-70.0, max_value=70.0, allow_nan=False, allow_infinity=False)
longitudes = st.floats(min_value=-170.0, max_value=170.0, allow_nan=False, allow_infinity=False)
points = st.builds(LatLng, latitudes, longitudes)
levels = st.integers(min_value=1, max_value=20)


class TestGeometryProperties:
    @given(points, points)
    def test_distance_symmetry_and_nonnegativity(self, a: LatLng, b: LatLng):
        assert a.distance_to(b) >= 0.0
        assert a.distance_to(b) == pytest.approx(b.distance_to(a), rel=1e-9)

    @given(points)
    def test_distance_identity(self, a: LatLng):
        assert a.distance_to(a) == 0.0

    @given(points, points, points)
    def test_triangle_inequality(self, a: LatLng, b: LatLng, c: LatLng):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(points, st.floats(min_value=0.0, max_value=360.0), st.floats(min_value=0.0, max_value=5000.0))
    def test_destination_distance_matches_request(self, origin: LatLng, bearing: float, distance: float):
        target = origin.destination(bearing, distance)
        assert origin.distance_to(target) == pytest.approx(distance, rel=1e-3, abs=0.5)

    @given(points, st.floats(min_value=1.0, max_value=5000.0))
    def test_bbox_around_contains_center(self, center: LatLng, radius: float):
        box = BoundingBox.around(center, radius)
        assert box.contains(center)

    @given(points, st.floats(min_value=-2000.0, max_value=2000.0), st.floats(min_value=-2000.0, max_value=2000.0))
    def test_projection_round_trip(self, anchor: LatLng, x: float, y: float):
        projection = LocalProjection(anchor, rotation_degrees=33.0, frame="f")
        original = LocalPoint(x, y, "f")
        geographic = projection.to_geographic(original)
        back = projection.to_local(geographic)
        assert math.hypot(back.x - original.x, back.y - original.y) < max(1.0, 0.01 * math.hypot(x, y))


class TestCellProperties:
    @given(points, levels)
    def test_cell_contains_its_point(self, point: LatLng, level: int):
        assert CellId.from_point(point, level).contains_point(point)

    @given(
        st.one_of(
            points,
            # Exact cell boundaries at level <= 8: where `>=` vs `>` shows.
            st.builds(
                lambda row, col: LatLng(-90.0 + row * 0.703125, -180.0 + col * 1.40625),
                st.integers(0, 256),
                st.integers(0, 255),
            ),
        ),
        st.integers(min_value=0, max_value=MAX_LEVEL),
    )
    def test_from_point_matches_the_digit_by_digit_halving(self, point: LatLng, level: int):
        """``from_point`` accumulates row/column bits and builds the token
        once; the reference appends one digit per halving, as it used to."""
        south, west, north, east = -90.0, -180.0, 90.0, 180.0
        digits = []
        for _ in range(level):
            mid_lat = (south + north) / 2.0
            mid_lng = (west + east) / 2.0
            vertical = horizontal = 0
            if point.latitude >= mid_lat:
                vertical, south = 1, mid_lat
            else:
                north = mid_lat
            if point.longitude >= mid_lng:
                horizontal, west = 1, mid_lng
            else:
                east = mid_lng
            digits.append(str(vertical * 2 + horizontal))
        cell = CellId.from_point(point, level)
        assert cell.token == "".join(digits)
        assert cell.indices() == _grid_position(point.latitude, point.longitude, level)

    @given(points, levels)
    def test_ancestor_chain_is_prefix_ordered(self, point: LatLng, level: int):
        cell = CellId.from_point(point, level)
        current = cell
        while not current.is_root:
            parent = current.parent()
            assert parent.contains(current)
            assert current.token.startswith(parent.token)
            current = parent

    @given(points, st.integers(min_value=8, max_value=18))
    def test_children_tile_parent_without_overlap(self, point: LatLng, level: int):
        # Levels >= 8 keep cells small enough that the planar area
        # approximation is meaningful; coarser cells span too much latitude.
        cell = CellId.from_point(point, level)
        children = cell.children()
        total_child_area = sum(child.bounds().area_square_meters() for child in children)
        assert total_child_area == pytest.approx(cell.bounds().area_square_meters(), rel=0.05)
        # A point belongs to exactly one child.
        containing = [child for child in children if child.contains_point(point)]
        assert len(containing) >= 1

    @given(points, st.integers(min_value=10, max_value=18), st.floats(min_value=10.0, max_value=500.0))
    def test_fixed_level_cells_cover_box(self, center: LatLng, level: int, radius: float):
        box = BoundingBox.around(center, radius)
        cells = cells_at_level(box, level, max_cells=256)
        assert cells
        # Each returned cell intersects the box, and the box corners are covered
        # whenever the budget was not exhausted.
        assert all(cell.bounds().intersects(box) for cell in cells)
        if len(cells) < 256:
            for corner in box.corners():
                assert any(cell.contains_point(corner) for cell in cells)

    @given(st.lists(st.builds(lambda p, l: CellId.from_point(p, l), points, levels), min_size=1, max_size=20))
    def test_normalize_covering_is_minimal_and_idempotent(self, cells: list[CellId]):
        normalized = normalize_covering(cells)
        # No cell contains another.
        for i, a in enumerate(normalized):
            for j, b in enumerate(normalized):
                if i != j:
                    assert not a.contains(b)
        assert normalize_covering(normalized) == normalized


class TestCoveringProperties:
    """Cover/contains round-trips: a covering always contains its region."""

    @given(points, st.floats(min_value=20.0, max_value=2000.0))
    @settings(max_examples=50, deadline=None)
    def test_cover_box_contains_the_whole_box(self, center: LatLng, radius: float):
        box = BoundingBox.around(center, radius)
        coverer = RegionCoverer(CoveringOptions(min_level=4, max_level=16, max_cells=32))
        covering = coverer.cover_box(box)
        assert covering
        # The coverer only ever refines or keeps cells, so the covering must
        # contain every sample of the region — including its corners.
        for sample in box.corners() + box.grid_points(3, 3):
            assert covering_contains_point(covering, sample)

    @given(points, st.floats(min_value=20.0, max_value=2000.0))
    @settings(max_examples=50, deadline=None)
    def test_cover_box_contains_center_and_is_normalized(self, center: LatLng, radius: float):
        coverer = RegionCoverer(CoveringOptions(min_level=4, max_level=16, max_cells=24))
        covering = coverer.cover_box(BoundingBox.around(center, radius))
        assert covering_contains_point(covering, center)
        assert normalize_covering(covering) == covering

    @given(points, st.integers(min_value=8, max_value=16), st.floats(min_value=10.0, max_value=400.0))
    @settings(max_examples=50, deadline=None)
    def test_covering_respects_cell_budget(self, center: LatLng, level: int, radius: float):
        box = BoundingBox.around(center, radius)
        options = CoveringOptions(min_level=4, max_level=level, max_cells=12)
        covering = RegionCoverer(options).cover_box(box)
        assert 1 <= len(covering) <= options.max_cells
        assert all(cell.level <= options.max_level for cell in covering)


class TestDnsNameProperties:
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-", min_size=1, max_size=50))
    def test_normalize_idempotent(self, name: str):
        once = normalize_name(name)
        assert normalize_name(once) == once

    @given(points, st.integers(min_value=1, max_value=20))
    def test_spatial_names_valid_and_invertible(self, point: LatLng, level: int):
        from repro.discovery.naming import SpatialNaming
        from repro.dns.records import validate_name

        naming = SpatialNaming()
        cell = CellId.from_point(point, level)
        name = naming.cell_to_name(cell)
        validate_name(name)
        assert naming.name_to_cell(name) == cell


class TestQuadTreeProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=40.0, max_value=41.0, allow_nan=False),
                st.floats(min_value=-80.0, max_value=-79.0, allow_nan=False),
            ),
            min_size=0,
            max_size=80,
        ),
        st.tuples(
            st.floats(min_value=40.2, max_value=40.8),
            st.floats(min_value=-79.8, max_value=-79.2),
        ),
        st.floats(min_value=100.0, max_value=30_000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_radius_query_matches_brute_force(self, raw_points, query_center, radius):
        bounds = BoundingBox(40.0, -80.0, 41.0, -79.0)
        tree: QuadTree[int] = QuadTree(bounds)
        stored = []
        for index, (lat, lng) in enumerate(raw_points):
            point = LatLng(lat, lng)
            tree.insert(point, index)
            stored.append(point)
        center = LatLng(*query_center)
        expected = {i for i, p in enumerate(stored) if center.distance_to(p) <= radius}
        got = {value for _, value in tree.query_radius(center, radius)}
        assert got == expected


class TestTransformProperties:
    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimation_recovers_exact_transforms(self, scale, rotation, tx, ty):
        from repro.geometry.transform import SimilarityTransform

        truth = SimilarityTransform(scale, rotation, tx, ty, "src", "dst")
        source = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (13.0, 7.0)]
        destination = [truth.apply_xy(x, y) for x, y in source]
        estimated = estimate_similarity(source, destination, "src", "dst")
        for (sx, sy), (dx, dy) in zip(source, destination):
            gx, gy = estimated.apply_xy(sx, sy)
            assert math.hypot(gx - dx, gy - dy) < 1e-6 * max(1.0, scale * 20.0)


class TestStitchingProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=50.0, max_value=400.0),
        st.floats(min_value=0.0, max_value=359.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_chained_legs_always_stitch(self, leg_count, leg_length, bearing):
        from repro.routing.stitching import RouteLeg, RouteStitcher

        origin = LatLng(40.44, -79.95)
        legs = []
        cursor = origin
        for index in range(leg_count):
            end = cursor.destination(bearing, leg_length)
            legs.append(RouteLeg(f"server-{index}", (cursor, end), cursor.distance_to(end)))
            cursor = end
        destination = cursor
        stitched = RouteStitcher(max_gap_meters=1.0).stitch(origin, destination, legs)
        assert stitched.servers == tuple(f"server-{i}" for i in range(leg_count))
        assert stitched.length_meters() == pytest.approx(leg_count * leg_length, rel=0.02)
        assert stitched.connector_meters < 1.0 * leg_count + 1.0


class TestRoutingProperties:
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_ch_equals_dijkstra_on_random_grids(self, rows, cols, seed):
        import random as _random

        from repro.routing.contraction import build_contraction_hierarchy
        from repro.routing.graph import RoutingGraph
        from repro.routing.shortest_path import dijkstra

        rng = _random.Random(seed)
        graph = RoutingGraph()
        origin = LatLng(40.0, -80.0)
        for i in range(rows):
            for j in range(cols):
                graph.add_vertex(i * cols + j, origin.destination(0.0, i * 100.0).destination(90.0, j * 100.0))
        for i in range(rows):
            for j in range(cols):
                vertex = i * cols + j
                if j + 1 < cols and rng.random() < 0.9:
                    graph.connect(vertex, vertex + 1)
                if i + 1 < rows and rng.random() < 0.9:
                    graph.connect(vertex, vertex + cols)
        hierarchy = build_contraction_hierarchy(graph)
        source = rng.randrange(rows * cols)
        target = rng.randrange(rows * cols)
        from repro.routing.shortest_path import NoRouteError

        try:
            expected = dijkstra(graph, source, target).cost
        except NoRouteError:
            with pytest.raises(NoRouteError):
                hierarchy.query(source, target)
            return
        assert hierarchy.query(source, target).cost == pytest.approx(expected, rel=1e-9)
