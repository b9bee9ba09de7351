"""Unit tests for map validation."""

from __future__ import annotations

from repro.geometry.point import LatLng, LocalPoint
from repro.geometry.projection import LocalProjection
from repro.osm.builder import MapBuilder
from repro.osm.elements import ElementRef, ElementType, Node, Relation, Way
from repro.osm.mapdata import MapData, MapMetadata
from repro.osm.validation import Severity, has_errors, validate_map


def _sample_map() -> MapData:
    projection = LocalProjection(LatLng(40.0, -80.0), rotation_degrees=5.0, frame="store")
    builder = MapBuilder(name="sample", operator="org", projection=projection, coordinate_frame="store")
    a = builder.add_local_node(LocalPoint(0.0, 0.0, "store"), {"name": "entrance"})
    b = builder.add_local_node(LocalPoint(10.0, 0.0, "store"), {"name": "aisle end"})
    builder.add_way([a, b], {"indoor_path": "yes"})
    builder.add_relation([(ElementType.NODE, a.node_id, "door")], {"type": "entrances"})
    return builder.build()


class TestValidation:
    def test_clean_map_has_no_errors(self):
        issues = validate_map(_sample_map())
        assert not has_errors(issues)

    def test_empty_map_is_error(self):
        issues = validate_map(MapData(metadata=MapMetadata(name="x")))
        assert has_errors(issues)
        assert any(issue.code == "map.empty" for issue in issues)

    def test_unnamed_map_warns(self):
        map_data = MapData()
        map_data.add_node(Node(1, LatLng(0.0, 0.0)))
        issues = validate_map(map_data)
        assert any(issue.code == "metadata.name" for issue in issues)
        assert not has_errors(issues)

    def test_short_way_is_error(self):
        map_data = MapData(metadata=MapMetadata(name="x"))
        map_data.add_node(Node(1, LatLng(0.0, 0.0)))
        map_data._ways[5] = Way(5, [1])  # bypass add_way's checks deliberately
        issues = validate_map(map_data)
        assert any(issue.code == "way.too_short" for issue in issues)

    def test_dangling_way_reference_is_error(self):
        map_data = MapData(metadata=MapMetadata(name="x"))
        map_data.add_node(Node(1, LatLng(0.0, 0.0)))
        map_data._ways[5] = Way(5, [1, 99])
        issues = validate_map(map_data)
        assert has_errors(issues)
        assert any(issue.code == "way.dangling_ref" for issue in issues)

    def test_repeated_node_warns(self):
        map_data = MapData(metadata=MapMetadata(name="x"))
        map_data.add_node(Node(1, LatLng(0.0, 0.0)))
        map_data.add_node(Node(2, LatLng(0.001, 0.0)))
        map_data.add_way(Way(5, [1, 1, 2]))
        issues = validate_map(map_data)
        assert any(issue.code == "way.repeated_node" for issue in issues)

    def test_empty_relation_warns(self):
        map_data = MapData(metadata=MapMetadata(name="x"))
        map_data.add_node(Node(1, LatLng(0.0, 0.0)))
        map_data.add_relation(Relation(7, []))
        issues = validate_map(map_data)
        assert any(issue.code == "relation.empty" for issue in issues)

    def test_dangling_relation_reference_is_error(self):
        map_data = MapData(metadata=MapMetadata(name="x"))
        map_data.add_node(Node(1, LatLng(0.0, 0.0)))
        map_data._relations[7] = Relation(7, [ElementRef(ElementType.NODE, 42)])
        issues = validate_map(map_data)
        assert has_errors(issues)

    def test_nodes_outside_coverage_warn(self):
        from repro.geometry.polygon import Polygon

        map_data = MapData(metadata=MapMetadata(name="x"))
        map_data.add_node(Node(1, LatLng(0.0, 0.0)))
        map_data.add_node(Node(2, LatLng(10.0, 10.0)))
        map_data.set_coverage(Polygon.regular(LatLng(0.0, 0.0), 1000.0))
        issues = validate_map(map_data)
        assert any(issue.code == "coverage.nodes_outside" for issue in issues)

    def test_severity_levels(self):
        map_data = MapData(metadata=MapMetadata(name="x"))
        map_data.add_node(Node(1, LatLng(0.0, 0.0)))
        issues = validate_map(map_data)
        assert all(isinstance(issue.severity, Severity) for issue in issues)
