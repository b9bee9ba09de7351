"""Unit tests for the OSM-style map data model."""

from __future__ import annotations

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.osm.builder import MapBuilder
from repro.osm.elements import ElementRef, ElementType, Node, Relation, Way
from repro.osm.mapdata import MapData, MapDataError, MapMetadata


@pytest.fixture()
def simple_map() -> MapData:
    """Three nodes on a street plus one POI and one relation."""
    map_data = MapData(metadata=MapMetadata(name="simple", operator="test"))
    map_data.add_node(Node(1, LatLng(40.0, -80.0), {"name": "Corner A"}))
    map_data.add_node(Node(2, LatLng(40.001, -80.0), {"name": "Corner B"}))
    map_data.add_node(Node(3, LatLng(40.002, -80.0)))
    map_data.add_node(Node(4, LatLng(40.0005, -80.0005), {"amenity": "cafe", "name": "Cafe X"}))
    map_data.add_way(Way(10, [1, 2, 3], {"highway": "residential", "name": "Main Street"}))
    map_data.add_relation(
        Relation(100, [ElementRef(ElementType.WAY, 10), ElementRef(ElementType.NODE, 4)], {"type": "street"})
    )
    return map_data


class TestElements:
    def test_node_tag_helpers(self):
        node = Node(1, LatLng(0.0, 0.0), {"name": "X", "amenity": "cafe"})
        assert node.name == "X"
        assert node.has_tag("amenity")
        assert node.has_tag("amenity", "cafe")
        assert not node.has_tag("amenity", "bar")


class TestStructuralIntegrity:
    def test_duplicate_node_rejected(self, simple_map: MapData):
        with pytest.raises(MapDataError):
            simple_map.add_node(Node(1, LatLng(0.0, 0.0)))

    def test_way_with_missing_node_rejected(self, simple_map: MapData):
        with pytest.raises(MapDataError):
            simple_map.add_way(Way(11, [1, 99]))

    def test_relation_with_missing_member_rejected(self, simple_map: MapData):
        with pytest.raises(MapDataError):
            simple_map.add_relation(Relation(101, [ElementRef(ElementType.WAY, 999)]))

    def test_remove_referenced_node_rejected(self, simple_map: MapData):
        with pytest.raises(MapDataError):
            simple_map.remove_node(2)

    def test_remove_unreferenced_node(self, simple_map: MapData):
        simple_map.remove_node(4)
        assert simple_map.node_count == 3

    def test_unknown_lookups_raise(self, simple_map: MapData):
        with pytest.raises(MapDataError):
            simple_map.node(999)
        with pytest.raises(MapDataError):
            simple_map.way(999)
        with pytest.raises(MapDataError):
            simple_map.relation(999)


    @pytest.mark.parametrize(
        "element_type, element_id, present",
        [
            (ElementType.NODE, 1, True),
            (ElementType.NODE, 10, False),
            (ElementType.WAY, 10, True),
            (ElementType.WAY, 1, False),
            (ElementType.RELATION, 100, True),
            (ElementType.RELATION, 10, False),
        ],
    )
    def test_has_element_checks_the_typed_id_space(
        self, simple_map: MapData, element_type: ElementType, element_id: int, present: bool
    ):
        assert simple_map.has_element(element_type, element_id) is present

    def test_has_element_follows_removal(self, simple_map: MapData):
        simple_map.remove_node(4)
        assert not simple_map.has_element(ElementType.NODE, 4)
        assert simple_map.has_element(ElementType.NODE, 3)


class TestQueries:
    def test_counts(self, simple_map: MapData):
        assert simple_map.node_count == 4
        assert simple_map.way_count == 1
        assert simple_map.relation_count == 1

    def test_way_nodes_in_order(self, simple_map: MapData):
        nodes = simple_map.way_nodes(10)
        assert [n.node_id for n in nodes] == [1, 2, 3]

    def test_find_by_tag(self, simple_map: MapData):
        cafes = simple_map.find_nodes_by_tag("amenity", "cafe")
        assert [n.node_id for n in cafes] == [4]

    def test_nodes_near(self, simple_map: MapData):
        near = simple_map.nodes_near(LatLng(40.0, -80.0), 80.0)
        assert {n.node_id for n in near} == {1, 4}

    def test_nodes_in_box(self, simple_map: MapData):
        box = BoundingBox(39.9995, -80.001, 40.0012, -79.999)
        ids = {n.node_id for n in simple_map.nodes_in_box(box)}
        assert ids == {1, 2, 4}

    def test_nearest_nodes(self, simple_map: MapData):
        nearest = simple_map.nearest_nodes(LatLng(40.0021, -80.0), count=1)
        assert nearest[0].node_id == 3

    def test_spatial_index_updates_after_insert(self, simple_map: MapData):
        simple_map.nodes_near(LatLng(40.0, -80.0), 10.0)  # build index
        simple_map.add_node(Node(50, LatLng(40.0001, -80.0), {"name": "new"}))
        near = simple_map.nodes_near(LatLng(40.0001, -80.0), 5.0)
        assert any(n.node_id == 50 for n in near)


    def test_relations_iterates_in_insertion_order(self, simple_map: MapData):
        simple_map.add_relation(Relation(101, [ElementRef(ElementType.NODE, 1)], {"type": "site"}))
        assert [relation.relation_id for relation in simple_map.relations()] == [100, 101]
        assert [ref.element_id for ref in next(simple_map.relations()).members] == [10, 4]


class TestCoverage:
    def test_default_coverage_is_bbox(self, simple_map: MapData):
        coverage = simple_map.coverage
        for node in simple_map.nodes():
            assert coverage.contains(node.location)

    def test_explicit_coverage(self, simple_map: MapData):
        polygon = Polygon.regular(LatLng(40.001, -80.0), 500.0)
        simple_map.set_coverage(polygon)
        assert simple_map.coverage is polygon

    def test_empty_map_coverage_raises(self):
        empty = MapData()
        with pytest.raises(MapDataError):
            _ = empty.coverage
        with pytest.raises(MapDataError):
            empty.bounding_box()


class TestMerge:
    def test_merge_offsets_ids(self, simple_map: MapData):
        other = MapData(metadata=MapMetadata(name="other"))
        other.add_node(Node(1, LatLng(41.0, -80.0), {"name": "other node"}))
        other.add_node(Node(2, LatLng(41.001, -80.0)))
        other.add_way(Way(1, [1, 2], {"highway": "path"}))
        before_nodes = simple_map.node_count
        simple_map.merge(other, id_offset=1000)
        assert simple_map.node_count == before_nodes + 2
        assert simple_map.node(1001).name == "other node"
        assert simple_map.way(1001).node_ids == [1001, 1002]

    def test_merge_collision_rejected(self, simple_map: MapData):
        other = MapData()
        other.add_node(Node(1, LatLng(41.0, -80.0)))
        with pytest.raises(MapDataError):
            simple_map.merge(other, id_offset=0)

    def test_max_element_id(self, simple_map: MapData):
        assert simple_map.max_element_id() == 100


class TestBuilder:
    def test_builder_auto_ids(self):
        builder = MapBuilder(name="built")
        a = builder.add_node(LatLng(40.0, -80.0), {"name": "a"})
        b = builder.add_node(LatLng(40.001, -80.0))
        way = builder.add_way([a, b], {"highway": "path"})
        built = builder.build()
        assert a.node_id != b.node_id
        assert built.way(way.way_id).node_ids == [a.node_id, b.node_id]

    def test_add_local_node_requires_projection(self):
        from repro.geometry.point import LocalPoint

        builder = MapBuilder(name="built")
        with pytest.raises(ValueError):
            builder.add_local_node(LocalPoint(1.0, 1.0))

    def test_add_local_node_with_projection(self):
        from repro.geometry.point import LocalPoint
        from repro.geometry.projection import LocalProjection

        projection = LocalProjection(LatLng(40.0, -80.0), frame="store")
        builder = MapBuilder(name="built", projection=projection)
        node = builder.add_local_node(LocalPoint(10.0, 5.0, "store"), {"name": "shelf"})
        assert node.local_position == LocalPoint(10.0, 5.0, "store")
        assert node.location.distance_to(LatLng(40.0, -80.0)) == pytest.approx(11.18, rel=0.05)

    def test_builder_relation(self):
        builder = MapBuilder(name="built")
        a = builder.add_node(LatLng(40.0, -80.0))
        b = builder.add_node(LatLng(40.001, -80.0))
        way = builder.add_way([a, b])
        relation = builder.add_relation(
            [(ElementType.WAY, way.way_id, "outer"), (ElementType.NODE, a.node_id, "")],
            {"type": "building"},
        )
        built = builder.build()
        assert built.relation(relation.relation_id).members[0].role == "outer"
