"""The centralized preprocessing pipeline (Figure 1).

"The map data of the world is preprocessed into different forms required for
each location-based service.  For example, to provide the routing service,
map data might be converted to a graph and then preprocessed using the
contraction hierarchies algorithm... The tile rendering service might
pre-render tiles... Geocode, reverse geocode, and location-based search would
involve indexing map nodes and their metadata against geographic coordinates"
(Section 4.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.mapserver.geocode import GeocodeIndex
from repro.mapserver.search import SearchIndex
from repro.osm.mapdata import MapData
from repro.routing.contraction import ContractionHierarchy, build_contraction_hierarchy
from repro.routing.graph import RoutingGraph, extract_graph
from repro.tiles.renderer import TileRenderer
from repro.tiles.tile_math import tiles_for_box


@dataclass
class PreprocessingReport:
    """What the pipeline produced and how long each stage took (seconds)."""

    graph_vertices: int = 0
    graph_edges: int = 0
    ch_shortcuts: int = 0
    geocode_entries: int = 0
    search_entries: int = 0
    tiles_prerendered: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class PreprocessedData:
    """The artefacts the centralized services read at query time."""

    graph: RoutingGraph
    hierarchy: ContractionHierarchy | None
    geocode_index: GeocodeIndex
    search_index: SearchIndex
    tile_renderer: TileRenderer
    report: PreprocessingReport


def preprocess_world_map(
    world_map: MapData,
    use_contraction_hierarchy: bool = True,
    prerender_zoom: int | None = None,
) -> PreprocessedData:
    """Run the full Figure-1 preprocessing pipeline over a merged world map."""
    report = PreprocessingReport()

    start = time.perf_counter()
    # The point of this pipeline is to *measure* the Figure-1 preprocessing
    # cost, so every stage builds afresh rather than reading the map's own.
    graph = extract_graph(world_map)
    report.stage_seconds["graph_build"] = time.perf_counter() - start
    report.graph_vertices = graph.vertex_count
    report.graph_edges = graph.edge_count

    hierarchy = None
    if use_contraction_hierarchy and graph.vertex_count > 1:
        start = time.perf_counter()
        hierarchy = build_contraction_hierarchy(graph)
        report.stage_seconds["contraction_hierarchy"] = time.perf_counter() - start
        report.ch_shortcuts = hierarchy.shortcut_count

    start = time.perf_counter()
    geocode_index = GeocodeIndex(world_map)
    report.stage_seconds["geocode_index"] = time.perf_counter() - start
    report.geocode_entries = geocode_index.entry_count

    start = time.perf_counter()
    search_index = SearchIndex(world_map)
    report.stage_seconds["search_index"] = time.perf_counter() - start
    report.search_entries = search_index.indexed_nodes

    tile_renderer = TileRenderer(world_map)
    if prerender_zoom is not None and world_map.node_count:
        start = time.perf_counter()
        coordinates = tiles_for_box(world_map.bounding_box(), prerender_zoom)
        tile_renderer.prerender(coordinates)
        report.stage_seconds["tile_prerender"] = time.perf_counter() - start
        report.tiles_prerendered = len(coordinates)

    return PreprocessedData(
        graph=graph,
        hierarchy=hierarchy,
        geocode_index=geocode_index,
        search_index=search_index,
        tile_renderer=tile_renderer,
        report=report,
    )
