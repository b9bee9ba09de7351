"""Synthetic indoor store maps with localization survey data.

An :class:`IndoorWorld` is the kind of map the paper argues organizations
will only serve themselves (Section 1, Section 2): a store surveyed in its
own local frame, with aisles, shelves stocked with products, an entrance
connecting to the street, installed beacons, image fingerprints captured on a
survey grid, and fiducial tags at known positions.

Besides the map itself, the generator produces everything a map server needs
to *answer* localization requests (the fingerprint databases) and everything
an experiment needs to *issue* them (ground-truth cue synthesis with
controllable noise).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.geometry.point import LatLng, LocalPoint
from repro.geometry.polygon import Polygon
from repro.geometry.projection import LocalProjection
from repro.localization.cues import (
    BeaconCue,
    BeaconReading,
    CueBundle,
    FiducialCue,
    GnssCue,
    ImageCue,
)
from repro.localization.fingerprint import (
    BEACON_MIN_RSSI_DBM,
    BeaconFingerprint,
    BeaconFingerprintDatabase,
    FiducialRegistry,
    ImageFingerprint,
    ImageFingerprintDatabase,
    rssi_at_distance,
)
from repro.mapserver.server import MapServer
from repro.osm.builder import MapBuilder
from repro.osm.elements import (
    TAG_ADDRESS,
    TAG_AMENITY,
    TAG_INDOOR,
    TAG_NAME,
    TAG_PRIVACY,
    TAG_PRODUCT,
    TAG_SHOP,
)
from repro.osm.mapdata import MapData
from repro.worldgen.products import Product, generate_catalog

IMAGE_DESCRIPTOR_DIMENSIONS = 16
"""Length of the synthetic visual descriptors."""


@lru_cache(maxsize=64)
def _descriptor_basis(seed: int) -> tuple[tuple[float, float, float], ...]:
    """The ``(x frequency, y frequency, phase)`` of each descriptor dimension.

    Fixed per store (its ``descriptor_seed``), so the generator is seeded and
    the 48 uniforms drawn once, not on every surveyed reference and every
    sensed cue; held as Python floats, the same doubles the arrays held.
    """
    generator = np.random.default_rng(seed)
    frequencies = generator.uniform(0.05, 0.4, size=(IMAGE_DESCRIPTOR_DIMENSIONS, 2))
    phases = generator.uniform(0.0, 2.0 * math.pi, size=IMAGE_DESCRIPTOR_DIMENSIONS)
    return tuple(
        (along_x, along_y, phase)
        for (along_x, along_y), phase in zip(frequencies.tolist(), phases.tolist())
    )


@dataclass
class IndoorWorld:
    """A generated store: map, frame, inventory and localization survey data."""

    name: str
    map_data: MapData
    projection: LocalProjection
    entrance: LatLng
    entrance_local: LocalPoint
    width_meters: float
    depth_meters: float
    beacons: dict[str, LocalPoint] = field(default_factory=dict)
    products: list[Product] = field(default_factory=list)
    product_locations: dict[str, LatLng] = field(default_factory=dict)
    beacon_db: BeaconFingerprintDatabase = field(default_factory=BeaconFingerprintDatabase)
    image_db: ImageFingerprintDatabase = field(default_factory=ImageFingerprintDatabase)
    fiducials: FiducialRegistry = field(default_factory=FiducialRegistry)
    descriptor_seed: int = 0

    # ------------------------------------------------------------------
    # Coordinate helpers
    # ------------------------------------------------------------------
    def local_to_geographic(self, point: LocalPoint) -> LatLng:
        return self.projection.to_geographic(point)

    def geographic_to_local(self, point: LatLng) -> LocalPoint:
        return self.projection.to_local(point)

    def contains_local(self, point: LocalPoint) -> bool:
        return 0.0 <= point.x <= self.width_meters and 0.0 <= point.y <= self.depth_meters

    def random_interior_point(self, rng: random.Random) -> LocalPoint:
        """A random point inside the store, in the store's local frame."""
        return LocalPoint(
            rng.uniform(1.0, self.width_meters - 1.0),
            rng.uniform(1.0, self.depth_meters - 1.0),
            self.projection.frame,
        )

    # ------------------------------------------------------------------
    # Cue synthesis (ground truth → what a client device would sense)
    # ------------------------------------------------------------------
    def image_descriptor_at(self, point: LocalPoint, noise: float = 0.0, rng: random.Random | None = None) -> tuple[float, ...]:
        """A deterministic location-dependent descriptor plus optional noise.

        The descriptor is a set of smooth sinusoidal functions of the local
        coordinates, so nearby positions have similar descriptors — the
        property image-retrieval localization relies on.
        """
        x, y = point.x, point.y
        values = [
            math.sin(along_x * x + along_y * y + phase)
            for along_x, along_y, phase in _descriptor_basis(self.descriptor_seed)
        ]
        if noise > 0.0:
            noise_rng = rng or random.Random(0)
            values = [value + noise_rng.gauss(0.0, noise) for value in values]
        return tuple(values)

    def sense_cues(
        self,
        true_position: LocalPoint,
        rng: random.Random,
        gnss_error_meters: float = 12.0,
        rssi_noise_db: float = 3.0,
        image_noise: float = 0.1,
        include_fiducial: bool = False,
    ) -> CueBundle:
        """What a device standing at ``true_position`` would sense.

        The GNSS cue is the true position corrupted by a large outdoor-grade
        error (indoors GPS is poor); beacon readings follow the path-loss
        model plus noise; the image cue is the local descriptor plus noise.
        """
        true_geo = self.local_to_geographic(true_position)

        gnss_bearing = rng.uniform(0.0, 360.0)
        gnss_offset = abs(rng.gauss(0.0, gnss_error_meters))
        gnss = GnssCue(true_geo.destination(gnss_bearing, gnss_offset), accuracy_meters=gnss_error_meters)

        readings = []
        for beacon_id, beacon_position in self.beacons.items():
            distance = true_position.distance_to(beacon_position)
            rssi = rssi_at_distance(distance) + rng.gauss(0.0, rssi_noise_db)
            if rssi >= BEACON_MIN_RSSI_DBM:
                readings.append(BeaconReading(beacon_id, rssi))
        beacons = BeaconCue(tuple(readings)) if readings else None

        image = ImageCue(self.image_descriptor_at(true_position, noise=image_noise, rng=rng))

        fiducial_cues: list[FiducialCue] = []
        if include_fiducial and self.fiducials.tags:
            tag_id, tag_location = next(iter(sorted(self.fiducials.tags.items())))
            # The camera-to-tag offset is observed in the device's (gravity +
            # compass aligned) frame, i.e. geographic east/north meters.
            east = tag_location.distance_to(
                LatLng(tag_location.latitude, true_geo.longitude)
            ) * (1.0 if true_geo.longitude >= tag_location.longitude else -1.0)
            north = tag_location.distance_to(
                LatLng(true_geo.latitude, tag_location.longitude)
            ) * (1.0 if true_geo.latitude >= tag_location.latitude else -1.0)
            fiducial_cues.append(
                FiducialCue(tag_id=tag_id, offset_east_meters=east, offset_north_meters=north)
            )

        return CueBundle(gnss=gnss, beacons=beacons, image=image, fiducials=fiducial_cues)

    # ------------------------------------------------------------------
    # Map server wiring
    # ------------------------------------------------------------------
    def equip_map_server(self, server: MapServer) -> None:
        """Install this store's fingerprint databases on its map server."""
        server.localization_service.beacon_db = self.beacon_db
        server.localization_service.image_db = self.image_db
        server.localization_service.fiducials = self.fiducials


def generate_store(
    name: str,
    anchor: LatLng,
    width_meters: float = 40.0,
    depth_meters: float = 30.0,
    aisle_count: int = 5,
    shelves_per_aisle: int = 6,
    product_count: int = 60,
    beacon_count: int = 6,
    rotation_degrees: float = 7.0,
    survey_grid_meters: float = 3.0,
    private_back_room: bool = True,
    street_address: str | None = None,
    seed: int = 0,
    operator: str | None = None,
) -> IndoorWorld:
    """Generate a grocery store anchored near ``anchor``.

    ``rotation_degrees`` models the imperfect alignment of the store's local
    frame with true north (Section 3: indoor maps are hard to georeference).
    The store entrance sits on the south wall and is the natural hand-over
    point to the outdoor map.
    """
    if aisle_count < 1 or shelves_per_aisle < 1:
        raise ValueError("a store needs at least one aisle with one shelf")
    rng = random.Random(seed)
    frame = f"{name}-frame"
    projection = LocalProjection(anchor=anchor, rotation_degrees=rotation_degrees, frame=frame)
    builder = MapBuilder(
        name=name,
        operator=operator or name,
        fidelity="3d",
        coordinate_frame=frame,
        projection=projection,
    )

    # Entrance on the south wall, midway along the width.
    entrance_local = LocalPoint(width_meters / 2.0, 0.0, frame)
    entrance_node = builder.add_local_node(
        entrance_local,
        {
            TAG_NAME: f"{name} entrance",
            TAG_INDOOR: "door",
            "entrance": "main",
            TAG_SHOP: "supermarket",
            **({TAG_ADDRESS: street_address} if street_address else {}),
        },
    )

    # A central corridor runs north from the entrance; aisles branch east-west.
    corridor_top = LocalPoint(width_meters / 2.0, depth_meters - 2.0, frame)
    corridor_nodes = [entrance_node]
    aisle_spacing = (depth_meters - 6.0) / max(1, aisle_count)
    catalog = generate_catalog(product_count, seed=seed)
    products_iter = iter(catalog)
    product_locations: dict[str, LatLng] = {}

    for aisle_index in range(aisle_count):
        y = 4.0 + aisle_index * aisle_spacing
        junction = builder.add_local_node(
            LocalPoint(width_meters / 2.0, y, frame),
            {TAG_INDOOR: "corridor", TAG_NAME: f"{name} aisle {aisle_index + 1} junction"},
        )
        corridor_nodes.append(junction)

        # Aisle way: west end — junction — east end.
        west_end = builder.add_local_node(
            LocalPoint(2.0, y, frame), {TAG_INDOOR: "corridor"}
        )
        east_end = builder.add_local_node(
            LocalPoint(width_meters - 2.0, y, frame), {TAG_INDOOR: "corridor"}
        )
        builder.add_way(
            [west_end, junction, east_end],
            {"aisle_path": "yes", TAG_NAME: f"{name} aisle {aisle_index + 1}"},
        )

        # Shelves along the aisle, stocked with products.
        for shelf_index in range(shelves_per_aisle):
            shelf_x = 3.0 + (width_meters - 6.0) * shelf_index / max(1, shelves_per_aisle - 1)
            shelf_offset = 1.2 if shelf_index % 2 == 0 else -1.2
            shelf_local = LocalPoint(shelf_x, y + shelf_offset, frame)
            product = next(products_iter, None)
            tags = {
                TAG_INDOOR: "shelf",
                TAG_NAME: f"{name} aisle {aisle_index + 1} shelf {shelf_index + 1}",
            }
            if product is not None:
                tags[TAG_PRODUCT] = product.name
                tags["sku"] = product.sku
                tags["category"] = product.category
                tags["keywords"] = " ".join(product.keywords)
            shelf_node = builder.add_local_node(shelf_local, tags)
            if product is not None:
                product_locations[product.name] = shelf_node.location

    corridor_end = builder.add_local_node(corridor_top, {TAG_INDOOR: "corridor"})
    corridor_nodes.append(corridor_end)
    builder.add_way(corridor_nodes, {"indoor_path": "yes", TAG_NAME: f"{name} main corridor"})

    # Checkout / customer service POIs.
    builder.add_local_node(
        LocalPoint(width_meters / 2.0 - 5.0, 2.0, frame),
        {TAG_NAME: f"{name} checkout", TAG_AMENITY: "checkout", TAG_INDOOR: "area"},
    )

    if private_back_room:
        builder.add_local_node(
            LocalPoint(width_meters - 3.0, depth_meters - 3.0, frame),
            {
                TAG_NAME: f"{name} stock room",
                TAG_INDOOR: "room",
                TAG_PRIVACY: "private",
            },
        )

    map_data = builder.build()

    # Coverage polygon: the store footprint (in geographic coordinates).
    corners_local = [
        LocalPoint(0.0, 0.0, frame),
        LocalPoint(width_meters, 0.0, frame),
        LocalPoint(width_meters, depth_meters, frame),
        LocalPoint(0.0, depth_meters, frame),
    ]
    footprint = Polygon([projection.to_geographic(corner) for corner in corners_local])
    map_data.set_coverage(footprint)

    world = IndoorWorld(
        name=name,
        map_data=map_data,
        projection=projection,
        entrance=entrance_node.location,
        entrance_local=entrance_local,
        width_meters=width_meters,
        depth_meters=depth_meters,
        products=catalog,
        product_locations=product_locations,
        descriptor_seed=seed,
    )

    _install_beacons(world, beacon_count, rng)
    _survey_fingerprints(world, survey_grid_meters)
    _install_fiducials(world)
    return world


def _install_beacons(world: IndoorWorld, beacon_count: int, rng: random.Random) -> None:
    """Place beacons roughly uniformly through the store."""
    for index in range(beacon_count):
        position = LocalPoint(
            rng.uniform(2.0, world.width_meters - 2.0),
            rng.uniform(2.0, world.depth_meters - 2.0),
            world.projection.frame,
        )
        world.beacons[f"{world.name}-beacon-{index}"] = position


def _survey_fingerprints(world: IndoorWorld, grid_meters: float) -> None:
    """Survey beacon and image fingerprints on a regular grid."""
    x = 1.0
    while x < world.width_meters:
        y = 1.0
        while y < world.depth_meters:
            point = LocalPoint(x, y, world.projection.frame)
            geographic = world.local_to_geographic(point)

            rssi = {}
            for beacon_id, beacon_position in world.beacons.items():
                value = rssi_at_distance(point.distance_to(beacon_position))
                if value >= BEACON_MIN_RSSI_DBM:
                    rssi[beacon_id] = value
            if rssi:
                world.beacon_db.add(BeaconFingerprint(geographic, rssi))

            world.image_db.add(
                ImageFingerprint(geographic, world.image_descriptor_at(point))
            )
            y += grid_meters
        x += grid_meters


def _install_fiducials(world: IndoorWorld) -> None:
    """Place fiducial tags at the entrance and the far corner."""
    entrance_geo = world.local_to_geographic(world.entrance_local)
    far_corner = world.local_to_geographic(
        LocalPoint(world.width_meters - 2.0, world.depth_meters - 2.0, world.projection.frame)
    )
    world.fiducials.add(f"{world.name}-tag-entrance", entrance_geo)
    world.fiducials.add(f"{world.name}-tag-back", far_corner)
