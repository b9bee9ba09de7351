"""OpenStreetMap-style map elements.

Section 3 of the paper adopts the OpenStreetMap data model: a map consists of
*nodes* (points), *ways* (ordered node lists forming polylines/polygons) and
*relations* (collections of other elements), each carrying free-form tag
metadata.  These classes are the common currency passed between world
generators, map servers, the centralized baseline and every location-based
service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.geometry.point import LatLng, LocalPoint


class ElementType(str, Enum):
    """The three OSM element kinds."""

    NODE = "node"
    WAY = "way"
    RELATION = "relation"


@dataclass(frozen=True, slots=True)
class ElementRef:
    """A typed reference to a map element, used inside relations."""

    element_type: ElementType
    element_id: int
    role: str = ""


@dataclass(slots=True)
class Node:
    """A point feature.

    A node always has a position in the map's own frame.  When the map is
    georeferenced the ``location`` is a :class:`LatLng`; maps kept purely in a
    local frame also populate ``local_position`` and may leave ``location`` as
    a best-effort estimate (Section 3: indoor maps are hard to align).
    """

    node_id: int
    location: LatLng
    tags: dict[str, str] = field(default_factory=dict)
    local_position: LocalPoint | None = None

    def has_tag(self, key: str, value: str | None = None) -> bool:
        if key not in self.tags:
            return False
        return value is None or self.tags[key] == value

    @property
    def name(self) -> str | None:
        return self.tags.get("name")


@dataclass(slots=True)
class Way:
    """An ordered polyline/polygon of node references."""

    way_id: int
    node_ids: list[int] = field(default_factory=list)
    tags: dict[str, str] = field(default_factory=dict)

    def has_tag(self, key: str, value: str | None = None) -> bool:
        if key not in self.tags:
            return False
        return value is None or self.tags[key] == value

    @property
    def name(self) -> str | None:
        return self.tags.get("name")


@dataclass(slots=True)
class Relation:
    """A collection of member elements with roles (e.g. a building with floors)."""

    relation_id: int
    members: list[ElementRef] = field(default_factory=list)
    tags: dict[str, str] = field(default_factory=dict)

    def has_tag(self, key: str, value: str | None = None) -> bool:
        if key not in self.tags:
            return False
        return value is None or self.tags[key] == value

    @property
    def name(self) -> str | None:
        return self.tags.get("name")


# Well-known tag keys used throughout the library.  Keeping them as module
# constants avoids typo'd string literals scattered across services.
TAG_NAME = "name"
TAG_HIGHWAY = "highway"
TAG_BUILDING = "building"
TAG_INDOOR = "indoor"
TAG_AMENITY = "amenity"
TAG_SHOP = "shop"
TAG_PRODUCT = "product"
TAG_ADDRESS = "addr:full"
TAG_STREET = "addr:street"
TAG_HOUSE_NUMBER = "addr:housenumber"
TAG_CITY = "addr:city"
TAG_PRIVACY = "privacy"
