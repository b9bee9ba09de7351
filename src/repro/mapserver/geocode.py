"""Forward and reverse geocoding within one map.

Forward geocode converts a textual address to a map node/location; reverse
geocode converts a location to the nearest meaningful map node (Section 4,
"Forward and reverse geocode").  Each map server indexes only its own map,
which is what makes the federated flow in Section 5.2 a two-step process:
coarse geocode on a world map, then precise geocode inside discovered maps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.geometry.point import LatLng
from repro.osm.elements import (
    TAG_ADDRESS,
    TAG_CITY,
    TAG_HOUSE_NUMBER,
    TAG_NAME,
    TAG_STREET,
    Node,
)
from repro.osm.mapdata import MapData
from repro.simulation.lru import answer_memo


@dataclass(frozen=True, slots=True)
class Address:
    """A hierarchical textual address."""

    free_text: str | None = None
    house_number: str | None = None
    street: str | None = None
    city: str | None = None
    place_name: str | None = None

    def as_query(self) -> str:
        """A single normalised query string for matching."""
        if self.free_text:
            return _normalise(self.free_text)
        parts = [self.place_name, self.house_number, self.street, self.city]
        return _normalise(" ".join(part for part in parts if part))

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Parse a free-form address string into components (best effort)."""
        pieces = [piece.strip() for piece in text.split(",") if piece.strip()]
        house_number = None
        street = None
        city = None
        place_name = None
        if pieces:
            first = pieces[0]
            match = re.match(r"^(\d+[a-zA-Z]?)\s+(.*)$", first)
            if match:
                house_number, street = match.group(1), match.group(2)
            else:
                place_name = first
        if len(pieces) >= 2:
            city = pieces[-1]
            if len(pieces) >= 3 and street is None:
                street = pieces[1]
        return cls(
            free_text=text,
            house_number=house_number,
            street=street,
            city=city,
            place_name=place_name,
        )


@dataclass(frozen=True, slots=True)
class GeocodeResult:
    """One candidate returned by forward geocoding."""

    node_id: int
    location: LatLng
    label: str
    score: float
    map_name: str


@dataclass(frozen=True, slots=True)
class ReverseGeocodeResult:
    """The node snapped to by reverse geocoding."""

    node_id: int
    location: LatLng
    label: str
    distance_meters: float
    map_name: str


def _normalise(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip().lower())


def _tokenise(text: str) -> set[str]:
    return {token for token in re.split(r"[^a-z0-9]+", _normalise(text)) if token}


@dataclass
class GeocodeIndex:
    """Token index over a map's addressable nodes, as the map was when built
    (:class:`GeocodeService` holds it on the map, so a changed map gets a new
    one)."""

    map_data: MapData
    _entries: list[tuple[int, set[str], str]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        for node in self.map_data.nodes():
            label = self._label_for(node)
            if not label:
                continue
            tokens = _tokenise(label)
            extra = node.tags.get(TAG_ADDRESS)
            if extra:
                tokens |= _tokenise(extra)
            if tokens:
                self._entries.append((node.node_id, tokens, label))

    @staticmethod
    def _label_for(node: Node) -> str:
        """A human-readable label for an addressable node."""
        name = node.tags.get(TAG_NAME)
        street = node.tags.get(TAG_STREET)
        house = node.tags.get(TAG_HOUSE_NUMBER)
        city = node.tags.get(TAG_CITY)
        parts = []
        if name:
            parts.append(name)
        if house and street:
            parts.append(f"{house} {street}")
        elif street:
            parts.append(street)
        if city:
            parts.append(city)
        return ", ".join(parts)

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def lookup(
        self,
        address: Address,
        limit: int = 5,
        min_score: float = 0.3,
        visible: Callable[[Node], bool] | None = None,
    ) -> list[GeocodeResult]:
        """Best-matching addressable nodes for an address query.

        ``min_score`` filters out incidental single-token matches (every city
        has thousands of nodes containing the token "street"), so an address
        that genuinely is not in this map returns an empty list rather than a
        noise match.  ``visible`` (``None``: every node) drops candidates
        before the ``limit`` cut, so a restricted caller still gets up to
        ``limit`` results.
        """
        query_tokens = _tokenise(address.as_query())
        if not query_tokens:
            return []
        # Rank on (-score, entry index): the order a stable descending sort
        # on score gives, without building a result per scanned entry.
        query_size = len(query_tokens)
        ranked: list[tuple[float, int, int, str]] = []
        for position, (node_id, tokens, label) in enumerate(self._entries):
            overlap = len(query_tokens & tokens)
            if not overlap:
                continue
            precision = overlap / query_size
            recall = overlap / len(tokens)
            score = 0.7 * precision + 0.3 * recall
            if score < min_score:
                continue
            if visible is not None and not visible(self.map_data.node(node_id)):
                continue
            ranked.append((-score, position, node_id, label))
        ranked.sort()
        map_name = self.map_data.metadata.name
        return [
            GeocodeResult(node_id, self.map_data.node(node_id).location, label, -negated_score, map_name)
            for negated_score, _, node_id, label in ranked[:limit]
        ]


@dataclass
class GeocodeService:
    """Forward and reverse geocode over one map.

    A forward geocode is a pure function of the request and the map, so the
    map holds its index and an answer memo (:meth:`MapData.derive`): each
    distinct request is scanned once per state of the map, and
    ``queries_served`` counts every request either way.
    """

    map_data: MapData
    queries_served: int = field(default=0, init=False)

    @property
    def index(self) -> GeocodeIndex:
        return self.map_data.derive("geocode index", GeocodeIndex)

    def geocode(
        self,
        address: Address,
        limit: int = 5,
        visible: Callable[[Node], bool] | None = None,
    ) -> list[GeocodeResult]:
        """Forward geocode an address within this map."""
        self.queries_served += 1
        # ``visible`` is in the key: callers with different views of the map
        # never share an answer.
        key = (address, limit, visible)
        answers = self.map_data.derive("geocode answers", answer_memo)
        answer = answers.lookup(key)
        if answer is None:
            answer = tuple(self.index.lookup(address, limit, visible=visible))
            answers.store(key, answer)
        return list(answer)

    def reverse_geocode(self, location: LatLng, max_distance_meters: float = 250.0) -> ReverseGeocodeResult | None:
        """Snap a location to the nearest named/addressable node within range."""
        self.queries_served += 1
        candidates = self.map_data.nodes_near(location, max_distance_meters)
        best: tuple[float, Node] | None = None
        for node in candidates:
            label = GeocodeIndex._label_for(node)
            if not label:
                continue
            distance = location.distance_to(node.location)
            if best is None or distance < best[0]:
                best = (distance, node)
        if best is None:
            return None
        distance, node = best
        return ReverseGeocodeResult(
            node_id=node.node_id,
            location=node.location,
            label=GeocodeIndex._label_for(node),
            distance_meters=distance,
            map_name=self.map_data.metadata.name,
        )
