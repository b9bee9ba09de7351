"""Hierarchical spatial cells (an S2/H3-like decomposition).

The discovery layer (Section 5.1) relies on a *hierarchical* decomposition of
the earth's surface into cells whose identifiers can be written as domain
names.  The paper suggests S2 or H3; we implement a quadtree decomposition of
the latitude/longitude rectangle which offers the same properties the paper
needs:

* every cell at level ``L`` has exactly four children at level ``L + 1``;
* a cell's identifier is a prefix of all of its descendants' identifiers, so
  containment is a string-prefix test and DNS delegation follows the hierarchy
  naturally;
* any point maps to exactly one cell per level, and any region can be
  approximated by a small *covering* of cells (see ``covering.py``).

Cell tokens are strings of the digits ``0-3`` ("face" quadrants of the world
rectangle first, then successive quadrant refinements), e.g. ``"203113"`` is a
level-6 cell.  The empty token is the root cell covering the whole world.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng

MAX_LEVEL = 30
"""Deepest refinement level supported (sub-centimetre at the equator)."""

_WORLD = BoundingBox(-90.0, -180.0, 90.0, 180.0)

_DIGITS = ("0", "1", "2", "3")


@lru_cache(maxsize=65536)
def _bounds_of(token: str) -> BoundingBox:
    """Geographic bounds of a cell token (cached — tokens repeat heavily).

    Discovery enumerates the same handful of city cells for every request a
    fleet makes, so the successive-halving walk is paid once per distinct
    token instead of once per lookup.  BoundingBox is frozen, so sharing the
    instance is safe.
    """
    south, west, north, east = _WORLD.south, _WORLD.west, _WORLD.north, _WORLD.east
    for digit in token:
        value = int(digit)
        mid_lat = (south + north) / 2.0
        mid_lng = (west + east) / 2.0
        if value & 2:
            south = mid_lat
        else:
            north = mid_lat
        if value & 1:
            west = mid_lng
        else:
            east = mid_lng
    return BoundingBox(south, west, north, east)


def _grid_position(latitude: float, longitude: float, level: int) -> tuple[int, int]:
    """``(row, col)`` of the level-``level`` cell containing a point.

    Rows count south→north, columns west→east — the position
    :meth:`CellId.from_indices` turns into a token.  The coordinates must lie
    inside the world rectangle (a :class:`LatLng`'s, or a box's clamped to
    it).  ``int((value - origin) / step)`` can be one off where the quotient
    rounds across an integer, so it is corrected against the cell edges
    ``origin + k * step``: those are dyadic multiples of 45°, exact in binary
    floating point at every level up to ``MAX_LEVEL``, and are the same
    edges successive halving of the world (:func:`_bounds_of`) arrives at.
    """
    if not (0 <= level <= MAX_LEVEL):
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    side = 1 << level
    step = 180.0 / side
    row = int((latitude + 90.0) / step)
    if row >= side:
        row = side - 1
    elif -90.0 + row * step > latitude:
        row -= 1
    elif -90.0 + (row + 1) * step <= latitude:
        row += 1
    step = 360.0 / side
    col = int((longitude + 180.0) / step)
    if col >= side:
        col = side - 1
    elif -180.0 + col * step > longitude:
        col -= 1
    elif -180.0 + (col + 1) * step <= longitude:
        col += 1
    return row, col


@total_ordering
@dataclass(frozen=True, slots=True)
class CellId:
    """An identifier for one cell of the hierarchical decomposition."""

    token: str

    def __post_init__(self) -> None:
        if len(self.token) > MAX_LEVEL:
            raise ValueError(f"cell level {len(self.token)} exceeds MAX_LEVEL={MAX_LEVEL}")
        # str.strip runs in C; a per-character generator is ~10x slower and
        # this constructor sits on the discovery hot path.
        if self.token.strip("0123"):
            raise ValueError(f"invalid cell token {self.token!r}: digits must be 0-3")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def root(cls) -> "CellId":
        """The level-0 cell covering the whole world."""
        return cls("")

    @classmethod
    def from_point(cls, point: LatLng, level: int) -> "CellId":
        """The unique level-``level`` cell containing ``point``."""
        return cls.from_indices(*_grid_position(point.latitude, point.longitude, level), level)

    @classmethod
    @lru_cache(maxsize=65536)
    def from_indices(cls, row: int, col: int, level: int) -> "CellId":
        """The cell at integer grid position (``row``, ``col``) of ``level``.

        Rows count south→north and columns west→east; both must lie in
        ``[0, 2**level)``.  Each token digit packs one row bit (value 2) and
        one column bit (value 1), most significant first — the inverse of
        :meth:`indices`.  Grid enumeration (coverings of a box) uses this to
        step between adjacent cells without re-deriving each token from a
        floating-point point.
        """
        if not (0 <= level <= MAX_LEVEL):
            raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
        side = 1 << level
        if not (0 <= row < side and 0 <= col < side):
            raise ValueError(f"indices ({row}, {col}) outside level-{level} grid")
        digits = []
        for bit in range(level - 1, -1, -1):
            digits.append(_DIGITS[((row >> bit) & 1) * 2 + ((col >> bit) & 1)])
        return cls("".join(digits))

    def indices(self) -> tuple[int, int]:
        """This cell's (row, col) position in the level grid (inverse of
        :meth:`from_indices`)."""
        row = col = 0
        for ch in self.token:
            value = int(ch)
            row = (row << 1) | (value >> 1)
            col = (col << 1) | (value & 1)
        return row, col

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        return len(self.token)

    @property
    def is_root(self) -> bool:
        return not self.token

    def parent(self, level: int | None = None) -> "CellId":
        """Ancestor at ``level`` (default: the immediate parent)."""
        if level is None:
            level = self.level - 1
        if level < 0 or level > self.level:
            raise ValueError(f"invalid parent level {level} for cell at level {self.level}")
        return CellId(self.token[:level])

    def children(self) -> list["CellId"]:
        """The four child cells at the next level."""
        if self.level >= MAX_LEVEL:
            raise ValueError("cannot subdivide a cell at MAX_LEVEL")
        return [CellId(self.token + digit) for digit in "0123"]

    def contains(self, other: "CellId") -> bool:
        """True if ``other`` is this cell or one of its descendants."""
        return other.token.startswith(self.token)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def bounds(self) -> BoundingBox:
        """The geographic rectangle covered by this cell."""
        return _bounds_of(self.token)

    def center(self) -> LatLng:
        return self.bounds().center

    def contains_point(self, point: LatLng) -> bool:
        return self.bounds().contains(point)

    # ------------------------------------------------------------------
    # Ordering / representation
    # ------------------------------------------------------------------
    def __lt__(self, other: "CellId") -> bool:
        return (self.level, self.token) < (other.level, other.token)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.token or "<root>"
