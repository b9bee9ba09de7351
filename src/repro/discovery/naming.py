"""Encoding spatial cells as hierarchical domain names.

Section 5.1: "we can leverage spatial indexing systems (e.g., S2, H3) to
convert locations to hierarchical domain names.  A polygonal region, or a
zone, can be approximated by a collection of domain names."

A cell token like ``"2031"`` becomes the domain name
``"1.3.0.2.<suffix>"`` — one DNS label per cell digit, least significant
(deepest) first, so that DNS's suffix-based delegation mirrors the cell
hierarchy: the authority for cell ``"20"`` can delegate all of its
descendants by delegating the name ``"0.2.<suffix>"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.records import normalize_name
from repro.spatialindex.cellid import CellId

DEFAULT_DISCOVERY_SUFFIX = "loc.openflame.example"
"""Default DNS suffix under which spatial names live."""


@dataclass(frozen=True, slots=True)
class SpatialNaming:
    """Bidirectional codec between cells and domain names under one suffix."""

    suffix: str = DEFAULT_DISCOVERY_SUFFIX

    def __post_init__(self) -> None:
        object.__setattr__(self, "suffix", normalize_name(self.suffix))
        if not self.suffix:
            raise ValueError("discovery suffix must be non-empty")

    def cell_to_name(self, cell: CellId) -> str:
        """Domain name for a cell (the root cell maps to the bare suffix)."""
        if cell.is_root:
            return self.suffix
        labels = ".".join(reversed(cell.token))
        return f"{labels}.{self.suffix}"

    def name_to_cell(self, name: str) -> CellId:
        """Inverse of :meth:`cell_to_name`; raises ``ValueError`` for foreign names."""
        normalized = normalize_name(name)
        if normalized == self.suffix:
            return CellId.root()
        suffix_with_dot = "." + self.suffix
        if not normalized.endswith(suffix_with_dot):
            raise ValueError(f"{name!r} is not under discovery suffix {self.suffix!r}")
        prefix = normalized[: -len(suffix_with_dot)]
        labels = prefix.split(".")
        token = "".join(reversed(labels))
        return CellId(token)

    def ancestor_names(self, cell: CellId) -> list[str]:
        """Domain names of the cell and all of its ancestors, deepest first."""
        names = []
        current = cell
        while True:
            names.append(self.cell_to_name(current))
            if current.is_root:
                break
            current = current.parent()
        return names
