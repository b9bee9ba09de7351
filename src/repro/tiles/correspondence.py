"""MapCruncher-style alignment from manual correspondences.

Section 5.2 (Tile rendering): "stitching together map data in different
coordinates and projection systems can be done using manual correspondences
between maps (e.g., MapCruncher)."

A :class:`CorrespondenceSet` collects pairs of (local-frame point, geographic
point) that a human operator identified as the same physical feature; from
them an alignment — a :class:`repro.geometry.transform.SimilarityTransform`
composed with a :class:`repro.geometry.projection.LocalProjection` — is
estimated, letting the client re-project a private map's content into the
global frame for display alongside outdoor tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng, LocalPoint
from repro.geometry.projection import LocalProjection
from repro.geometry.transform import (
    SimilarityTransform,
    alignment_residual_meters,
    estimate_similarity,
)
from repro.simulation.metrics import float_sum


@dataclass(frozen=True, slots=True)
class Correspondence:
    """One manually identified pair: local map point ↔ geographic point."""

    local_point: LocalPoint
    geographic_point: LatLng


@dataclass
class MapAlignment:
    """The estimated alignment of a local frame into the geographic frame."""

    transform: SimilarityTransform
    projection: LocalProjection
    rms_error_meters: float
    correspondence_count: int

    def local_to_geographic(self, point: LocalPoint) -> LatLng:
        """Re-project a local-frame point into geographic coordinates."""
        aligned = self.transform.apply(point)
        return self.projection.to_geographic(aligned)

    def geographic_to_local(self, point: LatLng) -> LocalPoint:
        """Project a geographic point back into the source local frame."""
        projected = self.projection.to_local(point)
        inverse = self.transform.inverse()
        return inverse.apply(LocalPoint(projected.x, projected.y, inverse.source_frame))


@dataclass
class CorrespondenceSet:
    """A growing set of manual correspondences for one local map."""

    local_frame: str
    correspondences: list[Correspondence] = field(default_factory=list)

    def add(self, local_point: LocalPoint, geographic_point: LatLng) -> None:
        if local_point.frame != self.local_frame:
            raise ValueError(
                f"correspondence local frame {local_point.frame!r} does not match set frame {self.local_frame!r}"
            )
        self.correspondences.append(Correspondence(local_point, geographic_point))

    def __len__(self) -> int:
        return len(self.correspondences)

    def estimate_alignment(self) -> MapAlignment:
        """Estimate the local→geographic alignment from the correspondences.

        The geographic side is first projected into a tangent plane anchored
        at the centroid of the geographic correspondence points; a similarity
        transform is then fitted between the two planar point sets.
        """
        if len(self.correspondences) < 2:
            raise ValueError("at least two correspondences are required to estimate an alignment")

        anchor_lat = float_sum(c.geographic_point.latitude for c in self.correspondences) / len(self)
        anchor_lng = float_sum(c.geographic_point.longitude for c in self.correspondences) / len(self)
        projection = LocalProjection(LatLng(anchor_lat, anchor_lng), frame="aligned")

        source = [(c.local_point.x, c.local_point.y) for c in self.correspondences]
        destination = []
        for correspondence in self.correspondences:
            projected = projection.to_local(correspondence.geographic_point)
            destination.append((projected.x, projected.y))

        transform = estimate_similarity(
            source, destination, source_frame=self.local_frame, destination_frame="aligned"
        )
        rms = alignment_residual_meters(transform, source, destination)
        return MapAlignment(
            transform=transform,
            projection=projection,
            rms_error_meters=rms,
            correspondence_count=len(self),
        )
