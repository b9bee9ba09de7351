"""Planar similarity / affine transforms between coordinate frames.

This is the computational core of MapCruncher-style alignment (Section 5.2,
tile rendering): given a handful of manual point correspondences between two
heterogeneous maps, estimate the transform that best aligns one frame with the
other, then use it to re-project tiles, routes, or localization results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.point import LocalPoint


@dataclass(frozen=True, slots=True)
class SimilarityTransform:
    """A 2-D similarity transform: uniform scale, rotation, translation.

    ``apply`` maps source-frame coordinates to destination-frame coordinates:
    ``dst = scale * R(theta) @ src + t``.
    """

    scale: float
    rotation_radians: float
    translation_x: float
    translation_y: float
    source_frame: str = "source"
    destination_frame: str = "destination"

    def apply(self, point: LocalPoint) -> LocalPoint:
        if point.frame != self.source_frame:
            raise ValueError(
                f"point frame {point.frame!r} does not match transform source {self.source_frame!r}"
            )
        cos_t = math.cos(self.rotation_radians)
        sin_t = math.sin(self.rotation_radians)
        x = self.scale * (cos_t * point.x - sin_t * point.y) + self.translation_x
        y = self.scale * (sin_t * point.x + cos_t * point.y) + self.translation_y
        return LocalPoint(x, y, self.destination_frame)

    def apply_xy(self, x: float, y: float) -> tuple[float, float]:
        cos_t = math.cos(self.rotation_radians)
        sin_t = math.sin(self.rotation_radians)
        return (
            self.scale * (cos_t * x - sin_t * y) + self.translation_x,
            self.scale * (sin_t * x + cos_t * y) + self.translation_y,
        )

    def inverse(self) -> "SimilarityTransform":
        """Transform mapping destination-frame points back to the source frame."""
        if self.scale == 0:
            raise ValueError("cannot invert a transform with zero scale")
        inv_scale = 1.0 / self.scale
        cos_t = math.cos(-self.rotation_radians)
        sin_t = math.sin(-self.rotation_radians)
        tx = -inv_scale * (cos_t * self.translation_x - sin_t * self.translation_y)
        ty = -inv_scale * (sin_t * self.translation_x + cos_t * self.translation_y)
        return SimilarityTransform(
            inv_scale, -self.rotation_radians, tx, ty,
            source_frame=self.destination_frame,
            destination_frame=self.source_frame,
        )

    @classmethod
    def identity(cls, frame: str = "local") -> "SimilarityTransform":
        return cls(1.0, 0.0, 0.0, 0.0, source_frame=frame, destination_frame=frame)


def estimate_similarity(
    source_points: Sequence[tuple[float, float]],
    destination_points: Sequence[tuple[float, float]],
    source_frame: str = "source",
    destination_frame: str = "destination",
) -> SimilarityTransform:
    """Least-squares similarity transform from point correspondences.

    Implements the Umeyama closed-form solution.  At least two distinct
    correspondences are required; with exactly two the fit is exact, with more
    it is least-squares (this is what lets noisy manual correspondences still
    give a usable alignment, the MapCruncher scenario).
    """
    if len(source_points) != len(destination_points):
        raise ValueError("source and destination correspondence counts differ")
    if len(source_points) < 2:
        raise ValueError("at least two correspondences are required")

    src = np.asarray(source_points, dtype=float)
    dst = np.asarray(destination_points, dtype=float)

    src_mean = src.mean(axis=0)
    dst_mean = dst.mean(axis=0)
    src_centered = src - src_mean
    dst_centered = dst - dst_mean

    src_var = float((src_centered**2).sum()) / len(src)
    if src_var < 1e-18:
        raise ValueError("source correspondences are degenerate (all identical)")

    covariance = dst_centered.T @ src_centered / len(src)
    u, singular_values, vt = np.linalg.svd(covariance)
    sign = np.eye(2)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[1, 1] = -1.0
    rotation_matrix = u @ sign @ vt
    scale = float(np.trace(np.diag(singular_values) @ sign)) / src_var
    rotation = math.atan2(rotation_matrix[1, 0], rotation_matrix[0, 0])
    translation = dst_mean - scale * rotation_matrix @ src_mean

    return SimilarityTransform(
        scale=scale,
        rotation_radians=rotation,
        translation_x=float(translation[0]),
        translation_y=float(translation[1]),
        source_frame=source_frame,
        destination_frame=destination_frame,
    )


def alignment_residual_meters(
    transform: SimilarityTransform,
    source_points: Sequence[tuple[float, float]],
    destination_points: Sequence[tuple[float, float]],
) -> float:
    """Root-mean-square residual of a fitted transform over correspondences."""
    if len(source_points) != len(destination_points) or not source_points:
        raise ValueError("correspondence lists must be non-empty and equal length")
    total = 0.0
    for (sx, sy), (dx, dy) in zip(source_points, destination_points):
        tx, ty = transform.apply_xy(sx, sy)
        total += (tx - dx) ** 2 + (ty - dy) ** 2
    return math.sqrt(total / len(source_points))
