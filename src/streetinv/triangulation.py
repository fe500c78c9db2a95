"""Estimating a 3D object center from a bundle of observation rays.

A bundle is two arrays: n ray origins and n unit directions, n x 3 each,
as `ObservationTable` rows give them. Its center is the point minimizing
the sum of squared perpendicular distances to all rays. That energy is a
convex quadratic in the center, so its minimizer solves the 3x3 normal
equations

    sum_i (I - d_i d_i^T) c = sum_i (I - d_i d_i^T) o_i

for ray origins o_i and unit directions d_i: the N-line midpoint
triangulation of Hartley & Zisserman, Multiple View Geometry (2nd ed.).
The matrix is singular exactly when every ray is parallel; such a bundle
has no unique center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateClusterError",
    "CenterEstimate",
    "estimate_center",
]

# A normal matrix whose smallest eigenvalue is at most this share of its
# trace is treated as singular: the rays are parallel to working precision.
PARALLEL_EIGEN_RATIO = 1e-12


class DegenerateClusterError(ValueError):
    """Raised when a ray bundle has no unique center: under 2 rays, or all parallel."""


@dataclass(eq=False)
class CenterEstimate:
    """Result of estimate_center: the center and per-ray residuals."""

    center: np.ndarray
    residuals: list[float]


def estimate_center(origins: np.ndarray, dirs: np.ndarray) -> CenterEstimate:
    """Least-squares closest point to a bundle of rays, solved in closed form.

    `origins` and `dirs` are n x 3: ray i starts at origins[i] with unit
    direction dirs[i]. Solves A c = b with A = sum(I - d d^T) and
    b = sum((I - d d^T) o) over the rays, through the eigendecomposition of
    the symmetric 3x3 matrix A. Residuals are in ray order.

    Raises:
        DegenerateClusterError: fewer than 2 rays, or all rays parallel.
    """
    if len(origins) < 2:
        raise DegenerateClusterError("center estimation requires at least 2 rays")
    a = len(origins) * np.eye(3) - dirs.T @ dirs
    b = origins.sum(axis=0) - dirs.T @ np.einsum("ij,ij->i", origins, dirs)
    w, v = np.linalg.eigh(a)
    if w[0] <= PARALLEL_EIGEN_RATIO * w.sum():
        raise DegenerateClusterError("all rays are parallel; no unique closest point")
    center = v @ ((v.T @ b) / w)
    # Explicit perpendicular form: nonnegative by construction, no
    # cancellation near exact intersections.
    offset = center - origins
    perp = offset - np.einsum("ij,ij->i", offset, dirs)[:, None] * dirs
    residuals = np.linalg.norm(perp, axis=1)
    return CenterEstimate(center=center, residuals=residuals.tolist())
