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
    "ray_ray_distance",
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


def ray_ray_distance(origin_a, dir_a, origin_b, dir_b) -> float:
    """Minimum distance between two rays (half-lines, parameters >= 0).

    Each ray is a 3-vector origin and a unit 3-vector direction. Solves the
    closest-approach problem for the two infinite lines and clamps negative
    ray parameters to the origins, so points behind either camera never
    count as an approach.
    """
    w0 = origin_a - origin_b
    d1, d2 = dir_a, dir_b
    b_dot = float(np.dot(d1, d2))
    denom = 1.0 - b_dot * b_dot  # |d1|=|d2|=1
    e = float(np.dot(d1, w0))
    f = float(np.dot(d2, w0))
    if denom < 1e-12:
        # Parallel rays: project one origin on the other ray.
        t1 = max(0.0, -e)
        p1 = origin_a + t1 * d1
        t2 = max(0.0, float(np.dot(p1 - origin_b, d2)))
        return float(np.linalg.norm(p1 - (origin_b + t2 * d2)))
    t1 = (b_dot * f - e) / denom
    t2 = (f - b_dot * e) / denom
    if t1 < 0.0 or t2 < 0.0:
        # Closest approach of a clamped pair lies with at least one
        # parameter at zero; evaluate both boundary cases.
        best = np.inf
        for origin, d_fix, other, d_other in (
            (origin_a, d1, origin_b, d2), (origin_b, d2, origin_a, d1)
        ):
            t = max(0.0, float(np.dot(origin - other, d_other)))
            p = other + t * d_other
            s = max(0.0, float(np.dot(p - origin, d_fix)))
            best = min(best, float(np.linalg.norm(origin + s * d_fix - p)))
        return best
    p1 = origin_a + t1 * d1
    p2 = origin_b + t2 * d2
    return float(np.linalg.norm(p1 - p2))


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
