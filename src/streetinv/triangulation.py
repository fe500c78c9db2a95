"""Estimating a 3D object center from a bundle of observation rays.

The center of a cluster of observations is the point minimizing the sum of
squared perpendicular distances to all rays. That energy is a convex
quadratic in the center, so its minimizer solves the 3x3 normal equations

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
    "Ray",
    "DegenerateClusterError",
    "CenterEstimate",
    "point_ray_distance",
    "ray_ray_distance",
    "energy",
    "estimate_center",
]

# A normal matrix whose smallest eigenvalue is at most this share of its
# trace is treated as singular: the rays are parallel to working precision.
PARALLEL_EIGEN_RATIO = 1e-12


class DegenerateClusterError(ValueError):
    """Raised when a ray bundle has no unique center: under 2 rays, or all parallel."""


@dataclass(eq=False)
class Ray:
    """A viewing ray: origin point plus unit direction, both in meters."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        if self.origin.shape != (3,) or self.direction.shape != (3,):
            raise ValueError("origin and direction must be 3-vectors")
        if not np.isfinite(self.origin).all():
            raise ValueError("origin must be finite")
        norm = float(np.linalg.norm(self.direction))
        if not abs(norm - 1.0) <= 1e-9:  # a NaN or infinite norm fails too
            raise ValueError(f"direction must be a unit vector, |d|={norm}")

    @classmethod
    def through(cls, origin, point) -> "Ray":
        """Ray from `origin` passing through `point`."""
        origin = np.asarray(origin, dtype=float)
        delta = np.asarray(point, dtype=float) - origin
        norm = np.linalg.norm(delta)
        if norm == 0.0:
            raise ValueError("origin and point coincide")
        return cls(origin, delta / norm)


@dataclass(eq=False)
class CenterEstimate:
    """Result of estimate_center: the center and per-ray residuals."""

    center: np.ndarray
    residuals: list[float]


def point_ray_distance(c, ray: Ray) -> float:
    """Perpendicular distance from point `c` to the infinite line of `ray`."""
    v = np.asarray(c, dtype=float) - ray.origin
    perp = v - np.dot(v, ray.direction) * ray.direction
    return float(np.linalg.norm(perp))


def ray_ray_distance(a: Ray, b: Ray) -> float:
    """Minimum distance between two rays (half-lines, parameters >= 0).

    Solves the closest-approach problem for the two infinite lines and
    clamps negative ray parameters to the origins, so points behind either
    camera never count as an approach.
    """
    w0 = a.origin - b.origin
    d1, d2 = a.direction, b.direction
    b_dot = float(np.dot(d1, d2))
    denom = 1.0 - b_dot * b_dot  # |d1|=|d2|=1
    e = float(np.dot(d1, w0))
    f = float(np.dot(d2, w0))
    if denom < 1e-12:
        # Parallel rays: project one origin on the other ray.
        t1 = max(0.0, -e)
        p1 = a.origin + t1 * d1
        t2 = max(0.0, float(np.dot(p1 - b.origin, d2)))
        return float(np.linalg.norm(p1 - (b.origin + t2 * d2)))
    t1 = (b_dot * f - e) / denom
    t2 = (f - b_dot * e) / denom
    if t1 < 0.0 or t2 < 0.0:
        # Closest approach of a clamped pair lies with at least one
        # parameter at zero; evaluate both boundary cases.
        best = np.inf
        for origin, d_fix, ray_other in ((a.origin, d1, b), (b.origin, d2, a)):
            t = max(0.0, float(np.dot(origin - ray_other.origin, ray_other.direction)))
            p = ray_other.origin + t * ray_other.direction
            s = max(0.0, float(np.dot(p - origin, d_fix)))
            best = min(best, float(np.linalg.norm(origin + s * d_fix - p)))
        return best
    p1 = a.origin + t1 * d1
    p2 = b.origin + t2 * d2
    return float(np.linalg.norm(p1 - p2))


def _stack(rays: list[Ray]) -> tuple[np.ndarray, np.ndarray]:
    origins = np.stack([r.origin for r in rays])
    dirs = np.stack([r.direction for r in rays])
    return origins, dirs


def energy(c, rays: list[Ray]) -> float:
    """Sum of squared point-to-ray distances from `c` to all rays."""
    if not rays:
        raise ValueError("energy requires at least one ray")
    origins, dirs = _stack(rays)
    perp = _perpendiculars(np.asarray(c, dtype=float), origins, dirs)
    return float(np.einsum("ij,ij->i", perp, perp).sum())


def _perpendiculars(c: np.ndarray, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    # Explicit perpendicular form: nonnegative by construction, no
    # cancellation near exact intersections.
    v = c - origins
    t = np.einsum("ij,ij->i", v, dirs)
    return v - t[:, None] * dirs


def estimate_center(rays: list[Ray]) -> CenterEstimate:
    """Least-squares closest point to a bundle of rays, solved in closed form.

    Solves A c = b with A = sum(I - d d^T) and b = sum((I - d d^T) o) over
    the rays, through the eigendecomposition of the symmetric 3x3 matrix A.

    Raises:
        DegenerateClusterError: fewer than 2 rays, or all rays parallel.
    """
    if len(rays) < 2:
        raise DegenerateClusterError("center estimation requires at least 2 rays")
    origins, dirs = _stack(rays)
    a = len(rays) * np.eye(3) - dirs.T @ dirs
    b = origins.sum(axis=0) - dirs.T @ np.einsum("ij,ij->i", origins, dirs)
    w, v = np.linalg.eigh(a)
    if w[0] <= PARALLEL_EIGEN_RATIO * w.sum():
        raise DegenerateClusterError("all rays are parallel; no unique closest point")
    center = v @ ((v.T @ b) / w)
    residuals = np.linalg.norm(_perpendiculars(center, origins, dirs), axis=1)
    return CenterEstimate(center=center, residuals=residuals.tolist())
