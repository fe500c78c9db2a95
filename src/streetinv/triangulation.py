"""Estimating 3D object centers from bundles of observation rays.

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

`estimate_centers` solves many bundles at once: the rows of one array
pair, each labelled with its bundle. It sums every bundle's normal
matrix and right-hand side in row order with `np.bincount` and makes one
`np.linalg.eigh` call on the k x 3 x 3 stack. `estimate_center` is its
one-bundle case, so a bundle gets the same center, bit for bit, alone or
in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateClusterError",
    "CenterEstimate",
    "CenterEstimates",
    "estimate_center",
    "estimate_centers",
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


@dataclass(eq=False)
class CenterEstimates:
    """Result of estimate_centers for k bundles of n rows in all.

    `degenerate[g]` is true when bundle g has fewer than 2 rays or only
    parallel ones; its row of the k x 3 `centers` and the `residuals` of
    its rays are NaN. `residuals` has one entry per input row.
    """

    centers: np.ndarray
    degenerate: np.ndarray
    residuals: np.ndarray


def estimate_centers(origins: np.ndarray, dirs: np.ndarray, group: np.ndarray, k: int) -> CenterEstimates:
    """Least-squares closest points of k ray bundles, solved in closed form.

    `origins` and `dirs` are n x 3: ray i starts at origins[i] with unit
    direction dirs[i] and belongs to bundle group[i], an integer in
    0..k-1. A bundle may have no rays. For each bundle, A = sum(I - d d^T)
    and b = sum((I - d d^T) o) are summed over its rays in row order, and
    A c = b is solved through the eigendecomposition of the symmetric A.
    """
    group = np.asarray(group, dtype=np.intp)

    def per_bundle(weights):
        return np.bincount(group, weights=weights, minlength=k)

    count = np.bincount(group, minlength=k)
    a = np.empty((k, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            a[:, i, j] = a[:, j, i] = (i == j) * count - per_bundle(dirs[:, i] * dirs[:, j])
    along = np.einsum("ij,ij->i", origins, dirs)
    b = np.stack([per_bundle(origins[:, i] - along * dirs[:, i]) for i in range(3)], axis=1)
    w, v = np.linalg.eigh(a)
    degenerate = (count < 2) | (w[:, 0] <= PARALLEL_EIGEN_RATIO * w.sum(axis=1))
    # Degenerate bundles divide by 1 instead of a zero eigenvalue, then are blanked.
    coefficients = np.einsum("gji,gj->gi", v, b) / np.where(degenerate[:, None], 1.0, w)
    centers = np.einsum("gij,gj->gi", v, coefficients)
    centers[degenerate] = np.nan
    # Explicit perpendicular form: nonnegative by construction, no
    # cancellation near exact intersections.
    offset = centers[group] - origins
    perp = offset - np.einsum("ij,ij->i", offset, dirs)[:, None] * dirs
    return CenterEstimates(centers, degenerate, np.linalg.norm(perp, axis=1))


def estimate_center(origins: np.ndarray, dirs: np.ndarray) -> CenterEstimate:
    """Least-squares closest point to one bundle of rays: `estimate_centers` for k = 1.

    Residuals are in ray order.

    Raises:
        DegenerateClusterError: fewer than 2 rays, or all rays parallel.
    """
    if len(origins) < 2:
        raise DegenerateClusterError("center estimation requires at least 2 rays")
    fit = estimate_centers(origins, dirs, np.zeros(len(origins), dtype=np.intp), 1)
    if fit.degenerate[0]:
        raise DegenerateClusterError("all rays are parallel; no unique closest point")
    return CenterEstimate(center=fit.centers[0], residuals=fit.residuals.tolist())
