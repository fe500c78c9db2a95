"""Shared test fixtures: independent oracles and scene corruption."""

from __future__ import annotations

import itertools
import math

import numpy as np

from streetinv import Cluster, Ray
from streetinv.simulator import GroundTruth


def make_ray(origin, point) -> Ray:
    """Ray from origin through point (test fixture convenience)."""
    return Ray.through(origin, point)


def oracle_grid_center(rays, bounds, step: float) -> np.ndarray:
    """Exhaustive grid search for the minimum-energy point.

    `bounds` is a (lo, hi) pair of 3-vectors; the grid includes both
    endpoints on each axis. Returns the grid point with the lowest energy
    (first one wins on exact ties). Deliberately naive: it is the reference
    the closed-form center is tested against.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    if np.any(hi < lo):
        raise ValueError("invalid bounds")
    axes = [np.arange(lo[k], hi[k] + step * 0.5, step) for k in range(3)]
    origins = np.stack([r.origin for r in rays])
    dirs = np.stack([r.direction for r in rays])
    best_value = np.inf
    best_point = None
    # Chunk over the x axis to bound memory on fine grids.
    yz = np.stack(
        [g.ravel() for g in np.meshgrid(axes[1], axes[2], indexing="ij")], axis=1
    )  # (My*Mz, 2)
    for x in axes[0]:
        pts = np.empty((yz.shape[0], 3))
        pts[:, 0] = x
        pts[:, 1:] = yz
        v = pts[:, None, :] - origins[None, :, :]  # (M, R, 3)
        t = np.einsum("mrk,rk->mr", v, dirs)
        perp = v - t[:, :, None] * dirs[None, :, :]
        e = (perp * perp).sum(axis=2).sum(axis=1)
        idx = int(np.argmin(e))
        if e[idx] < best_value:
            best_value = float(e[idx])
            best_point = pts[idx].copy()
    return best_point


def oracle_enumerate_assignment(score_block: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Optimal one-to-one assignment by exhaustive enumeration.

    Returns the (row, col) pairs and their total score, maximizing total
    score over all injective assignments of the smaller side. Ties go to
    the lexicographically smallest assignment. Sides over 7 are rejected.
    """
    block = np.asarray(score_block, dtype=float)
    if block.ndim != 2:
        raise ValueError("score block must be 2-dimensional")
    n_rows, n_cols = block.shape
    if n_rows > 7 or n_cols > 7:
        raise ValueError("enumeration oracle limited to 7 per side")
    transposed = n_rows > n_cols
    work = block.T if transposed else block
    n_small, n_large = work.shape
    best_total = -np.inf
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n_large), n_small):
        total = sum(work[i, perm[i]] for i in range(n_small))
        if total > best_total:
            best_total = total
            best = perm
    pairs = [(i, best[i]) for i in range(n_small)]
    if transposed:
        pairs = sorted((c, r) for r, c in pairs)
    return pairs, float(best_total)


def grid_argmin(rays, center_hint, half_width=1.0, coarse_step=0.02, fine_step=0.001):
    """Coarse-to-fine composition of exhaustive grid searches.

    A literal single-pass 1 mm grid over a 2 m cube is 8e9 points; instead
    run the exhaustive oracle at a coarse step over the full cube, then at
    the fine step on a sub-box around the coarse argmin. The energy is a
    convex quadratic, so whenever the fine argmin is strictly interior the
    continuous minimizer is bracketed; if it lands on the sub-box boundary
    the box is doubled and the search repeated.
    """
    hint = np.asarray(center_hint, dtype=float)
    lo = hint - half_width
    hi = hint + half_width
    coarse = oracle_grid_center(rays, (lo, hi), coarse_step)
    margin = coarse_step + 8.0 * fine_step
    while True:
        lo2 = coarse - margin
        hi2 = coarse + margin
        fine = oracle_grid_center(rays, (lo2, hi2), fine_step)
        interior = np.all(fine > lo2 + fine_step * 0.5) and np.all(fine < hi2 - fine_step * 0.5)
        if interior:
            return fine
        margin *= 2.0


# Independent WGS-84 geodetic -> ENU oracle (textbook formulas, written
# separately from the implementation under test).
_A = 6378137.0
_F = 1.0 / 298.257223563


def oracle_geodetic_to_enu(lat, lon, alt, lat0, lon0, alt0):
    e2 = _F * (2 - _F)

    def ecef(lat_d, lon_d, h):
        la, lo = math.radians(lat_d), math.radians(lon_d)
        n = _A / math.sqrt(1 - e2 * math.sin(la) ** 2)
        return np.array(
            [
                (n + h) * math.cos(la) * math.cos(lo),
                (n + h) * math.cos(la) * math.sin(lo),
                (n * (1 - e2) + h) * math.sin(la),
            ]
        )

    d = ecef(lat, lon, alt) - ecef(lat0, lon0, alt0)
    la0, lo0 = math.radians(lat0), math.radians(lon0)
    rot = np.array(
        [
            [-math.sin(lo0), math.cos(lo0), 0.0],
            [-math.sin(la0) * math.cos(lo0), -math.sin(la0) * math.sin(lo0), math.cos(la0)],
            [math.cos(la0) * math.cos(lo0), math.cos(la0) * math.sin(lo0), math.sin(la0)],
        ]
    )
    return rot @ d


def true_clusters(observations, truth: GroundTruth) -> list[Cluster]:
    """The ideal clustering implied by ground truth (clutter as singletons)."""
    groups: dict = {}
    extras = []
    for o in observations:
        objid = truth.object_of[o.obs_id]
        if objid is None:
            extras.append({o.obs_id})
        else:
            groups.setdefault(objid, set()).add(o.obs_id)
    parts = sorted(list(groups.values()) + extras, key=min)
    return [Cluster(cluster_id=i, members=m) for i, m in enumerate(parts)]


def corrupt_links(observations, truth: GroundTruth, frac: float, rng: np.random.Generator):
    """Corrupt a fraction of the true linkage, mimicking chained local
    association errors: pairs of stolen rays form spurious ghost clusters
    (over-matching) and leftovers become detached singletons
    (under-matching). Only clusters keeping >= 2 members donate rays, so
    every corrupted observation has a surviving home cluster.

    Returns (clusters, n_ghosts, n_detached).
    """
    obs = {o.obs_id: o for o in observations}
    working: dict = {}
    for o in observations:
        objid = truth.object_of[o.obs_id]
        if objid is not None:
            working.setdefault(objid, set()).add(o.obs_id)
    total = sum(len(ms) for ms in working.values())
    stealable = [m for k in sorted(working) for m in sorted(working[k]) if len(working[k]) >= 3]
    n_corrupt = max(2, int(round(frac * total)))
    rng.shuffle(stealable)
    chosen = []
    budget = {k: len(ms) for k, ms in working.items()}
    for m in stealable:
        if len(chosen) >= n_corrupt:
            break
        k = truth.object_of[m]
        if budget[k] <= 2:
            continue
        chosen.append(m)
        budget[k] -= 1

    def pairable(a, b, require_same_category):
        if truth.object_of[a] == truth.object_of[b]:
            return False
        if obs[a].frame_id == obs[b].frame_id:
            return False
        if require_same_category and obs[a].category != obs[b].category:
            return False
        return True

    ghosts, detached, used = [], [], set()
    for require_same_category in (True, False):
        for i, a in enumerate(chosen):
            if a in used:
                continue
            for b in chosen[i + 1:]:
                if b in used or not pairable(a, b, require_same_category):
                    continue
                ghosts.append({a, b})
                used.add(a)
                used.add(b)
                break
    for a in chosen:
        if a not in used:
            detached.append({a})
            used.add(a)
    for m in used:
        working[truth.object_of[m]].discard(m)
    parts = [ms for ms in working.values() if ms] + ghosts + detached
    clusters = [
        Cluster(cluster_id=i, members=ms) for i, ms in enumerate(sorted(parts, key=min))
    ]
    return clusters, len(ghosts), len(detached)
