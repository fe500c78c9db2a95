"""Shared test fixtures: independent oracles and scene corruption."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from streetinv import Cluster, DegenerateClusterError, estimate_center
from streetinv.simulator import GroundTruth


class Ray(NamedTuple):
    """A test ray: origin and unit direction.

    Unpacks to the (origin, direction) pair `ray_ray_distance` takes per ray.
    """

    origin: np.ndarray
    direction: np.ndarray


def make_ray(origin, point) -> Ray:
    """Ray from origin through point."""
    origin = np.asarray(origin, dtype=float)
    delta = np.asarray(point, dtype=float) - origin
    norm = np.linalg.norm(delta)
    if norm == 0.0:
        raise ValueError("origin and point coincide")
    return Ray(origin, delta / norm)


def bundle(rays) -> tuple[np.ndarray, np.ndarray]:
    """The n x 3 origins and directions `estimate_center` takes, from test rays."""
    return np.array([r.origin for r in rays]), np.array([r.direction for r in rays])


def point_ray_distance(c, ray) -> float:
    """Perpendicular distance from point `c` to the infinite line of `ray`."""
    v = np.asarray(c, dtype=float) - ray.origin
    return float(np.linalg.norm(v - np.dot(v, ray.direction) * ray.direction))


def energy(c, rays) -> float:
    """Sum of squared point-to-ray distances from `c` to all rays."""
    if not rays:
        raise ValueError("energy requires at least one ray")
    return sum(point_ray_distance(c, r) ** 2 for r in rays)


def ray_ray_distance(origin_a, dir_a, origin_b, dir_b) -> float:
    """Minimum distance between two rays (half-lines, parameters >= 0).

    The scalar reference for `ray_gaps`. Each ray is a 3-vector origin and
    a unit 3-vector direction. Solves the closest-approach problem for the
    two infinite lines and clamps negative ray parameters to the origins,
    so points behind either camera never count as an approach.
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


def oracle_pair_counts(true_labels, pred_labels) -> tuple[int, int, int]:
    """(tp, fp, fn) over unordered pairs from N x N co-membership matrices.

    Deliberately quadratic: it compares every pair of observations, the
    way the contingency-table counts are checked against.
    """
    y = np.asarray(true_labels)
    c = np.asarray(pred_labels)
    same_true = y[:, None] == y[None, :]
    same_pred = c[:, None] == c[None, :]
    upper = np.triu_indices(len(y), k=1)
    t = same_true[upper]
    p = same_pred[upper]
    return int(np.sum(t & p)), int(np.sum(~t & p)), int(np.sum(t & ~p))


def _line_line_distance(a: Ray, b: Ray) -> float:
    n = np.cross(a.direction, b.direction)
    norm = np.linalg.norm(n)
    w0 = b.origin - a.origin
    if norm < 1e-12:
        return float(np.linalg.norm(w0 - np.dot(w0, a.direction) * a.direction))
    return float(abs(np.dot(w0, n)) / norm)


def oracle_merge_undermatched(clusters, table, cfg) -> list[Cluster]:
    """Singleton absorption and pairing, one pair at a time.

    The scalar reference `refinement.merge_undermatched` is checked
    against: each singleton scans every localized single-category cluster;
    each singleton pair is prefiltered by its line-line distance, then
    triangulated by `estimate_center` and gated on its residual and on
    its implied sizes (box height times depth); pairs are taken best-first.
    """
    # One row of the table per id: scalar fields, named like Observation's.
    obs = {m: table.take(k) for k, m in enumerate(table.obs_id.tolist())}

    def ray(o):
        return Ray(o.exposure, o.direction)

    def category_of(cluster):
        categories = {obs[m].category for m in cluster.members}
        return categories.pop() if len(categories) == 1 else None

    def size(o, c):
        return o.box_h_norm * abs(float(np.dot(np.asarray(c) - o.exposure, o.direction)))

    singles = sorted((c for c in clusters if c.size == 1), key=lambda c: c.cluster_id)
    multis = [
        Cluster(cluster_id=c.cluster_id, members=set(c.members), center=c.center,
                residuals=None if c.residuals is None else dict(c.residuals))
        for c in sorted(clusters, key=lambda c: c.cluster_id)
        if c.size >= 2
    ]
    next_id = max((c.cluster_id for c in clusters), default=-1) + 1
    remaining = []
    for s in singles:
        member = next(iter(s.members))
        o = obs[member]
        best = None
        for m in multis:
            if m.center is None or category_of(m) != o.category:
                continue
            d = point_ray_distance(m.center, ray(o))
            if d < cfg.merge_threshold(o.category) and (best is None or (d, m.cluster_id) < best[:2]):
                best = (d, m.cluster_id, m)
        if best is None:
            remaining.append(s)
        else:
            best[2].members.add(member)
            best[2].residuals[member] = best[0]
    candidates = []
    for i, a in enumerate(remaining):
        obs_a = obs[next(iter(a.members))]
        for b in remaining[i + 1:]:
            obs_b = obs[next(iter(b.members))]
            if obs_a.category != obs_b.category or obs_a.frame_id == obs_b.frame_id:
                continue
            threshold = cfg.merge_threshold(obs_a.category)
            if _line_line_distance(ray(obs_a), ray(obs_b)) >= 2.0 * threshold:
                continue
            try:
                estimate = estimate_center(*bundle([ray(obs_a), ray(obs_b)]))
            except DegenerateClusterError:
                continue
            if max(estimate.residuals) >= threshold:
                continue
            size_a, size_b = size(obs_a, estimate.center), size(obs_b, estimate.center)
            if min(size_a, size_b) <= 0.0 or max(size_a / size_b, size_b / size_a) >= cfg.tau_scale:
                continue
            candidates.append((max(estimate.residuals), a.cluster_id, b.cluster_id))
    merged_away = set()
    new_clusters = []
    by_id = {c.cluster_id: c for c in remaining}
    for _, id_a, id_b in sorted(candidates):
        if id_a in merged_away or id_b in merged_away:
            continue
        new_clusters.append(Cluster(cluster_id=next_id, members=by_id[id_a].members | by_id[id_b].members))
        next_id += 1
        merged_away |= {id_a, id_b}
    return multis + [c for c in remaining if c.cluster_id not in merged_away] + new_clusters


def oracle_split_overmatched(clusters, table, cfg) -> list[Cluster]:
    """Outlier pruning one cluster at a time.

    The scalar reference `refinement.split_overmatched` is checked
    against: each cluster, in id order, is fitted by `estimate_center`;
    every member past its category's split threshold is freed and the
    rest refitted until none is, fewer than 2 are left, or the rays are
    all parallel. Freed members become singletons with fresh ids, cluster
    by cluster, in the order they were freed.
    """
    fresh_ids = itertools.count(max((c.cluster_id for c in clusters), default=-1) + 1)
    result, freed = [], []
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        members = sorted(cluster.members)
        kept = None
        while len(members) >= 2:
            rows = table.rows(members)
            try:
                estimate = estimate_center(table.exposure[rows], table.direction[rows])
            except DegenerateClusterError:
                break
            over = [r > cfg.split_threshold(c) for r, c in zip(estimate.residuals, table.category[rows])]
            if not any(over):
                kept = Cluster(cluster.cluster_id, set(members), estimate.center,
                               dict(zip(members, estimate.residuals)))
                break
            freed += [Cluster(next(fresh_ids), {m}) for m, out in zip(members, over) if out]
            members = [m for m, out in zip(members, over) if not out]
        if kept is None and members:
            kept = Cluster(cluster.cluster_id, set(members))
        if kept is not None:
            result.append(kept)
    return result + freed


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
