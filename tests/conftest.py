"""Shared test fixtures: independent oracles and scene corruption."""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from scipy.optimize import linear_sum_assignment

from streetinv import io as sio
from streetinv import refinement
from streetinv import (
    CameraPose,
    Cluster,
    DegenerateClusterError,
    Detection2D,
    DetectionTable,
    Observation,
    ObservationTable,
    estimate_center,
    ray_gaps,
    rotation_from_euler,
    window_pairs,
)
from streetinv.metrics import (
    CategoryMetrics,
    EvaluationReport,
    MatchCounts,
    _category_metrics,
    _centers,
    _identify,
    clustering_metrics,
)
from streetinv.simulator import (
    _CATEGORY_GEOMETRY,
    _CATEGORY_SEPARATION,
    DEFAULT_CATEGORIES,
    EXPORT_IMAGE_H,
    EXPORT_IMAGE_W,
    GroundTruth,
    SceneObject,
    SceneSpec,
    straight_trajectory,
)


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


def exact_ray_gap(origin_a, dir_a, origin_b, dir_b) -> float:
    """Minimum distance between two rays, exact in rational arithmetic on the float inputs.

    The squared gap is the smallest of three candidates: the lines' closest
    approach, when it lies in front of both origins, and the two boundary
    cases, one ray parameter at 0 and the other the nearest point clamped
    to its ray. The directions' squared lengths are used as they are, not
    taken as 1. Only the final square root is rounded.
    """
    oa, da, ob, db = ([Fraction(float(x)) for x in v] for v in (origin_a, dir_a, origin_b, dir_b))
    w = [x - y for x, y in zip(oa, ob)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def squared(s, t):
        d = [x + s * y - t * z for x, y, z in zip(w, da, db)]
        return dot(d, d)

    a, b, c, e, f = dot(da, da), dot(da, db), dot(db, db), dot(da, w), dot(db, w)
    candidates = [squared(0, max(0, f / c)), squared(max(0, -e / a), 0)]
    det = a * c - b * b
    if det:
        s, t = (b * f - c * e) / det, (a * f - b * e) / det
        if s >= 0 and t >= 0:
            candidates.append(squared(s, t))
    return math.sqrt(min(candidates))


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


class PairMatch(NamedTuple):
    """One accepted match of `oracle_associate`, obs_a < obs_b."""

    obs_a: int
    obs_b: int
    score: float


def oracle_associate(observations, cfg) -> tuple[list[PairMatch], list[tuple[int, list[int]]]]:
    """Association one match record at a time.

    The reference `pipeline.associate` is checked against. Each frame pair
    of the window gets a dense block with every row pair scored on its
    own: `ray_gaps` of that one pair when the categories match, 0
    otherwise, or the file's score from a dict keyed by the unordered id
    pair. Every kept assignment becomes a `PairMatch` of ids, and the
    matches are chained by union-find over a dict of ids. Returns the
    matches and each cluster as (cluster id, sorted members), clusters
    numbered by their smallest member.
    """
    table = ObservationTable.of(observations)
    table = table.take(np.lexsort((table.obs_id, table.frame_id)))
    ids = table.obs_id.tolist()
    if cfg.scorer.startswith("file:"):
        triplets = sio.read_score_triplets(cfg.scorer[len("file:"):], ids)
        scored = {frozenset(pair): s for *pair, s in
                  zip(triplets.obs_a.tolist(), triplets.obs_b.tolist(), triplets.score.tolist())}

        def score(i, j):
            return scored.get(frozenset((ids[i], ids[j])), 0.0)
    else:
        def score(i, j):
            if table.category[i] != table.category[j]:
                return 0.0
            gap = ray_gaps(table.exposure[i : i + 1], table.direction[i : i + 1],
                           table.exposure[j : j + 1], table.direction[j : j + 1])
            return float(np.clip(np.exp(-gap / cfg.sigma_g), 0.0, 1.0)[0])

    matches = []
    for a0, a1, b0, b1 in zip(*(column.tolist() for column in window_pairs(table.frame_id, cfg.window))):
        a, b = slice(a0, a1), slice(b0, b1)
        block = np.array([[score(i, j) for j in range(b0, b1)] for i in range(a0, a1)])
        for r, c in zip(*linear_sum_assignment(block, maximize=True)):
            value = float(block[r, c])
            if value >= cfg.tau:
                x, y = ids[a][r], ids[b][c]
                matches.append(PairMatch(min(x, y), max(x, y), value))

    parent = {i: i for i in ids}

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for m in matches:
        parent[root(m.obs_a)] = root(m.obs_b)
    groups: dict[int, list[int]] = {}
    for i in sorted(ids):
        groups.setdefault(root(i), []).append(i)
    return matches, list(enumerate(sorted(groups.values())))


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


def _oracle_rates(counts: MatchCounts) -> tuple[float, float, float]:
    """Precision, recall, F1; an empty denominator scores 0 if there was something to get wrong, else 1."""
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp else float(fn == 0)
    recall = tp / (tp + fn) if tp + fn else float(fp == 0)
    return precision, recall, 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _oracle_match(pred: list, gt: list, tol: float) -> list[float]:
    """Distances of a greedy one-to-one matching of one category's centers.

    Every pair is measured (quadratic); pairs closer than `tol` are taken
    closest first, ties by predicted then true index, skipping a pair whose
    center is taken.
    """
    pairs = sorted(
        (float(np.sqrt(((np.asarray(p, dtype=float) - g) ** 2).sum())), a, b)
        for a, p in enumerate(pred)
        for b, g in enumerate(gt)
    )
    used_pred, used_gt, distances = set(), set(), []
    for d, a, b in pairs:
        if d < tol and a not in used_pred and b not in used_gt:
            used_pred.add(a)
            used_gt.add(b)
            distances.append(d)
    return distances


def oracle_build_report(inventory: list[dict], truth: GroundTruth, tol: float) -> EvaluationReport:
    """`metrics.build_report`, one observation and one category at a time.

    Dictionaries from each member to its record and per-category lists of
    centers, matched category by category; pair counts from the quadratic
    `oracle_pair_counts`. The aggregate averages the matched distances in
    category order and, within a category, in matching order.
    """
    record_of = {}
    for k, record in enumerate(inventory):
        for obs_id in record["members"]:
            record_of[obs_id] = k
    kept = [i for i in truth.obs_ids if truth.object_of[i] is not None and i in record_of]
    pred = [(r["center"], r["category"]) for r in inventory if r["center"] is not None]
    gt = [(o.center, o.category) for o in truth.objects]

    def category_metrics(obs: list[int], pred: list, gt: list, distances: list[float]) -> CategoryMetrics:
        m = CategoryMetrics()
        if obs:
            y, c = [truth.object_of[i] for i in obs], [record_of[i] for i in obs]
            m.counts_mat = MatchCounts(*oracle_pair_counts(y, c))
            m.pre_mat, m.rec_mat, m.f1_mat = _oracle_rates(m.counts_mat)
            m.homogeneity, m.completeness, m.v_measure = clustering_metrics(y, c)
        tp = len(distances)
        m.counts_idf = MatchCounts(tp=tp, fp=len(pred) - tp, fn=len(gt) - tp)
        m.pre_idf, m.rec_idf, m.f1_idf = _oracle_rates(m.counts_idf)
        m.loc_err = float(np.mean(distances)) if distances else None
        return m

    categories = sorted({inventory[record_of[i]]["category"] for i in kept} | {c for _, c in pred + gt})
    per_category, all_distances = {}, []
    for category in categories:
        obs = [i for i in kept if inventory[record_of[i]]["category"] == category]
        pred_c = [x for x, c in pred if c == category]
        gt_c = [x for x, c in gt if c == category]
        distances = _oracle_match(pred_c, gt_c, tol)
        per_category[category] = category_metrics(obs, pred_c, gt_c, distances)
        all_distances.extend(distances)
    return EvaluationReport(aggregate=category_metrics(kept, pred, gt, all_distances), per_category=per_category)


def oracle_category_loop(inventory: list[dict], truth: GroundTruth, tol: float) -> EvaluationReport:
    """`metrics.build_report` with one contingency table per category: each
    category's observations selected by a mask and passed, with its slice of
    the matched distances, to `_category_metrics`. The aggregate is the same
    call over every observation."""
    members = [record["members"] for record in inventory]
    flat = list(itertools.chain.from_iterable(members))
    true_labels = np.array([truth.object_of[obs_id] for obs_id in flat], dtype=float)
    pred_labels = np.repeat(np.arange(len(inventory)), list(map(len, members)))
    kept = ~np.isnan(true_labels)
    true_labels, pred_labels = true_labels[kept].astype(np.int64), pred_labels[kept]
    categories = [record["category"] for record in inventory] + [o.category for o in truth.objects]
    names, codes = np.unique(np.array(categories, dtype=object), return_inverse=True)
    record_code, gt_code = codes[: len(inventory)], codes[len(inventory):]
    obs_code = record_code[pred_labels]
    centers = [record["center"] for record in inventory]
    pred_code = record_code[[center is not None for center in centers]]
    pred = _centers(center for center in centers if center is not None)
    hit_code, distances = _identify(pred, pred_code, _centers(o.center for o in truth.objects), gt_code, tol)
    per_category = {}
    for c, name in enumerate(names.tolist()):
        n_pred, n_gt, sel = int((pred_code == c).sum()), int((gt_code == c).sum()), obs_code == c
        if n_pred or n_gt or sel.any():
            per_category[name] = _category_metrics(true_labels[sel], pred_labels[sel], n_pred, n_gt,
                                                   distances[hit_code == c])
    aggregate = _category_metrics(true_labels, pred_labels, len(pred_code), len(gt_code), distances)
    return EvaluationReport(aggregate=aggregate, per_category=per_category)


def assert_reports_match(report: EvaluationReport, expected: EvaluationReport, tol: float = 1e-12) -> None:
    """The aggregates are equal to the bit; each category has the same counts and
    None values, and floats within `tol`: its entropies and matched distances are
    summed in another order than `expected` may sum them."""
    assert repr(report.to_dict()["aggregate"]) == repr(expected.to_dict()["aggregate"])
    got, want = report.to_dict()["per_category"], expected.to_dict()["per_category"]
    assert list(got) == list(want)
    for name in want:
        assert got[name].keys() == want[name].keys()
        for key, value in want[name].items():
            if isinstance(value, float):
                assert abs(got[name][key] - value) <= tol, (name, key)
            else:
                assert got[name][key] == value, (name, key)


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
    against: each singleton scans every localized single-category cluster
    whose center lies in front of its camera, nearer than
    `refinement.MAX_DEPTH` along its ray; each singleton pair is
    prefiltered by its line-line distance, then triangulated by
    `estimate_center` and gated on its residual, on the depth of its
    center along both rays (in (0, MAX_DEPTH)) and on its implied sizes
    (box height times depth); pairs are taken best-first.
    A cluster that grows comes out blank, as a pair does: no center, no
    residuals.
    """
    # One row of the table per id: scalar fields, named like Observation's.
    obs = {m: table.take(k) for k, m in enumerate(table.obs_id.tolist())}

    def ray(o):
        return Ray(o.exposure, o.direction)

    def category_of(cluster):
        categories = {obs[m].category for m in cluster.members}
        return categories.pop() if len(categories) == 1 else None

    def depth(o, c):
        return float(np.dot(np.asarray(c) - o.exposure, o.direction))

    def in_front(o, c):
        return 0.0 < depth(o, c) < refinement.MAX_DEPTH

    def size(o, c):
        return o.box_h_norm * abs(depth(o, c))

    singles = sorted((c for c in clusters if c.size == 1), key=lambda c: c.cluster_id)
    multis = [
        Cluster(cluster_id=c.cluster_id, members=set(c.members), center=c.center,
                residuals=None if c.residuals is None else dict(c.residuals))
        for c in sorted(clusters, key=lambda c: c.cluster_id)
        if c.size >= 2
    ]
    next_id = max((c.cluster_id for c in clusters), default=-1) + 1
    remaining, grown = [], set()
    for s in singles:
        member = next(iter(s.members))
        o = obs[member]
        best = None
        for m in multis:
            if m.center is None or category_of(m) != o.category or not in_front(o, m.center):
                continue
            d = point_ray_distance(m.center, ray(o))
            if d < cfg.merge_threshold(o.category) and (best is None or (d, m.cluster_id) < best[:2]):
                best = (d, m.cluster_id, m)
        if best is None:
            remaining.append(s)
        else:
            best[2].members.add(member)
            grown.add(best[1])
    for m in multis:
        if m.cluster_id in grown:
            m.center = m.residuals = None
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
            if not (in_front(obs_a, estimate.center) and in_front(obs_b, estimate.center)):
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


def dense_near(points, radius, queries=None) -> tuple[np.ndarray, np.ndarray]:
    """Every candidate row `refinement._near` may list, whatever the radius: all pairs, all targets.

    The merge gates every row it is given, so under this listing it gates
    every pair of singletons and every (singleton, target) row.
    """
    if queries is None:
        return np.triu_indices(len(points), 1)
    i, j = np.meshgrid(np.arange(len(queries)), np.arange(len(points)), indexing="ij")
    return i.ravel(), j.ravel()


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


def oracle_inventory_records(clusters, table) -> list[dict]:
    """Inventory records built one `Cluster` at a time.

    The reference `pipeline.inventory_records` is checked against: records
    in order of each cluster's smallest member, the category by a vote
    counted per cluster (ties alphabetical), the largest residual by `max`.
    """
    records = []
    for object_id, cluster in enumerate(sorted(clusters, key=lambda c: min(c.members))):
        members = sorted(cluster.members)
        votes = Counter(table.category[table.rows(members)].tolist())
        localized = cluster.center is not None
        records.append({
            "object_id": object_id,
            "category": min(votes, key=lambda name: (-votes[name], name)),
            "center": [float(v) for v in cluster.center] if localized else None,
            "n_observations": len(members),
            "max_residual": max(cluster.residuals.values()) if localized else None,
            "members": members,
        })
    return records


def oracle_default_scene_spec(
    seed=0,
    n_objects=None,
    street_length=200.0,
    frame_spacing=10.0,
    direction_noise=math.radians(0.2),
    pose_noise=0.02,
    drop_prob=0.0,
    clutter_rate=0.0,
    min_separation=2.5,
) -> SceneSpec:
    """Object placement checking each attempt against every placed object.

    The reference `simulator.default_scene_spec` is checked against: the
    same draws per attempt, and a candidate is rejected when any placed
    object lies closer than its category's separation (same category) or
    `min_separation` (other categories).
    """
    rng = np.random.default_rng(seed)
    trajectory = straight_trajectory(int(street_length / frame_spacing) + 1, frame_spacing)
    if n_objects is None:
        n_objects = int(rng.integers(20, 41))
    objects = []
    while len(objects) < n_objects:
        category = DEFAULT_CATEGORIES[int(rng.integers(0, len(DEFAULT_CATEGORIES)))]
        z_center, height = _CATEGORY_GEOMETRY[category]
        x = rng.uniform(0.08 * street_length, 0.92 * street_length)
        side = 1.0 if rng.random() < 0.5 else -1.0
        y = side * rng.uniform(3.5, 13.0)
        z = z_center + rng.uniform(-0.2, 0.2)
        center = np.array([x, y, z])
        if all(
            np.linalg.norm(center - o.center)
            >= (_CATEGORY_SEPARATION[category] if o.category == category else min_separation)
            for o in objects
        ):
            objects.append(SceneObject(category=category, center=center, height=height))
    return SceneSpec(
        trajectory=trajectory,
        objects=objects,
        direction_noise=direction_noise,
        pose_noise=pose_noise,
        drop_prob=drop_prob,
        clutter_rate=clutter_rate,
        seed=seed,
    )


def oracle_generate_scene(spec: SceneSpec) -> tuple[list[Observation], GroundTruth]:
    """Observations from measuring every pose against every object.

    The reference `simulator.generate_scene` is checked against: per pose,
    the pose noise, then every object in index order (skipped beyond
    `max_range` or at the camera; drop draw; angle and axis draws, the
    axis crossed by `np.cross`), then the clutter.
    """
    rng = np.random.default_rng(spec.seed)
    categories = sorted({o.category for o in spec.objects})
    observations, object_of = [], {}

    def add(frame_id, category, exposure, direction, w_norm, h_norm, object_id):
        observations.append(Observation(len(observations), frame_id, category, exposure.copy(),
                                        direction, w_norm, h_norm))
        object_of[len(observations) - 1] = object_id

    for pose in spec.trajectory:
        recorded = pose.position + rng.normal(0.0, spec.pose_noise, size=3)
        for object_id, obj in enumerate(spec.objects):
            delta = obj.center - pose.position
            depth = float(np.linalg.norm(delta))
            if depth > spec.max_range or depth < 1e-9 or rng.random() < spec.drop_prob:
                continue
            direction = delta / depth
            if spec.direction_noise > 0:
                angle = rng.normal(0.0, spec.direction_noise)
                raw = rng.normal(size=3)
                axis = raw - np.dot(raw, direction) * direction
                norm = np.linalg.norm(axis)
                if norm >= 1e-12:
                    axis /= norm
                    direction = direction * math.cos(angle) + np.cross(axis, direction) * math.sin(angle)
                direction = direction / np.linalg.norm(direction)
            add(pose.frame_id, obj.category, recorded, direction,
                min(1.0, obj.height / (depth * 2.0 * math.pi)), min(1.0, obj.height / (depth * math.pi)),
                object_id)
        for _ in range(int(rng.poisson(spec.clutter_rate)) if spec.clutter_rate > 0 else 0):
            azimuth = rng.uniform(-math.pi, math.pi)
            elevation = rng.uniform(-0.3, 0.5)
            ce = math.cos(elevation)
            direction = np.array([ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)])
            category = categories[int(rng.integers(0, len(categories)))]
            h_norm = rng.uniform(0.005, 0.08)
            add(pose.frame_id, category, recorded, direction, h_norm / 2.0, h_norm, None)
    return observations, GroundTruth(spec.objects, [o.obs_id for o in observations], object_of)


def oracle_export_scene(spec: SceneSpec):
    """Poses and detections of `oracle_generate_scene`'s observations, record by record.

    The reference `simulator.export_scene` is checked against: each frame's
    pose at its recorded exposure (its true one if it has no observation),
    and each detection's pixel center from its own rotation of its frame,
    `rotation.T @ direction`, then `math.atan2` and `math.asin`.
    """
    observations, truth = oracle_generate_scene(spec)
    recorded = {o.frame_id: o.exposure for o in observations}
    poses = [replace(p, position=recorded.get(p.frame_id, p.position).copy())
             for p in sorted(spec.trajectory, key=lambda p: p.frame_id)]
    pose_of = {p.frame_id: p for p in poses}
    detections = []
    for o in observations:
        pose = pose_of[o.frame_id]
        d_cam = rotation_from_euler(pose.heading, pose.pitch, pose.roll).T @ o.direction
        azimuth = math.atan2(d_cam[1], d_cam[0])
        elevation = math.asin(max(-1.0, min(1.0, d_cam[2])))
        detections.append(Detection2D(
            frame_id=o.frame_id,
            center_x=(azimuth + math.pi) / (2.0 * math.pi) * EXPORT_IMAGE_W,
            center_y=(1.0 - (elevation + math.pi / 2.0) / math.pi) * EXPORT_IMAGE_H,
            box_w=o.box_w_norm * EXPORT_IMAGE_W,
            box_h=o.box_h_norm * EXPORT_IMAGE_H,
            image_w=EXPORT_IMAGE_W,
            image_h=EXPORT_IMAGE_H,
            category=o.category,
            confidence=1.0,
        ))
    return poses, detections, observations, truth


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


# --- Per-record readers: the oracle of the readers of `io`, which test each
# rule on every row at once. These check each record on its own, in file
# order, with every rule hand-written, so the first bad record raises naming
# its line. An observation record missing fields is reported as `missing
# fields [...]`, as the other readers report it. An accepted observation
# file's directions are normalized by one `np.linalg.norm(..., axis=1)` over
# the file, as `io` normalizes them; a per-record norm can differ from it in
# the last bit. A cluster_id must fit 64 bits, as every other id must.
# They decode each line with the stdlib's decoder, on their own, never
# through the decoding of `io`, which is under test with the readers.

_INT64 = np.iinfo(np.int64)
_DETECTION_FIELDS = {
    "cx": "center_x", "cy": "center_y", "w": "box_w", "h": "box_h", "img_w": "image_w", "img_h": "image_h",
}
_OBSERVATION_FIELDS = ("obs_id", "frame_id", "category", "px", "py", "pz", "dx", "dy", "dz", "w_norm", "h_norm")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


_STDLIB_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def read_jsonl_stdlib(path):
    """The (line number, record) pairs of a JSON-lines file, each non-blank line
    decoded by the stdlib on its own; errors worded as the readers word them."""
    records = []
    for line_no, line in enumerate(sio.read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = _STDLIB_DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise sio.DataError(f"{path}:{line_no}: malformed JSON: {exc.msg}") from exc
        except ValueError as exc:  # a NaN or an Infinity
            raise sio.DataError(f"{path}:{line_no}: {exc}") from exc
        if type(record) is not dict:
            raise sio.DataError(f"{path}:{line_no}: expected a JSON object")
        records.append((line_no, record))
    return records


def _require(record, keys, path, line_no):
    missing = [k for k in keys if k not in record]
    if missing:
        raise sio.DataError(f"{path}:{line_no}: missing fields {missing}")


def _claim(lines, key, claim, path, line_no):
    if key in lines:
        raise sio.DataError(f"{path}:{line_no}: {claim.format(key)} on line {lines[key]}")
    lines[key] = line_no


def _id(record, key):
    value = record[key]
    if not (isinstance(value, int) and not isinstance(value, bool)):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _id64(record, key):
    value = _id(record, key)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{key} {value} is outside the 64-bit integer range")
    return value


def _is_number(value):
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _is_point(value):
    return isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))


def _number(record, key):
    value = record[key]
    if not _is_number(value):
        raise TypeError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _category(record):
    value = record["category"]
    if not isinstance(value, str):
        raise TypeError(f"category must be a string, got {value!r}")
    if any("\ud800" <= ch <= "\udfff" for ch in value):
        raise ValueError(f"category {value!r} holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _check_detection(center_x, center_y, box_w, box_h, image_w, image_h, confidence):
    if not (0.0 < image_w < math.inf and 0.0 < image_h < math.inf):
        raise ValueError(f"image dimensions must be positive and finite, got {image_w}x{image_h}")
    if not (0.0 <= center_x <= image_w):
        raise ValueError(f"center_x={center_x} outside [0, {image_w}]")
    if not (0.0 <= center_y <= image_h):
        raise ValueError(f"center_y={center_y} outside [0, {image_h}]")
    if not (0.0 < box_w / image_w and box_w <= image_w and 0.0 < box_h / image_h and box_h <= image_h):
        raise ValueError(f"box {box_w}x{box_h} must be positive and fit its {image_w}x{image_h} image")
    if not (0.0 <= confidence <= 1.0):
        raise ValueError(f"confidence={confidence} outside [0, 1]")


def oracle_read_detections(path):
    rows = []
    for line_no, record in read_jsonl_stdlib(path):
        _require(record, ("frame_id", *_DETECTION_FIELDS, "category"), path, line_no)
        try:
            row = dict(
                frame_id=_id64(record, "frame_id"),
                **{column: _number(record, key) for key, column in _DETECTION_FIELDS.items()},
                category=_category(record),
                confidence=_number(record, "confidence") if "confidence" in record else 1.0,
            )
            _check_detection(**{k: v for k, v in row.items() if k not in ("frame_id", "category")})
        except (TypeError, ValueError) as exc:
            raise sio.DataError(f"{path}:{line_no}: {exc}") from exc
        rows.append(row)
    dtypes = {"frame_id": np.int64, "category": object}
    return DetectionTable(**{
        name: np.array([row[name] for row in rows], dtype=dtypes.get(name, float))
        for name in ("frame_id", *_DETECTION_FIELDS.values(), "category", "confidence")
    })


def _observation(record):
    """The record's fields, checked as `observation_from_record` and
    `Observation` checked them; its direction as read."""
    raw = np.array([_number(record, key) for key in ("dx", "dy", "dz")])
    norm = np.linalg.norm(raw)
    if not 1e-100 <= norm <= 1e100 and raw.any():  # squares that may under- or overflow
        raw = raw / np.abs(raw).max()
        norm = np.linalg.norm(raw)
    if norm == 0:
        raise ValueError("zero direction vector")
    row = dict(
        obs_id=_id64(record, "obs_id"),
        frame_id=_id64(record, "frame_id"),
        category=_category(record),
        exposure=np.array([_number(record, key) for key in ("px", "py", "pz")]),
        direction=raw / norm,
        box_w_norm=_number(record, "w_norm"),
        box_h_norm=_number(record, "h_norm"),
    )
    if not np.isfinite(row["exposure"]).all():
        raise ValueError("exposure must be finite")
    unit = float(np.linalg.norm(row["direction"]))
    if not abs(unit - 1.0) <= 1e-9:
        raise ValueError(f"direction must be a unit vector, |d|={unit}")
    if not (0.0 < row["box_w_norm"] <= 1.0) or not (0.0 < row["box_h_norm"] <= 1.0):
        raise ValueError("normalized box sizes must lie in (0, 1]")
    row["direction"] = raw
    return row


def oracle_read_observations(path):
    rows = []
    lines = {}
    for line_no, record in read_jsonl_stdlib(path):
        _require(record, _OBSERVATION_FIELDS, path, line_no)
        try:
            rows.append(_observation(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise sio.DataError(f"{path}:{line_no}: {exc}") from exc
        _claim(lines, rows[-1]["obs_id"], "obs_id {} is already used", path, line_no)
    direction = np.array([row["direction"] for row in rows], dtype=float).reshape(-1, 3)
    return ObservationTable(
        obs_id=np.array([row["obs_id"] for row in rows], dtype=np.int64),
        frame_id=np.array([row["frame_id"] for row in rows], dtype=np.int64),
        category=np.array([row["category"] for row in rows], dtype=object),
        exposure=np.array([row["exposure"] for row in rows], dtype=float).reshape(-1, 3),
        direction=direction / np.linalg.norm(direction, axis=1)[:, None],
        box_w_norm=np.array([row["box_w_norm"] for row in rows], dtype=float),
        box_h_norm=np.array([row["box_h_norm"] for row in rows], dtype=float),
    )


def oracle_read_score_triplets(path, obs_ids):
    known_set = set(np.asarray(obs_ids).tolist())
    triplets = []
    lines = {}
    for line_no, record in read_jsonl_stdlib(path):
        _require(record, ("obs_a", "obs_b", "score"), path, line_no)
        try:
            a, b, s = _id(record, "obs_a"), _id(record, "obs_b"), _number(record, "score")
        except (TypeError, ValueError) as exc:
            raise sio.DataError(f"{path}:{line_no}: {exc}") from exc
        if not (0.0 <= s <= 1.0):
            raise sio.DataError(f"{path}:{line_no}: score {s} outside [0, 1]")
        if a == b:
            raise sio.DataError(f"{path}:{line_no}: self-pair ({a}, {b})")
        for obs_id in (a, b):
            if obs_id not in known_set:
                raise sio.DataError(f"{path}:{line_no}: unknown observation {obs_id}")
        _claim(lines, (min(a, b), max(a, b)), "pair {} is already scored", path, line_no)
        triplets.append((a, b, s))
    a, b, score = zip(*triplets) if triplets else ((), (), ())
    return np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), np.array(score, dtype=float)


def oracle_read_poses(path, coord_mode="local"):
    poses = []
    anchor = None
    frames = {}
    for line_no, record in read_jsonl_stdlib(path):
        _require(record, ("frame_id", "heading", "pitch", "roll"), path, line_no)
        try:
            frame_id = _id64(record, "frame_id")
            if coord_mode == "geodetic":
                _require(record, ("lat", "lon", "alt"), path, line_no)
                lat, lon, alt = (_number(record, key) for key in ("lat", "lon", "alt"))
                if anchor is None:
                    anchor = (lat, lon, alt)
                position = sio.geodetic_to_enu(lat, lon, alt, *anchor)
            else:
                _require(record, ("x", "y", "z"), path, line_no)
                position = np.array([_number(record, key) for key in ("x", "y", "z")])
            poses.append(CameraPose(frame_id=frame_id, position=position, heading=_number(record, "heading"),
                                    pitch=_number(record, "pitch"), roll=_number(record, "roll")))
        except (TypeError, ValueError) as exc:
            raise sio.DataError(f"{path}:{line_no}: {exc}") from exc
        _claim(frames, frame_id, "frame {} already has a pose", path, line_no)
    return poses


def _claim_members(owner, members, path, line_no):
    if not (isinstance(members, list) and members
            and all(isinstance(m, int) and not isinstance(m, bool) for m in members)):
        raise sio.DataError(f"{path}:{line_no}: members must be a non-empty list of integers")
    for obs_id in members:
        _claim(owner, obs_id, "observation {} is already a member", path, line_no)


def _check_center(center, path, line_no):
    if center is not None and not _is_point(center):
        raise sio.DataError(f"{path}:{line_no}: center must be null or 3 finite numbers")


def oracle_read_clusters(path, obs_ids):
    clusters = []
    owner = {}
    lines = {}
    for line_no, record in read_jsonl_stdlib(path):
        _require(record, ("cluster_id", "members"), path, line_no)
        members = record["members"]
        _claim_members(owner, members, path, line_no)
        unknown = [m for m in members if m not in obs_ids]
        if unknown:
            raise sio.DataError(f"{path}:{line_no}: unknown observation {unknown[0]}")
        center, residuals = record.get("center"), record.get("residuals")
        _check_center(center, path, line_no)
        if center is None and residuals is not None:
            raise sio.DataError(f"{path}:{line_no}: residuals must be null when center is null")
        if center is not None and not (isinstance(residuals, list) and len(residuals) == len(members)
                                       and all(map(_is_number, residuals))):
            raise sio.DataError(f"{path}:{line_no}: residuals must be one finite number per member")
        try:
            cluster_id = _id64(record, "cluster_id")
        except (TypeError, ValueError) as exc:
            raise sio.DataError(f"{path}:{line_no}: {exc}") from exc
        if center is None:
            clusters.append(Cluster(cluster_id=cluster_id, members=set(members)))
        else:
            clusters.append(Cluster(cluster_id=cluster_id, members=set(members),
                                    center=np.asarray(center, dtype=float),
                                    residuals={m: float(r) for m, r in zip(members, residuals)}))
        _claim(lines, cluster_id, "cluster_id {} is already used", path, line_no)
    return clusters


def oracle_read_inventory(path):
    records = []
    owner = {}
    fields = ("object_id", "category", "center", "n_observations", "max_residual", "members")
    for line_no, record in read_jsonl_stdlib(path):
        _require(record, fields, path, line_no)
        try:
            _category(record)
        except (TypeError, ValueError) as exc:
            raise sio.DataError(f"{path}:{line_no}: {exc}") from exc
        _check_center(record["center"], path, line_no)
        _claim_members(owner, record["members"], path, line_no)
        records.append(record)
    return records
