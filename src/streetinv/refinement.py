"""Geometry-guided refinement of observation clusters.

Association errors come in two structural flavors: over-matching (rays of
distinct objects grouped together, biasing the center) and under-matching
(one object's rays fragmented across clusters). Refinement resolves both:

  Step 1 frees each blank cluster's members past the split threshold,
         fitting the center until none is,
  Step 2 re-attaches singletons to consistent clusters or pairs them up
         (guarded by a physical-size consistency check), and leaves every
         cluster it grows or makes blank. A center it joins or makes lies
         in front of each ray's camera, nearer than MAX_DEPTH along it,
  Step 3 is step 1 again, so it fits exactly what step 2 changed.

A cluster is blank when it has no center (and so no residuals). `refine`
blanks its input once, as a cluster file may carry centers, so step 1
fits every multi-member cluster.

Every step takes the clusters as one `association.ClusterTable` and returns
one, working on its columns and the observation table's rows. Steps 1 and
3 work in rounds over all clusters at once: each round fits the center of
every cluster still open in one batched closed-form solve
(`triangulation.estimate_centers`) and frees every member past its
threshold. Step 2 works on every category at once. Its depth gate bounds
how far a candidate can lie from a ray's exposure, so its candidates come
from two `scipy.spatial.cKDTree` queries, and their number grows with the
singletons, not with their square. It pairs rays in closed form: the
least-squares point of two lines is the midpoint of their common
perpendicular (Hartley & Zisserman). The pairs are then taken best-first
in one walk of `association.greedy_pairs`. Every threshold but MAX_DEPTH
comes from the run's `pipeline.RunConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial import cKDTree

from .association import ClusterTable, greedy_pairs
from .geometry import Observation, ObservationTable
# estimate_center is not called here; it stays importable from this module
# because bench/run.py wraps `refinement.estimate_center` by name.
from .triangulation import PARALLEL_EIGEN_RATIO, estimate_center, estimate_centers  # noqa: F401

if TYPE_CHECKING:
    # Annotations only: pipeline imports this module.
    from .pipeline import RunConfig

__all__ = ["split_overmatched", "estimate_physical_size", "merge_undermatched", "refine"]

# The largest depth (m) of a merged center along each of its rays. The
# simulator detects objects to 32 m.
MAX_DEPTH = 50.0


def split_overmatched(clusters: ClusterTable, table: ObservationTable, cfg: RunConfig) -> ClusterTable:
    """Fit every blank multi-member cluster, freeing its members past the split threshold until none is.

    A localized cluster, and a singleton, passes through as given, center
    and residuals too. The blank clusters of 2+ members are fitted in
    rounds, all at once. Each round fits every open cluster's center in
    one `estimate_centers` call and frees each member past its split
    threshold. A cluster closes, localized, once no member is past it; it
    closes blank when fewer than 2 members are left or its rays are all
    parallel. So every multi-member cluster it localizes has max residual
    <= tau_split. Freed members become singleton clusters with fresh ids,
    in order of cluster id, then round, then member id.

    Raises:
        OverflowError: if a fresh id would not fit 64 bits.
    """
    k, group, obs = len(clusters), clusters.group, clusters.member
    rows = table.rows(obs)
    names, codes = table.category_codes
    threshold = np.array([cfg.split_threshold(c) for c in names], dtype=float)[codes[rows]]

    centers, residuals = clusters.center.copy(), clusters.residual.copy()
    freed_in = np.full(len(obs), -1)  # the round a row was freed in
    is_open = ~clusters.localized & (clusters.size >= 2)
    round_no = 0
    while is_open.any():
        live = np.flatnonzero(is_open[group] & (freed_in < 0))
        fitted = np.flatnonzero(is_open)
        slot = np.cumsum(is_open) - 1
        g = slot[group[live]]
        fit = estimate_centers(table.exposure[rows[live]], table.direction[rows[live]], g, len(fitted))
        over = ~fit.degenerate[g] & (fit.residuals > threshold[live])
        pruned = np.bincount(g[over], minlength=len(fitted)) > 0
        settled = ~fit.degenerate & ~pruned
        centers[fitted[settled]] = fit.centers[settled]
        residuals[live[settled[g]]] = fit.residuals[settled[g]]
        freed_in[live[over]] = round_no
        left = np.bincount(group[freed_in < 0], minlength=k)
        is_open[fitted] = pruned & (left[fitted] >= 2)
        round_no += 1

    kept = freed_in < 0
    size = np.bincount(group[kept], minlength=k)
    alive = size > 0
    freed = np.flatnonzero(~kept)
    freed = freed[np.lexsort((freed_in[freed], group[freed]))]
    return ClusterTable(
        cluster_id=np.concatenate([clusters.cluster_id[alive], clusters.fresh_ids(len(freed))]),
        size=np.concatenate([size[alive], np.ones(len(freed), dtype=size.dtype)]),
        member=np.concatenate([obs[kept], obs[freed]]),
        center=np.concatenate([centers[alive], np.full((len(freed), 3), np.nan)]),
        residual=np.concatenate([residuals[kept], np.full(len(freed), np.nan)]),
    )


def estimate_physical_size(o: Observation | ObservationTable, c_tri):
    """Object size implied by a 2D box at a triangulated center: height / π.

    Multiplies the normalized box height by the projection depth of the
    center along the observation ray. A box spans height / (depth · π) of
    the panorama (as the simulator draws it), so this is the physical
    height over π, not the height; merging compares only the ratio of two
    sizes, where the π cancels. `o` is an `Observation`, or an
    `ObservationTable` of n rows with `c_tri` n x 3 for n sizes at once.
    """
    return _physical_size(o.exposure, o.direction, o.box_h_norm, c_tri)


def _physical_size(exposure, direction, box_h_norm, c_tri):
    offset = np.asarray(c_tri, dtype=float) - exposure
    return box_h_norm * np.abs(np.einsum("...k,...k->...", offset, direction))


def _near(points: np.ndarray, radius: float, queries: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The merge's candidate rows: every pair of positions (i, j) of points within `radius` of each other.

    Without `queries`, i and j are rows of `points` and i < j. With them,
    i is a row of `queries` and j one of `points`. The rows come in no
    particular order.
    """
    tree = cKDTree(points)
    if queries is None:
        pairs = tree.query_pairs(radius, output_type="ndarray")
        return pairs[:, 0], pairs[:, 1]
    rows = cKDTree(queries).sparse_distance_matrix(tree, radius, output_type="ndarray")
    return rows["i"], rows["j"]


def _absorb(rays: ObservationTable, code: np.ndarray, threshold: np.ndarray, targets: np.ndarray,
            target_code: np.ndarray, max_depth: float) -> tuple[np.ndarray, np.ndarray]:
    """The target each ray joins, if any: (s, t), row positions in `rays` and in `targets`.

    A target is a candidate for a ray when it has the ray's category, lies
    in front of the camera nearer than max_depth along the ray, and is
    within the ray's threshold of its line. The ray joins the nearest
    candidate, the first in `targets` on ties.
    """
    s, t = _near(targets, max_depth + threshold.max(), rays.exposure)
    keep = code[s] == target_code[t]
    s, t = s[keep], t[keep]
    direction = rays.direction[s]
    v = targets[t] - rays.exposure[s]
    depth = np.einsum("pk,pk->p", v, direction)
    dist = np.linalg.norm(np.cross(v, direction), axis=1)
    ok = (0.0 < depth) & (depth < max_depth) & (dist < threshold[s])
    s, t, dist = s[ok], t[ok], dist[ok]
    order = np.lexsort((t, dist, s))
    s, t = s[order], t[order]
    nearest = np.ones(len(s), dtype=bool)
    nearest[1:] = s[1:] != s[:-1]
    return s[nearest], t[nearest]


def _pair(rays: ObservationTable, code: np.ndarray, threshold: np.ndarray, tau_scale: float, max_depth: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of rays of one category and different frames whose two-ray center passes the gates.

    The center is the midpoint of the common perpendicular and the residual
    half the line-line gap. Each foot of the perpendicular lies in front of
    its camera nearer than max_depth, and so the two exposures lie within
    2 max_depth + 2 threshold of each other. Returns (i, j, residual): row
    positions in `rays`, i < j, and each pair's residual.
    """
    i, j = _near(rays.exposure, 2.0 * max_depth + 2.0 * threshold.max(initial=0.0))
    direction, exposure = rays.direction, rays.exposure
    keep = (code[i] == code[j]) & (rays.frame_id[i] != rays.frame_id[j])
    i, j = i[keep], j[keep]
    cos = np.einsum("pk,pk->p", direction[i], direction[j])
    # Two unit rays have normal-matrix eigenvalues 1 - |cos|, 1 + |cos| and
    # 2, so this is estimate_center's parallel test on a trace of 4.
    keep = 1.0 - np.abs(cos) > 4.0 * PARALLEL_EIGEN_RATIO
    i, j, cos = i[keep], j[keep], cos[keep]
    d_a, d_b, o_a, o_b = direction[i], direction[j], exposure[i], exposure[j]
    w = o_b - o_a
    e = np.einsum("pk,pk->p", w, d_a)
    f = np.einsum("pk,pk->p", w, d_b)
    # The feet of the common perpendicular, at depths t_a and t_b along the rays.
    t_a = (e - cos * f) / (1.0 - cos * cos)
    t_b = (cos * e - f) / (1.0 - cos * cos)
    foot_a = o_a + t_a[:, None] * d_a
    foot_b = o_b + t_b[:, None] * d_b
    residual = 0.5 * np.linalg.norm(foot_a - foot_b, axis=1)
    center = 0.5 * (foot_a + foot_b)
    size_a = _physical_size(o_a, d_a, rays.box_h_norm[i], center)
    size_b = _physical_size(o_b, d_b, rays.box_h_norm[j], center)
    # A zero size fails the ratio test too.
    ok = (
        (residual < threshold[i])
        & (np.maximum(size_a, size_b) < tau_scale * np.minimum(size_a, size_b))
        & (0.0 < t_a) & (t_a < max_depth) & (0.0 < t_b) & (t_b < max_depth)
    )
    return i[ok], j[ok], residual[ok]


def merge_undermatched(clusters: ClusterTable, table: ObservationTable, cfg: RunConfig) -> ClusterTable:
    """Recover missed links by absorbing and pairing singletons, all categories in one pass.

    Every merge is gated on depth: a merged center must lie in front of
    each of its rays' cameras, nearer than MAX_DEPTH (50 m) along the ray
    (cheirality, Hartley & Zisserman ch. 21). Each singleton whose ray
    passes within the merge threshold of such a center of a localized
    cluster of its own category (and no other) joins the nearest one, the
    smallest id on ties; the distances are taken to the centers as they
    were on entry. The rest are paired, most consistent pair first, when
    they come from different frames, their two-ray center is within the
    threshold of both rays and in front of both cameras nearer than
    MAX_DEPTH, and the implied physical sizes (box height times
    projection depth) agree within tau_scale. A pair is a new cluster with
    a fresh id; every other cluster keeps its id. Every cluster that
    grows, and every pair, comes out blank: no center, NaN residuals.

    The gate bounds the search. A center a ray may join lies within
    sqrt(MAX_DEPTH^2 + threshold^2) of its exposure, and the exposures of
    a pair within 2 MAX_DEPTH + 2 threshold of each other. So the
    candidates come from two cKDTree queries, of radius MAX_DEPTH +
    threshold and 2 MAX_DEPTH + 2 threshold (the largest threshold of any
    singleton's category), and not from every target and every pair.

    Raises:
        OverflowError: if a fresh id would not fit 64 bits.
    """
    single = np.flatnonzero(clusters.size == 1)
    if not single.size:
        return clusters
    names, codes = table.category_codes
    k, group = len(clusters), clusters.group
    rows = table.rows(clusters.member)
    member_codes = codes[rows]
    first = member_codes[clusters.start]
    # A target has a center and members of one category.
    mixed = np.bincount(group[member_codes != first[group]], minlength=k) > 0
    target = np.flatnonzero((clusters.size >= 2) & clusters.localized & ~mixed)
    at = clusters.start[single]  # each singleton's index into the member columns
    rays, code = table.take(rows[at]), member_codes[at]
    threshold = np.array([cfg.merge_threshold(c) for c in names], dtype=float)[code]

    # Each member's cluster id, and each cluster's center, on the way out.
    owner, center = clusters.cluster_id[group], clusters.center.copy()
    s, t = _absorb(rays, code, threshold, clusters.center[target], first[target], MAX_DEPTH)
    owner[at[s]] = clusters.cluster_id[target[t]]
    center[target[t]] = np.nan

    # One walk by (residual r, id_a, id_b) takes the pairs; positions into
    # `single` order as its ids do.
    loose = np.ones(len(single), dtype=bool)
    loose[s] = False
    loose = np.flatnonzero(loose)
    i, j, r = _pair(rays.take(loose), code[loose], threshold[loose], cfg.tau_scale, MAX_DEPTH)
    i, j = loose[i], loose[j]
    order = np.lexsort((j, i, r))
    order = order[greedy_pairs(i[order], j[order])]
    fresh = clusters.fresh_ids(len(order))
    owner[at[i[order]]] = owner[at[j[order]]] = fresh
    # Every member of a blank cluster has a NaN residual: a grown cluster's
    # members, and the singletons absorbed or paired, whose clusters are blank.
    residual = np.where(np.isnan(center[group, 0]), np.nan, clusters.residual)
    return ClusterTable.grouped(
        owner, clusters.member, residual,
        np.concatenate([clusters.cluster_id, fresh]),
        np.concatenate([center, np.full((len(fresh), 3), np.nan)]),
    )


def refine(clusters: ClusterTable, table: ObservationTable, cfg: RunConfig) -> ClusterTable:
    """Full refinement pass: blank, split, merge, then split again.

    The second split fits what the merge left blank: the clusters it grew
    or made. Every other cluster left the first split as a fixed point of
    it, so every multi-member cluster in the output that has a center
    satisfies max residual <= tau_split.

    Raises:
        OverflowError: if a fresh id would not fit 64 bits.
    """
    blank = ClusterTable(clusters.cluster_id, clusters.size, clusters.member,
                         np.full_like(clusters.center, np.nan), np.full_like(clusters.residual, np.nan))
    split = split_overmatched(blank, table, cfg)
    return split_overmatched(merge_undermatched(split, table, cfg), table, cfg)
