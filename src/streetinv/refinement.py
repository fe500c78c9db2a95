"""Geometry-guided refinement of observation clusters.

Association errors come in two structural flavors: over-matching (rays of
distinct objects grouped together, biasing the center) and under-matching
(one object's rays fragmented across clusters). Refinement resolves both:

  Step 1 frees each blank cluster's members past the split threshold,
         fitting the center until none is,
  Step 2 re-attaches singletons to consistent clusters or pairs them up
         (guarded by a physical-size consistency check), and leaves every
         cluster it grows or makes blank,
  Step 3 is step 1 again, so it fits exactly what step 2 changed.

A cluster is blank when it has no center (and so no residuals). `refine`
blanks its input once, as a cluster file may carry centers, so step 1
fits every multi-member cluster.

Every step takes the clusters as one `association.ClusterTable` and returns
one, working on its columns and the observation table's rows. Steps 1 and
3 work in rounds over all clusters at once: each round fits the center of
every cluster still open in one batched closed-form solve
(`triangulation.estimate_centers`) and frees every member past its
threshold. Step 2 pairs rays in closed form: the least-squares point of
two lines is the midpoint of their common perpendicular (Hartley &
Zisserman). The pairs of every category are then taken best-first in one
walk of `association.greedy_pairs`. Every threshold comes from the run's
`pipeline.RunConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .association import ClusterTable, greedy_pairs
from .geometry import Observation, ObservationTable
# estimate_center is not called here; it stays importable from this module
# because bench/run.py wraps `refinement.estimate_center` by name.
from .triangulation import PARALLEL_EIGEN_RATIO, estimate_center, estimate_centers  # noqa: F401

if TYPE_CHECKING:
    # Annotations only: pipeline imports this module.
    from .pipeline import RunConfig

__all__ = ["split_overmatched", "estimate_physical_size", "merge_undermatched", "refine"]


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


def _pair(rays: ObservationTable, threshold: float, tau_scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of rays from different frames whose two-ray center passes the gates.

    The center is the midpoint of the common perpendicular and the residual
    half the line-line gap. Returns (i, j, residual): row positions in
    `rays`, i < j, and each pair's residual.
    """
    i, j = np.triu_indices(len(rays), 1)
    direction, exposure = rays.direction, rays.exposure
    cos = np.einsum("pk,pk->p", direction[i], direction[j])
    # Two unit rays have normal-matrix eigenvalues 1 - |cos|, 1 + |cos| and
    # 2, so this is estimate_center's parallel test on a trace of 4.
    keep = (rays.frame_id[i] != rays.frame_id[j]) & (1.0 - np.abs(cos) > 4.0 * PARALLEL_EIGEN_RATIO)
    i, j, cos = i[keep], j[keep], cos[keep]
    d_a, d_b, o_a, o_b = direction[i], direction[j], exposure[i], exposure[j]
    w = o_b - o_a
    e = np.einsum("pk,pk->p", w, d_a)
    f = np.einsum("pk,pk->p", w, d_b)
    foot_a = o_a + ((e - cos * f) / (1.0 - cos * cos))[:, None] * d_a
    foot_b = o_b + ((cos * e - f) / (1.0 - cos * cos))[:, None] * d_b
    residual = 0.5 * np.linalg.norm(foot_a - foot_b, axis=1)
    center = 0.5 * (foot_a + foot_b)
    size_a = _physical_size(o_a, d_a, rays.box_h_norm[i], center)
    size_b = _physical_size(o_b, d_b, rays.box_h_norm[j], center)
    # A zero size fails the ratio test too.
    ok = (residual < threshold) & (np.maximum(size_a, size_b) < tau_scale * np.minimum(size_a, size_b))
    return i[ok], j[ok], residual[ok]


def merge_undermatched(clusters: ClusterTable, table: ObservationTable, cfg: RunConfig) -> ClusterTable:
    """Recover missed links by absorbing and pairing singletons.

    Each singleton whose ray passes within the merge threshold of a
    localized cluster of its own category (and no other) joins the nearest
    one, the smallest id on ties; the distances are taken to the centers
    as they were on entry. The rest are paired, most consistent pair
    first, when their two-ray center is within the threshold of both rays
    and the implied physical sizes (box height times projection depth)
    agree within tau_scale. A pair is a new cluster with a fresh id; every
    other cluster keeps its id. Every cluster that grows, and every pair,
    comes out blank: no center, NaN residuals.

    Raises:
        OverflowError: if a fresh id would not fit 64 bits.
    """
    single = np.flatnonzero(clusters.size == 1)
    if not single.size:
        return clusters
    names, codes = table.category_codes
    k, group = len(clusters), clusters.group
    member_codes = codes[table.rows(clusters.member)]
    first = member_codes[clusters.start]
    # A target has a center and members of one category.
    mixed = np.bincount(group[member_codes != first[group]], minlength=k) > 0
    target = (clusters.size >= 2) & clusters.localized & ~mixed
    at = clusters.start[single]  # each singleton's index into the member columns
    single_rays, single_codes = table.take(table.rows(clusters.member[at])), member_codes[at]

    # Each member's cluster id, and each cluster's center, on the way out.
    owner, center = clusters.cluster_id[group], clusters.center.copy()
    # Each category is absorbed on arrays of its own; its pair candidates
    # are listed as positions into `single`.
    candidates = []
    for code in np.unique(single_codes):
        in_category = np.flatnonzero(single_codes == code)
        rays = single_rays.take(in_category)
        threshold = cfg.merge_threshold(names[code])
        free = np.ones(len(in_category), dtype=bool)
        near = np.flatnonzero(target & (first == code))
        if near.size:
            v = clusters.center[near][None, :, :] - rays.exposure[:, None, :]
            dist = np.linalg.norm(np.cross(v, rays.direction[:, None, :]), axis=2)
            nearest = dist.argmin(axis=1)
            free = dist[np.arange(len(in_category)), nearest] >= threshold
            grown = near[nearest[~free]]
            owner[at[in_category[~free]]] = clusters.cluster_id[grown]
            center[grown] = np.nan
        i, j, r = _pair(rays.take(free), threshold, cfg.tau_scale)
        loose = in_category[free]
        candidates.append((loose[i], loose[j], r))

    # No two categories share a singleton, so one walk by (residual r, id_a,
    # id_b) takes each category's pairs; positions into `single` order as
    # its ids do.
    i, j, r = (np.concatenate(column) for column in zip(*candidates))
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
