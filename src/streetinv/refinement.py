"""Geometry-guided refinement of observation clusters.

Association errors come in two structural flavors: over-matching (rays of
distinct objects grouped together, biasing the center) and under-matching
(one object's rays fragmented across clusters). Refinement resolves both:

  Step 1 frees each cluster's members past the split threshold, refitting
         the center until none is,
  Step 2 re-attaches singletons to consistent clusters or pairs them up
         (guarded by a physical-size consistency check),
  Step 3 is step 1 again, on the clusters step 2 grew or made.

Every step takes the clusters as one `association.ClusterTable` and returns
one, working on its columns and the observation table's rows. Steps 1 and
3 work in rounds over all clusters at once: each round fits the center of
every cluster still open in one batched closed-form solve
(`triangulation.estimate_centers`) and frees every member past its
threshold. Step 2 pairs rays in closed form: the least-squares point of
two lines is the midpoint of their common perpendicular (Hartley &
Zisserman). Every threshold comes from the run's `pipeline.RunConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .association import ClusterTable
from .geometry import Observation, ObservationTable
# estimate_center is not called here; it stays importable from this module
# because bench/run.py wraps `refinement.estimate_center` by name.
from .triangulation import PARALLEL_EIGEN_RATIO, estimate_center, estimate_centers  # noqa: F401

if TYPE_CHECKING:
    # Annotations only: pipeline imports this module.
    from .pipeline import RunConfig

__all__ = ["split_overmatched", "estimate_physical_size", "merge_undermatched", "refine"]


def split_overmatched(
    clusters: ClusterTable, table: ObservationTable, cfg: RunConfig, refit: np.ndarray | None = None
) -> ClusterTable:
    """Free every cluster's members past the split threshold, refitting until none is.

    Works in rounds over all open clusters at once. Each round fits every
    open cluster's center in one `estimate_centers` call and frees each
    member past its split threshold. A cluster closes, localized, once no
    member is past it; it closes unlocalized when fewer than 2 members are
    left or its rays are all parallel. So every localized multi-member
    cluster out of it has max residual <= tau_split. Freed members become
    singleton clusters with fresh ids, in order of cluster id, then round,
    then member id.

    With the mask `refit`, only the clusters it marks are split; the rest
    pass through as given, centers and residuals too.

    Raises:
        OverflowError: if a fresh id would not fit 64 bits.
    """
    k, group, obs = len(clusters), clusters.group, clusters.member
    rows = table.rows(obs)
    names, codes = table.category_codes
    threshold = np.array([cfg.split_threshold(c) for c in names], dtype=float)[codes[rows]]

    reset = np.ones(k, dtype=bool) if refit is None else refit
    centers, residuals = clusters.center.copy(), clusters.residual.copy()
    centers[reset] = np.nan
    residuals[reset[group]] = np.nan
    freed_in = np.full(len(obs), -1)  # the round a row was freed in
    is_open = reset & (clusters.size >= 2)
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


def _pair(
    rays: ObservationTable, ids: np.ndarray, threshold: float, tau_scale: float
) -> list[tuple[float, int, int]]:
    """Take disjoint pairs from different frames whose two-ray center passes the gates.

    The center is the midpoint of the common perpendicular and the residual
    half the line-line gap. Pairs go best-first by (residual, id_a, id_b).
    """
    i, j = np.triu_indices(len(ids), 1)
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
    i, j, residual = i[ok], j[ok], residual[ok]
    order = np.lexsort((ids[j], ids[i], residual))
    id_of, used = ids.tolist(), [False] * len(ids)
    taken: list[tuple[float, int, int]] = []
    for r, a, b in zip(residual[order].tolist(), i[order].tolist(), j[order].tolist()):
        if not (used[a] or used[b]):
            used[a] = used[b] = True
            taken.append((r, id_of[a], id_of[b]))
    return taken


def merge_undermatched(clusters: ClusterTable, table: ObservationTable, cfg: RunConfig) -> ClusterTable:
    """Recover missed links by absorbing and pairing singletons.

    Each singleton whose ray passes within the merge threshold of a
    localized cluster of its own category (and no other) joins the nearest
    one, the smallest id on ties; centers stay as they were on entry. The
    rest are paired, most consistent pair first, when their two-ray center
    is within the threshold of both rays and the implied physical sizes
    (box height times projection depth) agree within tau_scale. A pair is
    a new, unlocalized cluster with a fresh id; every other cluster keeps
    its id.

    Raises:
        OverflowError: if a fresh id would not fit 64 bits.
    """
    names, codes = table.category_codes
    k, group = len(clusters), clusters.group
    member_codes = codes[table.rows(clusters.member)]
    first = member_codes[clusters.start]
    # A target has a center and members of one category.
    mixed = np.bincount(group[member_codes != first[group]], minlength=k) > 0
    target = (clusters.size >= 2) & clusters.localized & ~mixed
    single = np.flatnonzero(clusters.size == 1)
    at = clusters.start[single]  # each singleton's index into the member columns
    single_rays, single_codes = table.take(table.rows(clusters.member[at])), member_codes[at]

    # Each member's cluster id and residual on the way out.
    owner, residual = clusters.cluster_id[group], clusters.residual.copy()
    # Each category is absorbed and paired on arrays of its own.
    taken: list[tuple[float, int, int]] = []
    for code in np.unique(single_codes):
        in_category = np.flatnonzero(single_codes == code)
        rays, ids = single_rays.take(in_category), clusters.cluster_id[single[in_category]]
        threshold = cfg.merge_threshold(names[code])
        free = np.ones(len(ids), dtype=bool)
        near = np.flatnonzero(target & (first == code))
        if near.size:
            v = clusters.center[near][None, :, :] - rays.exposure[:, None, :]
            dist = np.linalg.norm(np.cross(v, rays.direction[:, None, :]), axis=2)
            nearest = dist.argmin(axis=1)
            d = dist[np.arange(len(ids)), nearest]
            free = d >= threshold
            joins = at[in_category[~free]]
            owner[joins], residual[joins] = clusters.cluster_id[near[nearest[~free]]], d[~free]
        taken += _pair(rays.take(free), ids[free], threshold, cfg.tau_scale)

    taken.sort()
    fresh = clusters.fresh_ids(len(taken))
    paired = at[np.searchsorted(clusters.cluster_id[single], [(a, b) for _, a, b in taken])].reshape(-1, 2)
    owner[paired], residual[paired] = fresh[:, None], np.nan
    return ClusterTable.grouped(
        owner, clusters.member, residual,
        np.concatenate([clusters.cluster_id, fresh]),
        np.concatenate([clusters.center, np.full((len(fresh), 3), np.nan)]),
    )


def refine(clusters: ClusterTable, table: ObservationTable, cfg: RunConfig) -> ClusterTable:
    """Full refinement pass: split, merge, then split again.

    The second split refits the clusters the merge grew or made. Every
    other cluster left the first split as a fixed point of it, so every
    multi-member cluster in the output satisfies max residual <= tau_split.

    Raises:
        OverflowError: if a fresh id would not fit 64 bits.
    """
    split = split_overmatched(clusters, table, cfg)
    merged = merge_undermatched(split, table, cfg)
    # The merge only grows clusters or makes new ones, so a cluster is as
    # the split left it when its id and size are.
    at = np.minimum(np.searchsorted(split.cluster_id, merged.cluster_id), len(split) - 1)
    same = (split.cluster_id[at] == merged.cluster_id) & (split.size[at] == merged.size)
    return split_overmatched(merged, table, cfg, refit=~same)
