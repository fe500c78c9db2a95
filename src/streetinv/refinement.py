"""Geometry-guided refinement of observation clusters.

Association errors come in two structural flavors: over-matching (rays of
distinct objects grouped together, biasing the center) and under-matching
(one object's rays fragmented across clusters). Refinement resolves both:

  Step 1 frees each cluster's members past the split threshold, refitting
         the center until none is,
  Step 2 re-attaches singletons to consistent clusters or pairs them up
         (guarded by a physical-size consistency check),
  Step 3 is step 1 again.

Steps 1 and 3 work in rounds over all clusters at once, on arrays of
table rows: each round fits the center of every cluster still open in one
batched closed-form solve (`triangulation.estimate_centers`) and frees
every member past its threshold. Step 2 pairs rays in closed form: the
least-squares point of two lines is the midpoint of their common
perpendicular (Hartley & Zisserman).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .association import Cluster
from .geometry import Observation, ObservationTable
# estimate_center is not called here; it stays importable from this module
# because bench/run.py wraps `refinement.estimate_center` by name.
from .triangulation import PARALLEL_EIGEN_RATIO, estimate_center, estimate_centers  # noqa: F401

__all__ = ["RefineConfig", "split_overmatched", "estimate_physical_size", "merge_undermatched", "refine"]


@dataclass
class RefineConfig:
    """Distance and size-ratio thresholds for splitting and merging.

    tau_split / tau_merge are meters and may be overridden per category;
    tau_scale bounds the ratio of implied physical sizes in a merge.
    """

    tau_split: float = 0.5
    tau_merge: float = 0.5
    tau_scale: float = 1.5
    tau_split_per_category: dict[str, float] = field(default_factory=dict)
    tau_merge_per_category: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.tau_split <= 0 or any(v <= 0 for v in self.tau_split_per_category.values()):
            raise ValueError("tau_split must be positive")
        if self.tau_merge <= 0 or any(v <= 0 for v in self.tau_merge_per_category.values()):
            raise ValueError("tau_merge must be positive")
        if self.tau_scale <= 1.0:
            raise ValueError("tau_scale must be greater than 1")

    def split_threshold(self, category: str) -> float:
        return self.tau_split_per_category.get(category, self.tau_split)

    def merge_threshold(self, category: str) -> float:
        return self.tau_merge_per_category.get(category, self.tau_merge)


def _check_partition(clusters: list[Cluster]) -> None:
    seen: set[int] = set()
    for c in clusters:
        overlap = seen & c.members
        if overlap:
            raise ValueError(f"clusters are not disjoint; shared observations: {sorted(overlap)[:5]}")
        seen |= c.members


def split_overmatched(
    clusters: list[Cluster], table: ObservationTable, cfg: RefineConfig
) -> list[Cluster]:
    """Free every cluster's members past the split threshold, refitting until none is.

    Works in rounds over all open clusters at once. Each round fits every
    open cluster's center in one `estimate_centers` call and frees each
    member past its split threshold. A cluster closes, localized, once no
    member is past it; it closes unlocalized when fewer than 2 members are
    left or its rays are all parallel. So every localized multi-member
    cluster out of it has max residual <= tau_split. Freed members become
    singleton clusters with fresh ids, in order of cluster id, then round,
    then member id.
    """
    ordered = sorted(clusters, key=lambda c: c.cluster_id)
    members = [sorted(c.members) for c in ordered]
    sizes = np.array([len(m) for m in members], dtype=np.intp)
    obs = np.array(list(itertools.chain.from_iterable(members)), dtype=np.int64)
    group = np.repeat(np.arange(len(ordered)), sizes)
    rows = table.rows(obs)
    categories, category = np.unique(table.category[rows], return_inverse=True)
    threshold = np.array([cfg.split_threshold(c) for c in categories], dtype=float)[category]

    freed_in = np.full(len(obs), -1)  # the round a row was freed in
    residuals = np.full(len(obs), np.nan)
    centers = np.full((len(ordered), 3), np.nan)
    located = np.zeros(len(ordered), dtype=bool)
    is_open = sizes >= 2
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
        located[fitted[settled]] = True
        centers[fitted[settled]] = fit.centers[settled]
        residuals[live[settled[g]]] = fit.residuals[settled[g]]
        freed_in[live[over]] = round_no
        left = np.bincount(group[freed_in < 0], minlength=len(ordered))
        is_open[fitted] = pruned & (left[fitted] >= 2)
        round_no += 1

    kept = freed_in < 0
    counts = np.bincount(group[kept], minlength=len(ordered))
    kept_obs, kept_residuals = iter(obs[kept].tolist()), iter(residuals[kept].tolist())
    result: list[Cluster] = []
    for k, cluster in enumerate(ordered):
        ids = list(itertools.islice(kept_obs, counts[k]))
        spread = list(itertools.islice(kept_residuals, counts[k]))
        if not ids:
            continue
        if located[k]:
            result.append(Cluster(cluster.cluster_id, set(ids), centers[k], dict(zip(ids, spread))))
        else:
            result.append(Cluster(cluster.cluster_id, set(ids)))
    freed = np.flatnonzero(~kept)
    freed = freed[np.lexsort((freed_in[freed], group[freed]))]
    next_id = max((c.cluster_id for c in ordered), default=-1) + 1
    return result + [
        Cluster(cluster_id=next_id + k, members={m}) for k, m in enumerate(obs[freed].tolist())
    ]


def estimate_physical_size(o: Observation | ObservationTable, c_tri):
    """Physical object height implied by a 2D box at a triangulated center.

    Multiplies the normalized box height by the projection depth of the
    center along the observation ray. `o` is an `Observation`, or an
    `ObservationTable` of n rows with `c_tri` n x 3 for n sizes at once.
    """
    offset = np.asarray(c_tri, dtype=float) - o.exposure
    return o.box_h_norm * np.abs(np.einsum("...k,...k->...", offset, o.direction))


def _pair(
    rays: ObservationTable, ids: np.ndarray, threshold: float, tau_scale: float
) -> list[tuple[float, int, int]]:
    """Take disjoint pairs from different frames whose two-ray center passes the gates.

    The center is the midpoint of the common perpendicular and the residual
    half the line-line gap. Pairs go best-first by (residual, id_a, id_b).
    """
    i, j = np.triu_indices(len(ids), 1)
    cos = np.einsum("pk,pk->p", rays.direction[i], rays.direction[j])
    # Two unit rays have normal-matrix eigenvalues 1 - |cos|, 1 + |cos| and
    # 2, so this is estimate_center's parallel test on a trace of 4.
    keep = (rays.frame_id[i] != rays.frame_id[j]) & (1.0 - np.abs(cos) > 4.0 * PARALLEL_EIGEN_RATIO)
    i, j, cos = i[keep], j[keep], cos[keep]
    a, b = rays.take(i), rays.take(j)
    w = b.exposure - a.exposure
    e = np.einsum("pk,pk->p", w, a.direction)
    f = np.einsum("pk,pk->p", w, b.direction)
    foot_a = a.exposure + ((e - cos * f) / (1.0 - cos * cos))[:, None] * a.direction
    foot_b = b.exposure + ((cos * e - f) / (1.0 - cos * cos))[:, None] * b.direction
    residual = 0.5 * np.linalg.norm(foot_a - foot_b, axis=1)
    center = 0.5 * (foot_a + foot_b)
    size_a, size_b = estimate_physical_size(a, center), estimate_physical_size(b, center)
    # A zero size fails the ratio test too.
    ok = (residual < threshold) & (np.maximum(size_a, size_b) < tau_scale * np.minimum(size_a, size_b))
    i, j, residual = i[ok], j[ok], residual[ok]
    used = np.zeros(len(ids), dtype=bool)
    taken: list[tuple[float, int, int]] = []
    for k in np.lexsort((ids[j], ids[i], residual)):
        if not (used[i[k]] or used[j[k]]):
            used[i[k]] = used[j[k]] = True
            taken.append((float(residual[k]), int(ids[i[k]]), int(ids[j[k]])))
    return taken


def merge_undermatched(
    clusters: list[Cluster], table: ObservationTable, cfg: RefineConfig
) -> list[Cluster]:
    """Recover missed links by absorbing and pairing singletons.

    Each singleton whose ray passes within the merge threshold of a
    localized cluster of its own category (and no other) joins the nearest
    one, the smallest id on ties; centers stay as they were on entry. The
    rest are paired, most consistent pair first, when their two-ray center
    is within the threshold of both rays and the implied physical sizes
    (box height times projection depth) agree within tau_scale. A cluster
    that absorbs is returned as a new one; every other multi-member
    cluster is returned as given.
    """
    _check_partition(clusters)
    ordered = sorted(clusters, key=lambda c: c.cluster_id)
    multis = [c for c in ordered if c.size >= 2]
    # A target has a center and members of one category.
    sizes = np.array([c.size for c in multis], dtype=np.intp)
    group = np.repeat(np.arange(len(multis)), sizes)
    member_categories = table.category[table.rows([m for c in multis for m in c.members])]
    first = member_categories[np.cumsum(sizes) - sizes]
    mixed = np.bincount(group[member_categories != first[group]], minlength=len(multis)) > 0
    targets: dict[str, list[int]] = {}
    for k, c in enumerate(multis):
        if c.center is not None and not mixed[k]:
            targets.setdefault(first[k], []).append(k)
    singles = [c for c in ordered if c.size == 1]
    single_rays = table.take(table.rows([next(iter(s.members)) for s in singles]))
    single_ids = np.array([s.cluster_id for s in singles], dtype=np.int64)

    # Each category is absorbed and paired on arrays of its own.
    absorbed: dict[int, dict[int, float]] = {}
    left: set[int] = set()
    taken: list[tuple[float, int, int]] = []
    for category in dict.fromkeys(single_rays.category):
        in_category = single_rays.category == category
        rays, ids = single_rays.take(in_category), single_ids[in_category]
        threshold = cfg.merge_threshold(category)
        free = np.ones(len(ids), dtype=bool)
        if category in targets:
            near = targets[category]
            v = np.stack([multis[t].center for t in near])[None, :, :] - rays.exposure[:, None, :]
            dist = np.linalg.norm(np.cross(v, rays.direction[:, None, :]), axis=2)
            nearest = dist.argmin(axis=1)
            d = dist[np.arange(len(ids)), nearest]
            for k in np.flatnonzero(d < threshold):
                absorbed.setdefault(near[nearest[k]], {})[int(rays.obs_id[k])] = float(d[k])
            free = d >= threshold
        left.update(ids[free].tolist())
        taken += _pair(rays.take(free), ids[free], threshold, cfg.tau_scale)

    by_id = {c.cluster_id: c for c in ordered}
    next_id = max(by_id, default=-1) + 1
    merged = [
        Cluster(cluster_id=next_id + k, members=by_id[id_a].members | by_id[id_b].members)
        for k, (_, id_a, id_b) in enumerate(sorted(taken))
    ]
    left -= {x for _, id_a, id_b in taken for x in (id_a, id_b)}
    grown = [
        Cluster(c.cluster_id, c.members | set(absorbed[k]), c.center, {**c.residuals, **absorbed[k]})
        if k in absorbed else c
        for k, c in enumerate(multis)
    ]
    return grown + [c for c in ordered if c.cluster_id in left] + merged


def refine(clusters: list[Cluster], table: ObservationTable, cfg: RefineConfig) -> list[Cluster]:
    """Full refinement pass: split, merge, then split again.

    The second split refits every center from the corrected memberships
    and prunes to a fixed point, so every multi-member cluster in the
    output satisfies max residual <= tau_split.
    """
    _check_partition(clusters)
    split = split_overmatched(clusters, table, cfg)
    return split_overmatched(merge_undermatched(split, table, cfg), table, cfg)
