"""Geometry-guided refinement of observation clusters.

Association errors come in two structural flavors: over-matching (rays of
distinct objects grouped together, biasing the center) and under-matching
(one object's rays fragmented across clusters). Refinement resolves both:

  Step 1 splits geometric outliers off each cluster,
  Step 2 re-attaches singletons to consistent clusters or pairs them up
         (guarded by a physical-size consistency check),
  Step 3 re-estimates all centers from the corrected memberships.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .association import Cluster
from .geometry import Observation
from .triangulation import (
    DegenerateClusterError,
    Ray,
    estimate_center,
    point_ray_distance,
)

__all__ = [
    "RefineConfig",
    "split_overmatched",
    "estimate_physical_size",
    "merge_undermatched",
    "refine",
]

ObservationStore = dict[int, Observation]


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


def _ray(obs: Observation) -> Ray:
    return Ray(obs.exposure, obs.direction)


def _cluster_category(cluster: Cluster, obs: ObservationStore) -> str | None:
    """The common category of a cluster's members, or None if mixed."""
    categories = {obs[m].category for m in cluster.members}
    if len(categories) == 1:
        return categories.pop()
    return None


def _check_partition(clusters: list[Cluster]) -> None:
    seen: set[int] = set()
    for c in clusters:
        overlap = seen & c.members
        if overlap:
            raise ValueError(f"clusters are not disjoint; shared observations: {sorted(overlap)[:5]}")
        seen |= c.members


def split_overmatched(
    clusters: list[Cluster], obs: ObservationStore, cfg: RefineConfig
) -> list[Cluster]:
    """Prune geometric outliers from every multi-member cluster.

    Each cluster's center is computed once and all violators are pruned in
    a single pass: members whose point-to-ray distance exceeds the split
    threshold for their category are removed and become singleton
    clusters. A cluster that lost members has its center recomputed from
    the survivors (once, with no further pruning) so the following merge
    stage tests against an unbiased center. Clusters whose ray bundle is
    degenerate (all rays parallel) pass through unchanged.
    """
    next_id = max((c.cluster_id for c in clusters), default=-1) + 1
    result: list[Cluster] = []
    freed: list[Cluster] = []
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        if cluster.size < 2:
            result.append(cluster)
            continue
        members = sorted(cluster.members)
        rays = [_ray(obs[m]) for m in members]
        try:
            estimate = estimate_center(rays)
        except DegenerateClusterError:
            result.append(cluster)
            continue
        residuals = dict(zip(members, estimate.residuals))
        keep = sorted(m for m in members if residuals[m] <= cfg.split_threshold(obs[m].category))
        removed = sorted(set(members) - set(keep))
        for m in removed:
            freed.append(Cluster(cluster_id=next_id, members={m}))
            next_id += 1
        if not keep:
            continue
        center = estimate.center
        kept_residuals = {m: residuals[m] for m in keep}
        if removed and len(keep) >= 2:
            try:
                survivors = estimate_center([_ray(obs[m]) for m in keep])
                center = survivors.center
                kept_residuals = dict(zip(keep, survivors.residuals))
            except DegenerateClusterError:
                center = None
                kept_residuals = None
        elif removed and len(keep) == 1:
            center, kept_residuals = None, None
        result.append(
            Cluster(
                cluster_id=cluster.cluster_id,
                members=set(keep),
                center=center,
                residuals=kept_residuals,
            )
        )
    return result + freed


def estimate_physical_size(o: Observation, c_tri, dimension: str = "height") -> float:
    """Physical object size implied by a 2D box at a triangulated center.

    Multiplies the normalized box dimension by the projection depth of the
    center along the observation ray.
    """
    if dimension == "height":
        s_2d = o.box_h_norm
    elif dimension == "width":
        s_2d = o.box_w_norm
    else:
        raise ValueError(f"dimension must be 'width' or 'height', got {dimension!r}")
    depth = abs(float(np.dot(np.asarray(c_tri, dtype=float) - o.exposure, o.direction)))
    return s_2d * depth


def _line_line_distance(a: Ray, b: Ray) -> float:
    """Distance between the two rays' infinite lines (merge prefilter)."""
    n = np.cross(a.direction, b.direction)
    norm = np.linalg.norm(n)
    w0 = b.origin - a.origin
    if norm < 1e-12:
        return float(np.linalg.norm(w0 - np.dot(w0, a.direction) * a.direction))
    return float(abs(np.dot(w0, n)) / norm)


def merge_undermatched(
    clusters: list[Cluster], obs: ObservationStore, cfg: RefineConfig
) -> list[Cluster]:
    """Recover missed links by absorbing and pairing singletons.

    First, each singleton whose ray passes within the merge threshold of a
    multi-member cluster's center (category agreeing) is absorbed into the
    nearest such cluster. Remaining singletons are merged pairwise, most
    consistent pair first, when their two-ray triangulated center is
    within the threshold of both rays and the implied physical sizes (box
    height times projection depth) agree within tau_scale. Cluster centers
    are used as they stand on entry; absorbing a singleton never triggers
    recomputation before later tests.
    """
    _check_partition(clusters)
    singles = sorted((c for c in clusters if c.size == 1), key=lambda c: c.cluster_id)
    multis = [
        Cluster(
            cluster_id=c.cluster_id,
            members=set(c.members),
            center=c.center,
            residuals=None if c.residuals is None else dict(c.residuals),
        )
        for c in sorted(clusters, key=lambda c: c.cluster_id)
        if c.size >= 2
    ]
    next_id = max((c.cluster_id for c in clusters), default=-1) + 1

    # Absorb singletons into existing localized clusters.
    remaining: list[Cluster] = []
    for s in singles:
        member = next(iter(s.members))
        o = obs[member]
        ray = _ray(o)
        threshold = cfg.merge_threshold(o.category)
        best: tuple[float, int, Cluster] | None = None
        for m in multis:
            if m.center is None or _cluster_category(m, obs) != o.category:
                continue
            d = point_ray_distance(m.center, ray)
            if d < threshold and (best is None or (d, m.cluster_id) < (best[0], best[1])):
                best = (d, m.cluster_id, m)
        if best is None:
            remaining.append(s)
            continue
        d, _, target = best
        target.members.add(member)
        if target.residuals is not None:
            target.residuals[member] = d

    # Pair up what is left, guarded by the physical-size consistency check.
    # All eligible pairs are ranked by their joint residual and taken
    # best-first, so a ray prefers its most consistent partner over a
    # merely acceptable coincidental crossing.
    candidates: list[tuple[float, int, int]] = []
    for i in range(len(remaining)):
        a = remaining[i]
        obs_a = obs[next(iter(a.members))]
        for j in range(i + 1, len(remaining)):
            b = remaining[j]
            obs_b = obs[next(iter(b.members))]
            if obs_a.category != obs_b.category or obs_a.frame_id == obs_b.frame_id:
                continue
            threshold = cfg.merge_threshold(obs_a.category)
            ray_a, ray_b = _ray(obs_a), _ray(obs_b)
            if _line_line_distance(ray_a, ray_b) >= 2.0 * threshold:
                continue
            try:
                estimate = estimate_center([ray_a, ray_b])
            except DegenerateClusterError:
                continue
            if max(estimate.residuals) >= threshold:
                continue
            size_a = estimate_physical_size(obs_a, estimate.center)
            size_b = estimate_physical_size(obs_b, estimate.center)
            if min(size_a, size_b) <= 0.0:
                continue
            if max(size_a / size_b, size_b / size_a) >= cfg.tau_scale:
                continue
            candidates.append((max(estimate.residuals), a.cluster_id, b.cluster_id))
    candidates.sort()
    merged_away: set[int] = set()
    new_clusters: list[Cluster] = []
    by_id = {c.cluster_id: c for c in remaining}
    for _, id_a, id_b in candidates:
        if id_a in merged_away or id_b in merged_away:
            continue
        new_clusters.append(
            Cluster(
                cluster_id=next_id,
                members=set(by_id[id_a].members) | set(by_id[id_b].members),
            )
        )
        next_id += 1
        merged_away.add(id_a)
        merged_away.add(id_b)

    survivors = [c for c in remaining if c.cluster_id not in merged_away]
    return multis + survivors + new_clusters


def refine(clusters: list[Cluster], obs: ObservationStore, cfg: RefineConfig) -> list[Cluster]:
    """Full refinement pass: split, merge, then re-estimate all centers.

    The final re-estimation re-splits iteratively: after recomputing a
    cluster's center, members that still violate the split threshold are
    freed as singletons and the center is recomputed, so every multi-member
    cluster in the output satisfies max residual <= tau_split.
    """
    _check_partition(clusters)
    merged = merge_undermatched(split_overmatched(clusters, obs, cfg), obs, cfg)

    next_id = max((c.cluster_id for c in merged), default=-1) + 1
    result: list[Cluster] = []
    freed: list[Cluster] = []
    for cluster in sorted(merged, key=lambda c: c.cluster_id):
        members = set(cluster.members)
        center = None
        residuals = None
        while len(members) >= 2:
            ordered = sorted(members)
            rays = [_ray(obs[m]) for m in ordered]
            try:
                estimate = estimate_center(rays)
            except DegenerateClusterError:
                center, residuals = None, None
                break
            center = estimate.center
            residuals = dict(zip(ordered, estimate.residuals))
            violators = [
                m for m in ordered if residuals[m] > cfg.split_threshold(obs[m].category)
            ]
            if not violators:
                break
            for m in violators:
                members.discard(m)
                freed.append(Cluster(cluster_id=next_id, members={m}))
                next_id += 1
            center, residuals = None, None
        if not members:
            continue
        if len(members) < 2:
            center, residuals = None, None
        result.append(
            Cluster(
                cluster_id=cluster.cluster_id,
                members=members,
                center=center,
                residuals=residuals,
            )
        )
    return result + freed
