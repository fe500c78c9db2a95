"""Cross-view association of observations within a sliding frame window.

Association reads the observations as rows of one `ObservationTable`
sorted by (frame_id, obs_id), so each frame is one run of rows. The
window is decided in one place, `window_pairs`: it lists the row-slice
pairs of frames fewer than `window` ranks apart, counting only frames
that have observations. Scoring and assignment both read that list.

Matchability scores, from the built-in geometric scorer or an external
file, are an upper-triangular sparse matrix over the sorted rows: each
scored pair sits at (earlier row, later row). The geometric scorer scores
same-category pairs of window frames only, exp(-gap / sigma_g) for the
gap between the two rays, in array passes. Each frame pair in the window
reads its dense block of scores and solves an optimal one-to-one
assignment; matches below the confidence threshold are discarded, and the
surviving pairs are chained into initial clusters by connected components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import connected_components

from .geometry import ObservationTable

__all__ = [
    "PairMatch",
    "Cluster",
    "window_pairs",
    "ray_gaps",
    "build_score_matrix",
    "assign_pairs",
    "transitive_cluster",
]

# Frame pairs scored per array pass: bounds the scorer's peak memory.
SCORE_BATCH = 128

# Rays with 1 - (d_a . d_b)^2 below this are treated as parallel.
PARALLEL_SIN2 = 1e-12


@dataclass(frozen=True)
class PairMatch:
    """An accepted match between two observations from different frames."""

    obs_a: int
    obs_b: int
    score: float


@dataclass(eq=False)
class Cluster:
    """A group of observation ids, optionally with an estimated 3D center.

    When `center` is set, `residuals` maps every member to its
    point-to-ray distance from the center.
    """

    cluster_id: int
    members: set[int]
    center: np.ndarray | None = None
    residuals: dict[int, float] | None = None

    def __post_init__(self):
        self.members = set(self.members)
        if not self.members:
            raise ValueError("cluster must have at least one member")
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=float)
            if self.residuals is None or set(self.residuals) != self.members:
                raise ValueError("residuals must cover exactly the members when center is set")

    @property
    def size(self) -> int:
        return len(self.members)


def window_pairs(frame_id: np.ndarray, window: int) -> list[tuple[slice, slice]]:
    """Row-slice pairs of the frames fewer than `window` ranks apart.

    `frame_id` gives each row's frame and must be sorted, so that each
    frame is one run of rows. Ranks count only the frames present. Pairs
    come earlier frame first, in order of its rank, then the later one's.

    Raises:
        ValueError: if `frame_id` is not sorted.
    """
    steps = np.diff(frame_id)
    if np.any(steps < 0):
        raise ValueError("rows must be sorted by frame")
    edges = [0, *(np.flatnonzero(steps) + 1).tolist(), len(frame_id)]
    runs = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    return [
        (runs[r], runs[q])
        for r in range(len(runs))
        for q in range(r + 1, min(r + window, len(runs)))
    ]


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _clamped_gap(origin, d_fix, other, d_other) -> np.ndarray:
    """Gap with `origin` as one end: the point of ray `other` nearest
    `origin`, then the point of ray `origin` nearest that, both clamped to
    their rays."""
    t = np.maximum(0.0, np.einsum("ij,ij->i", origin - other, d_other))
    p = other + t[:, None] * d_other
    s = np.maximum(0.0, np.einsum("ij,ij->i", p - origin, d_fix))
    return _norm(origin + s[:, None] * d_fix - p)


def ray_gaps(origin_a, dir_a, origin_b, dir_b) -> np.ndarray:
    """Minimum distance between ray pairs (half-lines, parameters >= 0).

    Row k of the n x 3 arrays is one pair: rays from origin_a[k] along
    unit dir_a[k] and from origin_b[k] along unit dir_b[k]. The closest
    approach of the two infinite lines is kept when it lies in front of
    both origins. Otherwise, or when the rays are parallel, the gap is
    clamped: a parameter at zero, so points behind a camera never count.
    """
    w0 = origin_a - origin_b
    b = np.einsum("ij,ij->i", dir_a, dir_b)
    e = np.einsum("ij,ij->i", dir_a, w0)
    f = np.einsum("ij,ij->i", dir_b, w0)
    denom = 1.0 - b * b  # |d_a| = |d_b| = 1
    parallel = denom < PARALLEL_SIN2
    denom = np.where(parallel, 1.0, denom)
    t1 = (b * f - e) / denom
    t2 = (f - b * e) / denom
    interior = _norm((origin_a + t1[:, None] * dir_a) - (origin_b + t2[:, None] * dir_b))
    # The parallel gap projects origin_b's ray point nearest origin_a's ray:
    # the second of the two clamped cases.
    from_b = _clamped_gap(origin_b, dir_b, origin_a, dir_a)
    clamped = np.minimum(_clamped_gap(origin_a, dir_a, origin_b, dir_b), from_b)
    return np.where(parallel, from_b, np.where((t1 < 0.0) | (t2 < 0.0), clamped, interior))


def _pair_rows(pairs: list[tuple[slice, slice]]) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (i, j) of every row pair of every slice pair, in order."""
    a0, a1, b0, b1 = np.array([(a.start, a.stop, b.start, b.stop) for a, b in pairs]).T
    nb = b1 - b0
    count = (a1 - a0) * nb
    which = np.repeat(np.arange(len(pairs)), count)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return a0[which] + k // nb[which], b0[which] + k % nb[which]


def build_score_matrix(table: ObservationTable, sigma_g: float, window: int) -> csr_array:
    """Geometric scores of the same-category row pairs in the frame window.

    `table` is sorted by frame (see `window_pairs`). A pair's score is
    exp(-gap / sigma_g) for the gap between its rays. The result is an
    upper-triangular n x n matrix over the rows of `table`; pairs of other
    categories or outside the window have no entry.
    """
    n = len(table.obs_id)
    _, category = np.unique(table.category, return_inverse=True)
    pairs = window_pairs(table.frame_id, window)
    scored = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
    for start in range(0, len(pairs), SCORE_BATCH):
        i, j = _pair_rows(pairs[start : start + SCORE_BATCH])
        same = category[i] == category[j]
        i, j = i[same], j[same]
        gap = ray_gaps(table.exposure[i], table.direction[i], table.exposure[j], table.direction[j])
        scored.append((i, j, np.clip(np.exp(-gap / sigma_g), 0.0, 1.0)))
    rows, cols, values = (np.concatenate(part) for part in zip(*scored))
    return csr_array((values, (rows, cols)), shape=(n, n))


def assign_pairs(
    block: np.ndarray, left_ids: list[int], right_ids: list[int], tau: float
) -> list[PairMatch]:
    """Optimal one-to-one matches between the observations of two frames.

    `block[r, c]` scores observation `left_ids[r]` against `right_ids[c]`.
    Solves the maximum-weight bipartite assignment and keeps assignments
    whose score is at least `tau`.
    """
    rows, cols = linear_sum_assignment(block, maximize=True)
    matches: list[PairMatch] = []
    for r, c in zip(rows, cols):
        score = float(block[r, c])
        if score >= tau:
            a, b = left_ids[r], right_ids[c]
            matches.append(PairMatch(obs_a=min(a, b), obs_b=max(a, b), score=score))
    return matches


def transitive_cluster(pairs: list[PairMatch], all_obs: list[int]) -> list[Cluster]:
    """Chain pair matches into clusters by connected components.

    Every observation in `all_obs` ends up in exactly one cluster;
    unmatched observations become singletons. Cluster ids are assigned in
    order of each component's smallest member id.
    """
    ids = sorted(set(all_obs))
    index = {obs_id: i for i, obs_id in enumerate(ids)}
    rows, cols = [], []
    for pair in pairs:
        if pair.obs_a not in index or pair.obs_b not in index:
            raise ValueError(f"pair ({pair.obs_a}, {pair.obs_b}) references unknown observation")
        rows.append(index[pair.obs_a])
        cols.append(index[pair.obs_b])
    n = len(ids)
    if n == 0:
        return []
    graph = coo_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    # Nodes are the sorted ids and components are labelled in order of
    # their first node, so labels already follow each smallest member id.
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    groups = np.split(np.asarray(ids)[order], np.flatnonzero(np.diff(labels[order])) + 1)
    return [Cluster(cluster_id=k, members=set(g.tolist())) for k, g in enumerate(groups)]
