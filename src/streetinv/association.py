"""Cross-view association of observations within a sliding frame window.

Association reads the observations as rows of one `ObservationTable`
sorted by (frame_id, obs_id), so each frame is one run of rows. The
window is decided in one place, `window_pairs`: it lists the row-slice
pairs of frames fewer than `window` ranks apart, counting only frames
that have observations. Scoring and assignment both read that list.

Matchability scores, from the built-in geometric scorer or an external
file, are one flat array with one score per row pair of the window:
`score_window` lists the row pairs block after block, a batch of frame
pairs at a time, and asks a scorer for each batch's scores. The geometric
scorer scores same-category pairs exp(-gap / sigma_g) for the gap between
the two rays, in array passes; a file's scores are looked up by row pair.
Each frame pair in the window reads its dense block, a view of the array,
and solves an optimal one-to-one assignment, kept where the score reaches
the confidence threshold. The kept matches stay columns of table rows:
`transitive_cluster` chains them by connected components over the rows,
and `ScoreTriplets` holds them as columns of observation ids and scores.

The clusters of a run are one `ClusterTable`: columns of cluster ids,
member ids grouped by cluster, centers and residuals. Chaining builds it
from the component labels, and every later stage, from localization and
refinement to the inventory and the cluster files, takes one and returns
one. `Cluster` is the record of one cluster, made only when a table is
iterated or built from records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .geometry import ObservationTable

__all__ = [
    "ScoreTriplets",
    "Cluster",
    "ClusterTable",
    "window_pairs",
    "ray_gaps",
    "score_window",
    "window_blocks",
    "build_score_matrix",
    "assign_pairs",
    "transitive_cluster",
]

# Frame pairs scored per array pass: bounds the scorer's peak memory.
SCORE_BATCH = 128

# Rays with 1 - (d_a . d_b)^2 below this are treated as parallel.
PARALLEL_SIN2 = 1e-12


@dataclass(frozen=True, eq=False)
class ScoreTriplets:
    """Scored observation pairs as three columns, one row per pair.

    Holds an external matcher's scores as read, and association's matches
    with obs_a < obs_b.
    """

    obs_a: np.ndarray
    obs_b: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)


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


_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class ClusterTable:
    """Clusters as columns: a partition of some observations.

    Clusters come in id order, and each cluster's members are one run of
    the member columns, in id order. A table may cover only some of a
    run's observations. Building one refuses an observation that is a
    member of two clusters.

    Attributes:
        cluster_id: (k,) int64 ids, increasing.
        size: (k,) member counts, each at least 1.
        member: (n,) int64 observation ids, cluster after cluster.
        center: (k, 3) centers; a row of NaN for an unlocalized cluster.
        residual: (n,) each member's distance from its cluster's center,
            NaN in an unlocalized cluster.
    """

    cluster_id: np.ndarray
    size: np.ndarray
    member: np.ndarray
    center: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        if np.any(self.size < 1):
            raise ValueError("cluster must have at least one member")
        if self.size.sum() != len(self.member):
            raise ValueError(f"cluster sizes add up to {self.size.sum()}, not to the {len(self.member)} members")
        if np.any(self.cluster_id[1:] <= self.cluster_id[:-1]):  # no np.diff: it wraps at 64 bits
            raise ValueError("cluster ids must be unique and increasing")
        ids = np.sort(self.member)
        shared = ids[1:][ids[1:] == ids[:-1]]
        if shared.size:
            raise ValueError(f"clusters are not disjoint; shared observations: {np.unique(shared)[:5].tolist()}")

    @classmethod
    def grouped(cls, owner, member, residual=None, cluster_id=None, center=None) -> "ClusterTable":
        """The clusters of the observations `member`, member i in the cluster of id owner[i].

        Sorts the clusters and each one's members by id, each member's
        residual (NaN without `residual`) with it. Row g of `center` is the
        center of the cluster of id cluster_id[g]: they list every id of
        `owner`, in any order, and may list ids no member names, which are
        left out. Without them every cluster is unlocalized.

        Raises:
            ValueError: if `cluster_id` holds an id twice, or an observation
                is a member twice.
        """
        owner = np.asarray(owner, dtype=np.int64)
        member = np.asarray(member, dtype=np.int64)
        order = np.lexsort((member, owner))
        owner, member = owner[order], member[order]
        residual = np.full(len(member), np.nan) if residual is None else np.asarray(residual, dtype=float)[order]
        new = np.ones(len(owner), dtype=bool)
        new[1:] = owner[1:] != owner[:-1]
        starts = np.flatnonzero(new)
        ids = owner[starts]
        if cluster_id is None:
            centers = np.full((len(ids), 3), np.nan)
        else:
            by_id = np.argsort(cluster_id, kind="stable")
            known = np.asarray(cluster_id, dtype=np.int64)[by_id]
            twice = known[1:][known[1:] == known[:-1]]
            if twice.size:
                raise ValueError(f"cluster_id {twice[0]} is used twice")
            centers = np.asarray(center, dtype=float).reshape(-1, 3)[by_id[np.searchsorted(known, ids)]]
        return cls(ids, np.diff(np.append(starts, len(owner))), member, centers, residual)

    @classmethod
    def from_records(cls, clusters: Iterable[Cluster]) -> "ClusterTable":
        """The table of `Cluster` records given in any order: the inverse of `records`.

        Raises:
            ValueError: if two records share an id or an observation.
        """
        clusters = list(clusters)
        members = [list(c.members) for c in clusters]
        residual = [c.residuals[m] if c.center is not None else np.nan for c, ms in zip(clusters, members) for m in ms]
        return cls.grouped(
            np.repeat(np.array([c.cluster_id for c in clusters], dtype=np.int64), [len(ms) for ms in members]),
            [m for ms in members for m in ms],
            residual,
            [c.cluster_id for c in clusters],
            [[np.nan] * 3 if c.center is None else c.center for c in clusters],
        )

    def records(self) -> list[Cluster]:
        """Each cluster as a `Cluster`, in id order."""
        records = []
        for k, (cluster_id, members, residuals, localized) in enumerate(zip(
                self.cluster_id.tolist(), self.runs(self.member), self.runs(self.residual), self.localized.tolist())):
            # Checked with the table, so no __post_init__.
            c = Cluster.__new__(Cluster)
            c.cluster_id, c.members, c.center, c.residuals = cluster_id, set(members), None, None
            if localized:
                c.center, c.residuals = self.center[k].copy(), dict(zip(members, residuals))
            records.append(c)
        return records

    def runs(self, column: np.ndarray) -> list[list]:
        """Each cluster's run of a member column, `member` or `residual`, as a list."""
        values, ends = column.tolist(), np.cumsum(self.size).tolist()
        return [values[lo:hi] for lo, hi in zip([0, *ends], ends)]

    def __len__(self) -> int:
        return len(self.cluster_id)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.records())

    @cached_property
    def start(self) -> np.ndarray:
        """Each cluster's first index into the member columns."""
        return np.cumsum(self.size) - self.size

    @cached_property
    def group(self) -> np.ndarray:
        """Each member's cluster, as an index into the cluster columns."""
        return np.repeat(np.arange(len(self)), self.size)

    @property
    def localized(self) -> np.ndarray:
        """Whether each cluster has a center."""
        return ~np.isnan(self.center[:, 0])

    def fresh_ids(self, n: int) -> np.ndarray:
        """`n` unused cluster ids, counting up from one past the largest (from 0 in an empty table).

        Raises:
            OverflowError: if one would not fit 64 bits.
        """
        first = int(self.cluster_id[-1]) + 1 if len(self) else 0
        if not n:
            return np.empty(0, dtype=np.int64)
        if first + n - 1 > _INT64_MAX:
            raise OverflowError(f"{n} fresh cluster ids after cluster_id {first - 1} do not fit 64 bits")
        return np.arange(n, dtype=np.int64) + first


def window_pairs(frame_id: np.ndarray, window: int) -> list[tuple[slice, slice]]:
    """Row-slice pairs of the frames fewer than `window` ranks apart.

    `frame_id` gives each row's frame and must be sorted, so that each
    frame is one run of rows. Ranks count only the frames present. Pairs
    come earlier frame first, in order of its rank, then the later one's.

    Raises:
        ValueError: if `frame_id` is not sorted.
    """
    # Neighbours are compared, not subtracted: a difference of int64 ids may wrap.
    if np.any(frame_id[1:] < frame_id[:-1]):
        raise ValueError("rows must be sorted by frame")
    edges = [0, *(np.flatnonzero(frame_id[1:] != frame_id[:-1]) + 1).tolist(), len(frame_id)]
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


def score_window(pairs: list[tuple[slice, slice]], score: Callable) -> np.ndarray:
    """One score per row pair of the frame window `pairs`, in one flat array.

    Lists each slice pair's row pairs (i, j), block after block and each
    block row by row, `SCORE_BATCH` slice pairs at a time, and stores
    `score(i, j)` of each batch. `window_blocks` reads the blocks back.
    """
    a0, a1, b0, b1 = np.array([(a.start, a.stop, b.start, b.stop) for a, b in pairs], dtype=np.intp).reshape(-1, 4).T
    width = b1 - b0
    ends = np.concatenate([[0], np.cumsum((a1 - a0) * width)])
    flat = np.empty(ends[-1])
    for start in range(0, len(pairs), SCORE_BATCH):
        stop = min(start + SCORE_BATCH, len(pairs))
        which = np.repeat(np.arange(start, stop), np.diff(ends[start : stop + 1]))
        k = np.arange(ends[start], ends[stop]) - ends[which]
        flat[ends[start] : ends[stop]] = score(a0[which] + k // width[which], b0[which] + k % width[which])
    return flat


def window_blocks(flat: np.ndarray, pairs: list[tuple[slice, slice]]) -> Iterator[np.ndarray]:
    """Each slice pair's block of a `score_window` array, in order, as a view."""
    end = 0
    for a, b in pairs:
        start, end = end, end + (a.stop - a.start) * (b.stop - b.start)
        yield flat[start:end].reshape(a.stop - a.start, -1)


# Named `build_score_matrix` though it returns a flat array: bench/run.py
# wraps `pipeline.build_score_matrix` by name to time the geometric scorer.
def build_score_matrix(table: ObservationTable, sigma_g: float, pairs: list[tuple[slice, slice]]) -> np.ndarray:
    """Geometric scores of the row pairs in the frame window, as `score_window` lays them out.

    `table` is sorted by frame and `pairs` is its frame window,
    `window_pairs(table.frame_id, window)`. A same-category pair scores
    exp(-gap / sigma_g) for the gap between its rays; a pair of two
    categories scores 0.
    """
    _, category = table.category_codes

    def score(i, j):
        same = category[i] == category[j]
        i, j = i[same], j[same]
        gap = ray_gaps(table.exposure[i], table.direction[i], table.exposure[j], table.direction[j])
        scores = np.zeros(len(same))
        scores[same] = np.clip(np.exp(-gap / sigma_g), 0.0, 1.0)
        return scores

    return score_window(pairs, score)


def assign_pairs(block: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal one-to-one matches between the rows and columns of `block`.

    Solves the maximum-weight bipartite assignment on the scores `block`
    and keeps assignments whose score is at least `tau`, as block-local
    (rows, cols) index arrays in increasing row order.
    """
    rows, cols = linear_sum_assignment(block, maximize=True)
    kept = block[rows, cols] >= tau
    return rows[kept], cols[kept]


def transitive_cluster(row_a: np.ndarray, row_b: np.ndarray, obs_id: np.ndarray) -> ClusterTable:
    """Chain matched rows into clusters by connected components.

    Match i links rows row_a[i] and row_b[i] of a table whose ids are
    `obs_id`. Every row ends up in exactly one cluster; unmatched rows
    become singletons. Cluster ids are assigned in order of each
    component's smallest member id. No cluster is localized.

    Raises:
        ValueError: if a match names a row outside the table.
    """
    n = len(obs_id)
    for rows in (row_a, row_b):
        if rows.size and not (0 <= rows.min() and rows.max() < n):
            raise ValueError(f"match references unknown row of a {n}-row table")
    # Nodes are numbered in id order and components are labelled in order
    # of their first node, so labels already follow each smallest member id.
    by_id = np.argsort(obs_id, kind="stable")
    node = np.empty(n, dtype=np.intp)
    node[by_id] = np.arange(n)
    graph = coo_array((np.ones(len(row_a)), (node[row_a], node[row_b])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    return ClusterTable.grouped(labels, obs_id[by_id])
