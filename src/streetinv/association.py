"""Cross-view association of observations within a sliding frame window.

Association reads the observations as rows of one `ObservationTable`
sorted by (frame_id, obs_id), so each frame is one run of rows. The
window is decided in one place, `window_pairs`: it lists the pairs of
frames fewer than `window` ranks apart, counting only frames that have
observations, as four row-range columns (a0, a1, b0, b1): frame pair k
pairs rows a0[k]:a1[k] with the later rows b0[k]:b1[k]. The geometric
scorer and assignment both read those columns.

Matchability scores, from the built-in geometric scorer or an external
file, are scored row pairs: columns (row_a, row_b, score), a row pair the
scorer leaves out scoring 0. The geometric scorer lists only the
same-category row pairs of the window, the only ones that can score above
0: with the rows sorted by (category, row), each row's partners are one
`searchsorted` range, and their ray gaps are taken a cache-sized chunk at
a time. A ray gap, the distance between two half-lines, is one clamped
closed form (Ericson, Real-Time Collision Detection, 2005, 5.1.9, with the
segments' upper clamps dropped): one pair of ray parameters per ray pair.
A file's pairs are listed as read. `assign_pairs` alone lays out
the window: it places each listed pair of the window in its frame pair's
block of one flat cost array, drops the pairs within one frame or beyond
the window, and solves the whole window. Its one loop is the optimal
one-to-one assignment of each frame pair's block, a view of that array,
and the offsets, the scores and the confidence threshold are array passes
over all the solutions. The kept matches stay columns of table rows:
`transitive_cluster` chains them by connected components over the rows,
and `ScoreTriplets` holds them as columns of observation ids and scores.

The clusters of a run are one `ClusterTable`: columns of cluster ids,
member ids grouped by cluster, centers and residuals. Chaining builds it
from the component labels, and every later stage, from localization and
refinement to the inventory and the cluster files, takes one and returns
one. `Cluster` is the record of one cluster, made only when a table is
iterated or built from records.

`greedy_pairs` is the one greedy one-to-one walk over pairs listed best
first: refinement pairs singletons with it and evaluation matches centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .geometry import ObservationTable

__all__ = [
    "FramePairs",
    "ScoredPairs",
    "ScoreTriplets",
    "Cluster",
    "ClusterTable",
    "window_pairs",
    "ray_gaps",
    "build_score_matrix",
    "assign_pairs",
    "greedy_pairs",
    "transitive_cluster",
]

# Same-category row pairs per `ray_gaps` pass of the geometric scorer:
# small enough that a pass's temporaries stay in cache.
GAP_CHUNK = 4096

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

# A frame window as four intp columns (a0, a1, b0, b1): frame pair k pairs
# rows a0[k]:a1[k] of one frame with rows b0[k]:b1[k] of a later one.
FramePairs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# Scored row pairs as three columns (row_a, row_b, score).
ScoredPairs = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def window_pairs(frame_id: np.ndarray, window: int) -> FramePairs:
    """The frame pairs fewer than `window` ranks apart, as row-range columns.

    `frame_id` gives each row's frame and must be sorted, so that each
    frame is one run of rows. Ranks count only the frames present. Pair k
    of the columns (a0, a1, b0, b1) pairs rows a0[k]:a1[k] of the earlier
    frame with rows b0[k]:b1[k] of the later one. Pairs come earlier frame
    first, in order of its rank, then the later one's.

    Raises:
        ValueError: if `frame_id` is not sorted.
    """
    # Neighbours are compared, not subtracted: a difference of int64 ids may wrap.
    if np.any(frame_id[1:] < frame_id[:-1]):
        raise ValueError("rows must be sorted by frame")
    edges = np.concatenate([[0], np.flatnonzero(frame_id[1:] != frame_id[:-1]) + 1, [len(frame_id)]])
    n_frames = len(edges) - 1
    # Frame r pairs with the min(window - 1, n_frames - 1 - r) frames after it.
    later = np.minimum(min(window - 1, n_frames), n_frames - 1 - np.arange(n_frames))
    first = np.repeat(np.arange(n_frames), later)
    second = first + 1 + _ranges(later)
    return edges[first], edges[first + 1], edges[second], edges[second + 1]


def _ranges(counts: np.ndarray) -> np.ndarray:
    """arange(c) for each c of `counts`, one after another."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def ray_gaps(origin_a, dir_a, origin_b, dir_b) -> np.ndarray:
    """Minimum distance between ray pairs (half-lines, parameters >= 0).

    Row k of the n x 3 arrays is one pair: rays from origin_a[k] along
    unit dir_a[k] and from origin_b[k] along unit dir_b[k]. Their closest
    points are one pair of ray parameters (s, t), clamped as in Ericson,
    Real-Time Collision Detection (2005), 5.1.9, without the segments'
    upper clamps: s of the lines' closest approach (0 if parallel), at
    least 0; t of ray b's point nearest that; if t < 0, t = 0 and s of ray
    a's point nearest origin_b, at least 0.
    """
    w = origin_a - origin_b
    b = np.einsum("ij,ij->i", dir_a, dir_b)
    e = np.einsum("ij,ij->i", dir_a, w)
    f = np.einsum("ij,ij->i", dir_b, w)
    denom = 1.0 - b * b  # |d_a| = |d_b| = 1
    # A parallel pair divides by inf, not by (nearly) 0: s = 0.
    s = np.maximum(0.0, (b * f - e) / np.where(denom < PARALLEL_SIN2, np.inf, denom))
    t = b * s + f
    s = np.where(t < 0.0, np.maximum(0.0, -e), s)
    return _norm(w + s[:, None] * dir_a - np.maximum(0.0, t)[:, None] * dir_b)


# Named `build_score_matrix` though it returns scored row pairs, not a
# matrix: bench/run.py wraps `pipeline.build_score_matrix` by name to time
# the geometric scorer.
def build_score_matrix(table: ObservationTable, sigma_g: float, pairs: FramePairs) -> ScoredPairs:
    """Geometric scores of the same-category row pairs in the frame window, as `assign_pairs` takes them.

    `table` is sorted by frame and `pairs` is its frame window,
    `window_pairs(table.frame_id, window)`. A same-category pair scores
    exp(-gap / sigma_g) for the gap between its rays; a pair of two
    categories scores 0 and is not listed. With the rows sorted by
    (category, row), a row's partners of its own category in the later
    frames of its window are one run of them. Their gaps are taken
    `GAP_CHUNK` pairs a pass. Returns (row_a, row_b, score), row_a of the
    earlier frame.
    """
    a0, a1, b0, b1 = pairs
    if not len(a0):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    n = len(table)
    _, code = table.category_codes
    # The rows of each frame with later frames in the window, `head` its
    # first frame pair and `last` its last. Its later frames' rows are one
    # run, b0 of the first pair to b1 of the last.
    head = np.flatnonzero(np.append(True, a0[1:] != a0[:-1]))
    last = np.append(head[1:], len(a0)) - 1
    per_frame = a1[head] - a0[head]
    rows = np.repeat(a0[head], per_frame) + _ranges(per_frame)
    # Sorted by (category, row), a row's same-category partners are one run of `key`.
    key = np.sort(code * n + np.arange(n))
    own = code[rows] * n
    lo = np.searchsorted(key, own + np.repeat(b0[head], per_frame))
    count = np.searchsorted(key, own + np.repeat(b1[last], per_frame)) - lo
    i = np.repeat(rows, count)
    j = key[np.repeat(lo, count) + _ranges(count)] % n
    scores = np.empty(len(i))
    for start in range(0, len(i), GAP_CHUNK):
        chunk = slice(start, start + GAP_CHUNK)
        # np.take gathers rows several times faster than fancy indexing.
        rays = [np.take(column, side[chunk], axis=0) for side in (i, j)
                for column in (table.exposure, table.direction)]
        scores[chunk] = np.exp(-ray_gaps(*rays) / sigma_g)
    return i, j, scores


def assign_pairs(scored: ScoredPairs, pairs: FramePairs, tau: float) -> ScoredPairs:
    """Optimal one-to-one matches in every frame pair of the window, kept where the score reaches `tau`.

    `scored` is (row_a, row_b, score): table rows, in either order, and
    the score of each listed row pair, a pair listed at most once. A row
    pair of the window that is not listed scores 0; a listed pair within
    one frame or beyond the window is ignored. Each frame pair's block is
    solved as a maximum-weight bipartite assignment, the one solver call
    per frame pair; everything else is one array pass over the window.
    Returns (row_a, row_b, score): the table rows of the earlier and the
    later frame and the score of each kept match, frame pair by frame pair
    in window order, each pair's in increasing row order.
    """
    a0, a1, b0, b1 = pairs
    if not len(a0):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    height, width = a1 - a0, b1 - b0
    # The window's blocks, one after another, each row by row: block k is ends[k]:ends[k + 1].
    ends = np.concatenate([[0], np.cumsum(height * width)])
    # Every frame's first row and rank, and its frame pairs as the earlier
    # frame: `later[r]` of them from pair first[r] on, with frames r + 1,
    # r + 2, ... in turn. The last frame pair ends at the last row.
    starts = np.union1d(a0, b0)
    rank = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, b1[-1])))
    first = np.searchsorted(a0, starts)
    later = np.diff(np.append(first, len(a0)))
    row_a, row_b, score = scored
    i, j = np.minimum(row_a, row_b), np.maximum(row_a, row_b)
    # The pair's frame pair, if any: frame rank[j] is `ahead` frames after rank[i].
    ahead = rank[j] - rank[i]
    listed = (0 < ahead) & (ahead <= later[rank[i]])
    i, j = i[listed], j[listed]
    k = first[rank[i]] + ahead[listed] - 1
    # linear_sum_assignment(maximize=True) solves a negated copy; negate the scores once instead.
    cost = np.zeros(ends[-1])
    cost[ends[k] + (i - a0[k]) * width[k] + (j - b0[k])] = -score[listed]
    solved = [(np.empty(0, dtype=np.intp),) * 2] + [
        linear_sum_assignment(cost[lo:hi].reshape(h, -1))
        for lo, hi, h in zip(ends[:-1].tolist(), ends[1:].tolist(), height.tolist())
    ]
    rows, cols = (np.concatenate(column) for column in zip(*solved))
    block = np.repeat(np.arange(len(a0)), np.minimum(height, width))
    # 0.0 - cost, not -cost: an unlisted pair's +0.0 stays +0.0.
    assigned = 0.0 - cost[ends[block] + rows * width[block] + cols]
    kept = assigned >= tau
    return (rows + a0[block])[kept], (cols + b0[block])[kept], assigned[kept]


def greedy_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Walk the pairs (a[k], b[k]) in order and take each whose two ends are both still free.

    `a` and `b` are non-negative indices into one vertex space; a bipartite
    caller offsets one side's indices past the other's. Returns the mask of
    the pairs taken.
    """
    taken = np.zeros(len(a), dtype=bool)
    used = [False] * (int(max(a.max(), b.max())) + 1 if len(a) else 0)
    for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        if not (used[x] or used[y]):
            used[x] = used[y] = taken[k] = True
    return taken


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
