"""Cross-view association of observations within a sliding frame window.

Matchability scores, from the built-in geometric scorer or an external
file, are held in a sparse matrix with an entry only for the pairs the
scorer produced: the geometric scorer scores same-category pairs of frames
inside the window and nothing else. Each frame pair in the window reads
its block of scores and solves an optimal one-to-one assignment; matches
below the confidence threshold are discarded, and the surviving pairs are
chained into initial clusters by connected components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_array, csr_array, sparray
from scipy.sparse.csgraph import connected_components

from .geometry import Observation
from .triangulation import ray_ray_distance

__all__ = [
    "MatchMatrix",
    "PairMatch",
    "Cluster",
    "geometric_score",
    "build_score_matrix",
    "assign_pairs",
    "transitive_cluster",
]

DEFAULT_TAU = 0.5
DEFAULT_SIGMA_G = 0.5  # meters; decay scale of the geometric score


@dataclass(eq=False)
class MatchMatrix:
    """Sparse symmetric matchability scores over an ordered set of obs ids.

    Holds only the pairs a scorer produced; every other pair scores 0.
    Dense input is accepted and stored sparse.
    """

    obs_ids: list[int]
    scores: sparray

    def __post_init__(self):
        self.scores = csr_array(self.scores, dtype=float)
        n = len(self.obs_ids)
        if self.scores.shape != (n, n):
            raise ValueError(f"scores must be {n}x{n}, got {self.scores.shape}")
        if np.any(self.scores.data < 0.0) or np.any(self.scores.data > 1.0):
            raise ValueError("scores must lie in [0, 1]")
        if np.any(self.scores.diagonal() != 0.0):
            raise ValueError("diagonal entries must be zero")
        if n and abs(self.scores - self.scores.T).max() > 1e-9:
            raise ValueError("scores must be symmetric")
        self._index = {obs_id: i for i, obs_id in enumerate(self.obs_ids)}
        if len(self._index) != n:
            raise ValueError("obs_ids contains duplicates")

    @classmethod
    def from_pairs(cls, obs_ids: list[int], rows, cols, values) -> "MatchMatrix":
        """Scores of the unordered pairs (obs_ids[rows[k]], obs_ids[cols[k]]),
        each pair listed once."""
        n = len(obs_ids)
        one_way = coo_array((values, (rows, cols)), shape=(n, n))
        return cls(obs_ids=obs_ids, scores=one_way + one_way.T)

    def score(self, obs_a: int, obs_b: int) -> float:
        return float(self.scores[self._index[obs_a], self._index[obs_b]])

    def block(self, rows: list[int], cols: list[int]) -> np.ndarray:
        """Dense scores between two lists of obs ids (rows x cols)."""
        try:
            r = [self._index[obs_id] for obs_id in rows]
            c = [self._index[obs_id] for obs_id in cols]
        except KeyError as exc:
            raise ValueError(f"obs id {exc.args[0]} missing from the score matrix") from None
        return self.scores[np.ix_(r, c)].toarray()


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


def geometric_score(a: Observation, b: Observation, sigma_g: float = DEFAULT_SIGMA_G) -> float:
    """Baseline matchability from ray proximity: exp(-gap / sigma_g).

    Returns 0 for observations of different categories or from the same
    frame. The gap is the minimum 3D distance between the two rays.
    """
    if a.category != b.category or a.frame_id == b.frame_id:
        return 0.0
    gap = ray_ray_distance(a.exposure, a.direction, b.exposure, b.direction)
    return float(min(1.0, max(0.0, np.exp(-gap / sigma_g))))


def build_score_matrix(
    observations: list[Observation],
    sigma_g: float = DEFAULT_SIGMA_G,
    max_frame_gap: int | None = None,
) -> MatchMatrix:
    """Sparse geometric scores between observations of nearby frames.

    Only same-category pairs from different frames are scored. When
    `max_frame_gap` is given, only frames at most that many ranks apart in
    the sorted frame ordering are paired; the assignment stage never
    consults the others.
    """
    by_frame: dict[int, list[int]] = {}
    for i, o in enumerate(observations):
        by_frame.setdefault(o.frame_id, []).append(i)
    frames = sorted(by_frame)
    gap = len(frames) if max_frame_gap is None else max_frame_gap
    rows, cols, values = [], [], []
    for rank, frame in enumerate(frames):
        for other in frames[rank + 1 : rank + 1 + gap]:
            for i, j in itertools.product(by_frame[frame], by_frame[other]):
                # In observation order: the score is symmetric only to rounding.
                a, b = observations[min(i, j)], observations[max(i, j)]
                if a.category == b.category:
                    rows.append(i)
                    cols.append(j)
                    values.append(geometric_score(a, b, sigma_g))
    return MatchMatrix.from_pairs([o.obs_id for o in observations], rows, cols, values)


def assign_pairs(
    m: MatchMatrix,
    left: list[int],
    right: list[int],
    tau: float = DEFAULT_TAU,
) -> list[PairMatch]:
    """Optimal one-to-one matches between the observations of two frames.

    Solves the maximum-weight bipartite assignment between the obs ids in
    `left` and `right` and keeps assignments whose score is at least `tau`.
    """
    if not left or not right:
        return []
    block = m.block(left, right)
    rows, cols = linear_sum_assignment(block, maximize=True)
    matches: list[PairMatch] = []
    for r, c in zip(rows, cols):
        score = float(block[r, c])
        if score >= tau:
            a, b = left[r], right[c]
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
