"""Association: the frame window, geometric scoring, optimal assignment, transitive chaining."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from streetinv import (
    Cluster,
    ClusterTable,
    Observation,
    ObservationTable,
    assign_pairs,
    association,
    build_score_matrix,
    ray_gaps,
    transitive_cluster,
    window_pairs,
)
from streetinv.association import GAP_CHUNK, greedy_pairs

from conftest import oracle_enumerate_assignment


def obs(obs_id, frame_id, origin, toward, category="sign"):
    origin = np.asarray(origin, dtype=float)
    d = np.asarray(toward, dtype=float) - origin
    d = d / np.linalg.norm(d)
    return Observation(
        obs_id=obs_id, frame_id=frame_id, category=category,
        exposure=origin, direction=d, box_w_norm=0.01, box_h_norm=0.02,
    )


def frame_sorted(observations) -> ObservationTable:
    table = ObservationTable.from_observations(observations)
    return table.take(np.lexsort((table.obs_id, table.frame_id)))


def frame_pairs(pairs) -> list[tuple[int, int, int, int]]:
    """The columns (a0, a1, b0, b1) of `window_pairs` as one tuple per frame pair."""
    assert all(column.dtype == np.intp for column in pairs)
    return list(zip(*(column.tolist() for column in pairs)))


def score_table(table, sigma_g, window) -> np.ndarray:
    """`build_score_matrix` of the frame window as an n x n table: each
    listed pair's score at (row_a, row_b), 0 elsewhere."""
    row_a, row_b, scores = build_score_matrix(table, sigma_g, window_pairs(table.frame_id, window))
    dense = np.zeros((len(table), len(table)))
    dense[row_a, row_b] = scores
    assert len(set(zip(row_a.tolist(), row_b.tolist()))) == len(scores)  # each pair listed once
    return dense


def pair_score(a, b, sigma_g=0.5) -> float:
    """The geometric score of observations a and b, read from build_score_matrix."""
    table = frame_sorted([a, b])
    first, second = sorted(table.rows([a.obs_id, b.obs_id]))
    return float(score_table(table, sigma_g, 2)[first, second])


class TestWindowPairs:
    def test_ranks_count_only_frames_present(self):
        assert frame_pairs(window_pairs(np.array([0, 5, 6]), 2)) == [(0, 1, 1, 2), (1, 2, 2, 3)]

    def test_each_frame_is_one_run_of_rows(self):
        frames = np.array([0, 0, 5, 6, 6])
        assert frame_pairs(window_pairs(frames, 3)) == [(0, 2, 2, 3), (0, 2, 3, 5), (2, 3, 3, 5)]

    @pytest.mark.parametrize("frames", [[], [4], [4, 4, 4]])
    def test_empty_or_single_frame_has_no_pairs(self, frames):
        assert frame_pairs(window_pairs(np.array(frames, dtype=np.int64), 3)) == []

    @pytest.mark.parametrize("window", [2, 3, 4, 10, 2**80])
    def test_every_frame_pairs_with_the_next_window_minus_one(self, window):
        frames = np.array([1, 1, 2, 4, 4, 4, 7, 9, 9])
        runs = [(0, 2), (2, 3), (3, 6), (6, 7), (7, 9)]
        assert frame_pairs(window_pairs(frames, window)) == [
            (*runs[r], *runs[q]) for r in range(len(runs)) for q in range(r + 1, min(r + window, len(runs)))]

    def test_unsorted_frames_refused(self):
        with pytest.raises(ValueError, match="sorted by frame"):
            window_pairs(np.array([0, 2, 1]), 2)

    def test_frames_more_than_2_63_apart_are_sorted(self):
        # 5 - (-2**63) wraps to a negative int64.
        frames = np.array([-2**63, -2**63, 5, 7], dtype=np.int64)
        assert frame_pairs(window_pairs(frames, 3)) == [(0, 2, 2, 3), (0, 2, 3, 4), (2, 3, 3, 4)]


class TestGeometricScore:
    def test_identical_rays_same_category(self):
        a = obs(0, 0, [0, 0, 0], [10, 0, 0])
        b = obs(1, 1, [0, 0, 0], [10, 0, 0])
        assert pair_score(a, b) == pytest.approx(1.0)

    def test_different_categories_zero(self):
        a = obs(0, 0, [0, 0, 0], [10, 0, 0], category="sign")
        b = obs(1, 1, [0, 0, 0], [10, 0, 0], category="light")
        assert pair_score(a, b) == 0.0

    def test_same_frame_zero(self):
        a = obs(0, 5, [0, 0, 0], [10, 0, 0])
        b = obs(1, 5, [0, 0, 0], [10, 0, 0])
        assert pair_score(a, b) == 0.0

    def test_gap_equal_to_sigma_gives_inverse_e(self):
        # Skew rays with closest distance exactly sigma_g.
        sigma = 0.5
        a = obs(0, 0, [0, 0, 0], [10, 0, 0])
        b = obs(1, 1, [0, 0, sigma], [0, 10, sigma])
        assert pair_score(a, b, sigma_g=sigma) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_symmetric(self):
        # Swapping the frames swaps which ray the scorer takes first.
        rng = np.random.default_rng(0)
        for k in range(100):
            pa, ta, pb, tb = rng.normal(size=(4, 3)) * [[1], [10], [1], [10]]
            forward = pair_score(obs(0, 0, pa, ta), obs(1, 1, pb, tb))
            backward = pair_score(obs(0, 1, pa, ta), obs(1, 0, pb, tb))
            assert forward == pytest.approx(backward, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(1)
        for k in range(100):
            a = obs(0, 0, rng.normal(size=3), rng.normal(size=3) * 10)
            b = obs(1, 1, rng.normal(size=3), rng.normal(size=3) * 10)
            assert 0.0 <= pair_score(a, b) <= 1.0

    def test_build_score_matrix_valid(self):
        target = np.array([10.0, 5.0, 2.0])
        table = frame_sorted([
            obs(0, 0, [0, 0, 0], target),
            obs(1, 1, [10, 0, 0], target),
            obs(2, 2, [20, 0, 0], target),
        ])
        m = score_table(table, 0.5, 2)
        assert m[0, 1] == pytest.approx(1.0)
        assert m[1, 2] == pytest.approx(1.0)
        assert np.count_nonzero(m) == 2  # frames 0 and 2 are two ranks apart
        assert score_table(table, 0.5, 3)[0, 2] == pytest.approx(1.0)

    def test_upper_triangular_over_window_pairs_in_batches(self):
        # More same-category pairs than one `ray_gaps` chunk.
        rng = np.random.default_rng(5)
        observations = [
            obs(k, int(f), rng.normal(size=3), rng.normal(size=3) * 10, category=c)
            for k, (f, c) in enumerate(zip(rng.integers(0, 300, 2400), rng.choice(["a", "b"], 2400)))
        ]
        table = frame_sorted(observations)
        row_a, row_b, scores = build_score_matrix(table, 0.5, window_pairs(table.frame_id, 3))
        scored = set(zip(row_a.tolist(), row_b.tolist()))
        expected = {
            (i, j)
            for a0, a1, b0, b1 in frame_pairs(window_pairs(table.frame_id, 3))
            for i in range(a0, a1)
            for j in range(b0, b1)
            if table.category[i] == table.category[j]
        }
        assert len(expected) > 2 * GAP_CHUNK  # more than two chunks
        assert scored == expected and len(scores) == len(expected) and all(i < j for i, j in scored)
        # Each score is its pair's own, bit for bit.
        gap = np.concatenate([ray_gaps(table.exposure[[r]], table.direction[[r]], table.exposure[[c]],
                                       table.direction[[c]]) for r, c in zip(row_a, row_b)])
        assert scores.tobytes() == np.exp(-gap / 0.5).tobytes()


_CATEGORIES = ("light", "pole", "sign")
_DIRECTIONS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


@st.composite
def ray_tables(draw):
    """Frame-sorted tables of up to 40 rays on up to 12 frames, each frame
    drawing its categories from a subset of three, some rays parallel."""
    rows = []
    for frame in range(draw(st.integers(0, 12))):
        present = draw(st.lists(st.sampled_from(_CATEGORIES), min_size=1, max_size=3, unique=True))
        for category in draw(st.lists(st.sampled_from(present), min_size=1, max_size=4)):
            rows.append((frame, category))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observations = []
    for k, (frame, category) in enumerate(rows[:40]):
        origin = rng.normal(size=3) * 5
        # One ray in four runs along an axis, so some pairs are parallel.
        toward = origin + (_DIRECTIONS[k % 3] if rng.random() < 0.25 else rng.normal(size=3))
        observations.append(obs(k, frame, origin, toward, category=category))
    return frame_sorted(observations)


def all_pairs_scores(table, sigma_g, pairs):
    """The same-category row pairs i < j of the window and their scores,
    exp(-gap / sigma_g), cut from one pass over every row pair i < j, in
    (i, j) order."""
    n = len(table)
    i, j = np.triu_indices(n, 1)
    in_window = np.zeros((n, n), dtype=bool)
    for a0, a1, b0, b1 in frame_pairs(pairs):
        in_window[a0:a1, b0:b1] = True
    i, j = (rows[in_window[i, j] & (table.category[i] == table.category[j])] for rows in (i, j))
    gap = ray_gaps(table.exposure[i], table.direction[i], table.exposure[j], table.direction[j])
    return i, j, np.exp(-gap / sigma_g)


class TestScoresOfSameCategoryPairs:
    @settings(max_examples=150, deadline=None)
    @given(table=ray_tables(), window=st.integers(2, 5), chunk=st.integers(1, 16),
           sigma_g=st.sampled_from([0.05, 0.5, 3.0]))
    def test_equal_to_the_all_pairs_reference(self, table, window, chunk, sigma_g):
        # Chunks of a few pairs, so most windows take several.
        pairs = window_pairs(table.frame_id, window)
        with mock.patch.object(association, "GAP_CHUNK", chunk):
            scored = build_score_matrix(table, sigma_g, pairs)
        order = np.lexsort(scored[1::-1])
        assert [column[order].tobytes() for column in scored] == [
            column.tobytes() for column in all_pairs_scores(table, sigma_g, pairs)]

    @pytest.mark.parametrize("window", [2, 3, 4, 5])
    def test_ray_gaps_sees_only_same_category_window_pairs(self, window):
        # A counting gate: `ray_gaps` is handed as many row pairs as the
        # window has same-category row pairs, at most a chunk at a time.
        rng = np.random.default_rng(window)
        observations = [
            obs(k, int(f), rng.normal(size=3), rng.normal(size=3) * 10, category=c)
            for k, (f, c) in enumerate(zip(rng.integers(0, 500, 3000), rng.choice(list(_CATEGORIES), 3000)))
        ]
        table = frame_sorted(observations)
        pairs = window_pairs(table.frame_id, window)
        same = sum(int((table.category[a0:a1, None] == table.category[None, b0:b1]).sum())
                   for a0, a1, b0, b1 in frame_pairs(pairs))
        seen = []

        def counted(*ends):
            seen.append(len(ends[0]))
            return ray_gaps(*ends)

        with mock.patch.object(association, "ray_gaps", counted):
            build_score_matrix(table, 0.5, pairs)
        assert sum(seen) == same > GAP_CHUNK
        assert max(seen) <= GAP_CHUNK


def matched(block: np.ndarray, tau: float) -> list[tuple[int, int, float]]:
    """`assign_pairs` of a window of one frame pair, `block`, every entry
    listed, as block-local (row, col, score) triples."""
    h, w = block.shape
    pairs = tuple(np.array([bound], dtype=np.intp) for bound in (0, h, h, h + w))
    r, c = np.indices(block.shape).reshape(2, -1)
    rows, cols, scores = assign_pairs((r, c + h, block.ravel()), pairs, tau)
    assert scores.tobytes() == block[rows, cols - h].tobytes()
    return [(r, c - h, s) for r, c, s in zip(rows.tolist(), cols.tolist(), scores.tolist())]


@st.composite
def listed_windows(draw):
    """Frame windows of 1-4 rows a frame and scored row pairs anywhere:
    within a frame, in the window and beyond it, each pair listed once, in
    either row order, many scores tied or 0."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=8))
    frames = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    pairs = window_pairs(frames, draw(st.integers(2, 5)))
    n = len(frames)
    values = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0]) | st.floats(0.0, 1.0)
    rows = st.integers(0, max(n - 1, 0))
    listed = np.array(draw(st.lists(st.tuples(rows, rows, values).filter(lambda t: t[0] != t[1]),
                                    max_size=80 if n > 1 else 0, unique_by=lambda t: frozenset(t[:2]))))
    listed = listed.reshape(-1, 3)
    return pairs, (listed[:, 0].astype(np.intp), listed[:, 1].astype(np.intp), listed[:, 2])


class TestAssignPairs:
    def test_two_by_two_prefers_diagonal(self):
        # Enumerating both assignments: 0.9 + 0.8 beats 0.2 + 0.3.
        assert matched(np.array([[0.9, 0.2], [0.3, 0.8]]), tau=0.5) == [(0, 0, 0.9), (1, 1, 0.8)]

    def test_below_threshold_dropped(self):
        assert matched(np.array([[0.4]]), tau=0.5) == []

    def test_threshold_above_one_empty(self):
        assert matched(np.array([[0.9, 0.2], [0.3, 0.8]]), tau=1.01) == []

    def test_never_matches_within_a_frame(self):
        # Rows are the earlier frame's rays and columns the later one's.
        rng = np.random.default_rng(2)
        rows, cols, _ = zip(*matched(rng.uniform(0, 1, size=(4, 3)), tau=0.0))
        assert len(rows) == 3 and set(rows) <= set(range(4)) and sorted(cols) == [0, 1, 2]

    def test_one_to_one_per_frame_pair(self):
        rng = np.random.default_rng(3)
        rows, cols, _ = zip(*matched(rng.uniform(0, 1, size=(5, 5)), tau=0.0))
        assert sorted(rows) == sorted(cols) == list(range(5))

    def test_total_score_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_a = int(rng.integers(1, 8))
            n_b = int(rng.integers(1, 8))
            block = np.round(rng.uniform(0, 1, size=(n_a, n_b)), 6)
            total = sum(score for _, _, score in matched(block, tau=0.0))
            _, oracle_total = oracle_enumerate_assignment(block)
            assert total == pytest.approx(oracle_total, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(window=listed_windows(), tau=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_the_window_is_solved_block_by_block(self, window, tau):
        # Bit for bit the matches of linear_sum_assignment(maximize=True)
        # on each block, built dense by hand from the listed pairs, its
        # kept ones in window order.
        pairs, scored = window
        lo, hi = np.minimum(scored[0], scored[1]), np.maximum(scored[0], scored[1])
        expected = [np.empty(0, dtype=np.intp)] * 2 + [np.empty(0)]
        for a0, a1, b0, b1 in frame_pairs(pairs):
            block = np.zeros((a1 - a0, b1 - b0))
            inside = (a0 <= lo) & (lo < a1) & (b0 <= hi) & (hi < b1)
            block[lo[inside] - a0, hi[inside] - b0] = scored[2][inside]
            r, c = linear_sum_assignment(block, maximize=True)
            kept = block[r, c] >= tau
            expected = [np.append(x, y) for x, y in zip(expected, (r[kept] + a0, c[kept] + b0, block[r, c][kept]))]
        got = assign_pairs(scored, pairs, tau)
        assert got[0].dtype == got[1].dtype == np.intp
        assert [column.tobytes() for column in got] == [column.tobytes() for column in expected]

    def test_an_empty_window_matches_nothing(self):
        # One frame: its two rows' listed score is within the frame.
        pairs = window_pairs(np.array([3, 3], dtype=np.int64), 3)
        for scored in ([np.empty(0, dtype=np.intp)] * 2 + [np.empty(0)], ([0], [1], [0.9])):
            scored = tuple(np.array(column) for column in scored)
            assert [column.tolist() for column in assign_pairs(scored, pairs, 0.5)] == [[], [], []]


def chained(edges, obs_id) -> list[tuple[int, list[int]]]:
    """`transitive_cluster` over (row, row) edges of a table with ids `obs_id`."""
    edges = np.array(edges, dtype=np.intp).reshape(-1, 2)
    clusters = transitive_cluster(edges[:, 0], edges[:, 1], np.array(obs_id, dtype=np.int64))
    return [(c.cluster_id, sorted(c.members)) for c in clusters]


class TestTransitiveCluster:
    def test_chain_links_transitively(self):
        assert chained([(0, 1), (1, 2)], [1, 2, 3, 4]) == [(0, [1, 2, 3]), (1, [4])]

    def test_no_pairs_all_singletons(self):
        assert chained([], [1, 2]) == [(0, [1]), (1, [2])]

    def test_two_disjoint_chains(self):
        assert chained([(0, 1), (1, 2), (3, 4), (4, 5)], list(range(6))) == [(0, [0, 1, 2]), (1, [3, 4, 5])]

    def test_empty_table(self):
        assert chained([], []) == []

    def test_unknown_observation_rejected(self):
        for edge in [(1, 2), (-1, 0), (2, 0)]:
            with pytest.raises(ValueError, match="unknown row"):
                chained([edge], [1, 2])

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 40),
        edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_output_is_partition(self, n, edges, seed):
        # Rows hold the ids in a shuffled order, as a frame-sorted table does.
        obs_id = np.random.default_rng(seed).permutation(n) * 3
        edges = [(a, b) for a, b in edges if a != b and a < n and b < n]
        clusters = chained(edges, obs_id)
        union = sorted(m for _, members in clusters for m in members)
        assert union == sorted(obs_id.tolist())  # disjoint cover
        smallest = [members[0] for _, members in clusters]
        assert smallest == sorted(smallest)  # ids follow each smallest member
        assert [k for k, _ in clusters] == list(range(len(clusters)))

    def test_cluster_ids_deterministic(self):
        # The rows holding ids 5 and 9 are matched, in two row orders.
        assert chained([(0, 1)], [9, 5, 1]) == chained([(1, 2)], [1, 5, 9]) == [(0, [1]), (1, [5, 9])]


class TestClusterValidation:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Cluster(cluster_id=0, members=set())

    def test_center_requires_matching_residuals(self):
        with pytest.raises(ValueError, match="residuals"):
            Cluster(cluster_id=0, members={1, 2}, center=np.zeros(3), residuals={1: 0.0})


_ID64 = st.integers(-(2**63), 2**63 - 1)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def cluster_records(draw):
    """`Cluster` records in any order: singletons and multi-member clusters,
    localized or not (a bundle of parallel rays is not), ids anywhere in 64 bits."""
    members = draw(st.lists(_ID64, unique=True, max_size=30))
    labels = draw(st.lists(st.integers(0, 7), min_size=len(members), max_size=len(members)))
    groups = [{m for m, g in zip(members, labels) if g == label} for label in sorted(set(labels))]
    ids = draw(st.lists(_ID64, unique=True, min_size=len(groups), max_size=len(groups)))
    records = []
    for cluster_id, group in zip(ids, groups):
        if draw(st.booleans()):
            center = draw(st.lists(_FINITE, min_size=3, max_size=3))
            residuals = {m: draw(st.floats(0.0, 1e6)) for m in sorted(group)}
            records.append(Cluster(cluster_id, group, center, residuals))
        else:
            records.append(Cluster(cluster_id, group))
    return draw(st.permutations(records))


def _summary(c: Cluster):
    center = None if c.center is None else c.center.tobytes()
    residuals = None if c.residuals is None else sorted(c.residuals.items())
    return c.cluster_id, sorted(c.members), center, residuals


class TestClusterTable:
    @settings(max_examples=200, deadline=None)
    @given(records=cluster_records())
    def test_records_round_trip(self, records):
        table = ClusterTable.from_records(records)
        assert [_summary(c) for c in table] == [_summary(c) for c in sorted(records, key=lambda c: c.cluster_id)]
        # Clusters in id order, each one's members in id order, and back again bit for bit.
        assert (table.cluster_id[1:] > table.cluster_id[:-1]).all()
        for g in range(len(table)):
            members = table.member[table.group == g]
            assert (members[1:] > members[:-1]).all()
        again = ClusterTable.from_records(table.records())
        for column in ("cluster_id", "size", "member", "center", "residual"):
            assert getattr(again, column).tobytes() == getattr(table, column).tobytes()

    def test_member_of_two_clusters_refused(self):
        with pytest.raises(ValueError, match=r"not disjoint; shared observations: \[3\]"):
            ClusterTable.from_records([Cluster(0, {1, 3}), Cluster(1, {3, 4})])

    def test_id_used_twice_refused(self):
        with pytest.raises(ValueError, match="cluster_id 5 is used twice"):
            ClusterTable.from_records([Cluster(5, {1}), Cluster(5, {2})])

    def test_covers_only_the_members_it_names(self):
        table = ClusterTable.from_records([Cluster(2, {10, 30}), Cluster(-1, {20})])
        assert (table.cluster_id.tolist(), table.size.tolist(), table.member.tolist()) == ([-1, 2], [1, 2],
                                                                                         [20, 10, 30])
        assert table.start.tolist() == [0, 1] and table.group.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("largest, n, fresh", [
        (None, 2, [0, 1]),
        (-7, 2, [-6, -5]),
        (2**63 - 3, 2, [2**63 - 2, 2**63 - 1]),
        (2**63 - 1, 0, []),
    ])
    def test_fresh_ids_count_up_from_the_largest(self, largest, n, fresh):
        table = ClusterTable.from_records([] if largest is None else [Cluster(largest, {0})])
        assert table.fresh_ids(n).tolist() == fresh

    @pytest.mark.parametrize("largest, n", [(2**63 - 1, 1), (2**63 - 3, 3)])
    def test_fresh_ids_past_64_bits_refused(self, largest, n):
        table = ClusterTable.from_records([Cluster(largest, {0})])
        with pytest.raises(OverflowError, match=f"{n} fresh cluster ids after cluster_id {largest} do not fit"):
            table.fresh_ids(n)


class TestGreedyPairs:
    def test_walk_order_decides_which_pairs_are_taken(self):
        # Pairs (0, 1) and (1, 2) share vertex 1: whichever comes first is taken.
        assert greedy_pairs(np.array([0, 1]), np.array([1, 2])).tolist() == [True, False]
        assert greedy_pairs(np.array([1, 0]), np.array([2, 1])).tolist() == [True, False]

    def test_shared_end_blocks_a_later_pair(self):
        # (1, 3) comes after (0, 1) and (2, 3) took both its ends; (4, 0) after (0, 1) took 0.
        taken = greedy_pairs(np.array([0, 2, 1, 4, 4]), np.array([1, 3, 3, 0, 5]))
        assert taken.tolist() == [True, True, False, False, True]

    def test_bipartite_through_an_index_offset(self):
        # Left 0 with right 1 and left 1 with right 0: disjoint once the right
        # side is numbered after the two left vertices, blocked without that.
        left, right = np.array([0, 1]), np.array([1, 0])
        assert greedy_pairs(left, right + 2).tolist() == [True, True]
        assert greedy_pairs(left, right).tolist() == [True, False]

    def test_empty_input(self):
        taken = greedy_pairs(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        assert taken.dtype == bool and taken.shape == (0,)
