"""Association: the frame window, geometric scoring, optimal assignment, transitive chaining."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streetinv import (
    Cluster,
    Observation,
    ObservationTable,
    PairMatch,
    assign_pairs,
    build_score_matrix,
    transitive_cluster,
    window_pairs,
)

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


def pair_score(a, b, sigma_g=0.5) -> float:
    """The geometric score of observations a and b, read from build_score_matrix."""
    table = frame_sorted([a, b])
    first, second = sorted(table.rows([a.obs_id, b.obs_id]))
    return float(build_score_matrix(table, sigma_g, window=2)[first, second])


class TestWindowPairs:
    def test_ranks_count_only_frames_present(self):
        assert window_pairs(np.array([0, 5, 6]), 2) == [
            (slice(0, 1), slice(1, 2)), (slice(1, 2), slice(2, 3))]

    def test_each_frame_is_one_run_of_rows(self):
        frames = np.array([0, 0, 5, 6, 6])
        assert window_pairs(frames, 3) == [
            (slice(0, 2), slice(2, 3)), (slice(0, 2), slice(3, 5)), (slice(2, 3), slice(3, 5))]

    @pytest.mark.parametrize("frames", [[], [4], [4, 4, 4]])
    def test_empty_or_single_frame_has_no_pairs(self, frames):
        assert window_pairs(np.array(frames, dtype=np.int64), 3) == []

    def test_unsorted_frames_refused(self):
        with pytest.raises(ValueError, match="sorted by frame"):
            window_pairs(np.array([0, 2, 1]), 2)


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
        m = build_score_matrix(table, 0.5, window=2)
        assert m[0, 1] == pytest.approx(1.0)
        assert m[1, 2] == pytest.approx(1.0)
        assert m.nnz == 2  # frames 0 and 2 are two ranks apart
        assert build_score_matrix(table, 0.5, window=3)[0, 2] == pytest.approx(1.0)

    def test_upper_triangular_over_window_pairs_in_batches(self):
        rng = np.random.default_rng(5)
        observations = [
            obs(k, int(f), rng.normal(size=3), rng.normal(size=3) * 10, category=c)
            for k, (f, c) in enumerate(zip(rng.integers(0, 400, 900), rng.choice(["a", "b"], 900)))
        ]
        table = frame_sorted(observations)
        coo = build_score_matrix(table, 0.5, window=3).tocoo()
        scored = set(zip(coo.row.tolist(), coo.col.tolist()))
        expected = {
            (i, j)
            for a, b in window_pairs(table.frame_id, 3)
            for i in range(a.start, a.stop)
            for j in range(b.start, b.stop)
            if table.category[i] == table.category[j]
        }
        assert len(window_pairs(table.frame_id, 3)) > 128  # more than one batch
        assert scored == expected and all(i < j for i, j in scored)


def two_frames(block: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """`block` with the obs ids of frame 0 (rows) and frame 1 (columns)."""
    n_a, n_b = block.shape
    return block, list(range(n_a)), list(range(n_a, n_a + n_b))


class TestAssignPairs:
    def test_two_by_two_prefers_diagonal(self):
        # Enumerating both assignments: 0.9 + 0.8 beats 0.2 + 0.3.
        block, left, right = two_frames(np.array([[0.9, 0.2], [0.3, 0.8]]))
        matches = assign_pairs(block, left, right, tau=0.5)
        assert {(p.obs_a, p.obs_b) for p in matches} == {(0, 2), (1, 3)}

    def test_below_threshold_dropped(self):
        block, left, right = two_frames(np.array([[0.4]]))
        assert assign_pairs(block, left, right, tau=0.5) == []

    def test_threshold_above_one_empty(self):
        block, left, right = two_frames(np.array([[0.9, 0.2], [0.3, 0.8]]))
        assert assign_pairs(block, left, right, tau=1.01) == []

    def test_never_matches_within_a_frame(self):
        rng = np.random.default_rng(2)
        block, left, right = two_frames(rng.uniform(0, 1, size=(4, 3)))
        for p in assign_pairs(block, left, right, tau=0.0):
            assert (p.obs_a in left) != (p.obs_b in left)

    def test_one_to_one_per_frame_pair(self):
        rng = np.random.default_rng(3)
        block, left, right = two_frames(rng.uniform(0, 1, size=(5, 5)))
        matches = assign_pairs(block, left, right, tau=0.0)
        seen = [p.obs_a for p in matches] + [p.obs_b for p in matches]
        assert len(seen) == len(set(seen))

    def test_total_score_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_a = int(rng.integers(1, 8))
            n_b = int(rng.integers(1, 8))
            block, left, right = two_frames(np.round(rng.uniform(0, 1, size=(n_a, n_b)), 6))
            matches = assign_pairs(block, left, right, tau=0.0)
            total = sum(p.score for p in matches)
            _, oracle_total = oracle_enumerate_assignment(block)
            assert total == pytest.approx(oracle_total, abs=1e-9)


class TestTransitiveCluster:
    def test_chain_links_transitively(self):
        pairs = [PairMatch(1, 2, 0.9), PairMatch(2, 3, 0.9)]
        clusters = transitive_cluster(pairs, [1, 2, 3, 4])
        assert sorted(sorted(c.members) for c in clusters) == [[1, 2, 3], [4]]

    def test_no_pairs_all_singletons(self):
        clusters = transitive_cluster([], [1, 2])
        assert sorted(sorted(c.members) for c in clusters) == [[1], [2]]

    def test_two_disjoint_chains(self):
        pairs = [PairMatch(0, 1, 0.9), PairMatch(1, 2, 0.9),
                 PairMatch(3, 4, 0.9), PairMatch(4, 5, 0.9)]
        clusters = transitive_cluster(pairs, list(range(6)))
        assert sorted(sorted(c.members) for c in clusters) == [[0, 1, 2], [3, 4, 5]]

    def test_unknown_observation_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            transitive_cluster([PairMatch(1, 99, 0.9)], [1, 2])

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 40),
        edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
    )
    def test_output_is_partition(self, n, edges):
        all_obs = list(range(n))
        pairs = [PairMatch(min(a, b), max(a, b), 0.9) for a, b in edges if a != b and a < n and b < n]
        clusters = transitive_cluster(pairs, all_obs)
        union = sorted(m for c in clusters for m in c.members)
        assert union == all_obs  # disjoint cover
        smallest = [min(c.members) for c in clusters]
        assert smallest == sorted(smallest)  # ids follow each smallest member
        assert [c.cluster_id for c in clusters] == list(range(len(clusters)))

    def test_cluster_ids_deterministic(self):
        pairs = [PairMatch(5, 9, 0.9)]
        a = transitive_cluster(pairs, [9, 5, 1])
        b = transitive_cluster(pairs, [1, 5, 9])
        assert [(c.cluster_id, sorted(c.members)) for c in a] == [
            (c.cluster_id, sorted(c.members)) for c in b
        ]


class TestClusterValidation:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Cluster(cluster_id=0, members=set())

    def test_center_requires_matching_residuals(self):
        with pytest.raises(ValueError, match="residuals"):
            Cluster(cluster_id=0, members={1, 2}, center=np.zeros(3), residuals={1: 0.0})
