"""Association: geometric scoring, optimal assignment, transitive chaining."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streetinv import (
    Cluster,
    MatchMatrix,
    Observation,
    PairMatch,
    assign_pairs,
    build_score_matrix,
    geometric_score,
    transitive_cluster,
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


class TestGeometricScore:
    def test_identical_rays_same_category(self):
        a = obs(0, 0, [0, 0, 0], [10, 0, 0])
        b = obs(1, 1, [0, 0, 0], [10, 0, 0])
        assert geometric_score(a, b) == pytest.approx(1.0)

    def test_different_categories_zero(self):
        a = obs(0, 0, [0, 0, 0], [10, 0, 0], category="sign")
        b = obs(1, 1, [0, 0, 0], [10, 0, 0], category="light")
        assert geometric_score(a, b) == 0.0

    def test_same_frame_zero(self):
        a = obs(0, 5, [0, 0, 0], [10, 0, 0])
        b = obs(1, 5, [0, 0, 0], [10, 0, 0])
        assert geometric_score(a, b) == 0.0

    def test_gap_equal_to_sigma_gives_inverse_e(self):
        # Skew rays with closest distance exactly sigma_g.
        sigma = 0.5
        a = obs(0, 0, [0, 0, 0], [10, 0, 0])
        b = obs(1, 1, [0, 0, sigma], [0, 10, sigma])
        assert geometric_score(a, b, sigma_g=sigma) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for k in range(100):
            a = obs(0, 0, rng.normal(size=3), rng.normal(size=3) * 10)
            b = obs(1, 1, rng.normal(size=3), rng.normal(size=3) * 10)
            assert geometric_score(a, b) == pytest.approx(geometric_score(b, a), abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(1)
        for k in range(100):
            a = obs(0, 0, rng.normal(size=3), rng.normal(size=3) * 10)
            b = obs(1, 1, rng.normal(size=3), rng.normal(size=3) * 10)
            assert 0.0 <= geometric_score(a, b) <= 1.0


class TestMatchMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MatchMatrix(obs_ids=[0, 1], scores=np.array([[0.0, 0.5], [0.4, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            MatchMatrix(obs_ids=[0, 1], scores=np.array([[0.1, 0.5], [0.5, 0.0]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MatchMatrix(obs_ids=[0, 1], scores=np.array([[0.0, 1.5], [1.5, 0.0]]))

    def test_build_score_matrix_valid(self):
        target = np.array([10.0, 5.0, 2.0])
        observations = [
            obs(0, 0, [0, 0, 0], target),
            obs(1, 1, [10, 0, 0], target),
            obs(2, 2, [20, 0, 0], target),
        ]
        m = build_score_matrix(observations)
        assert m.score(0, 1) == pytest.approx(1.0)
        assert m.score(1, 2) == pytest.approx(1.0)
        dense = m.scores.toarray()
        np.testing.assert_array_equal(dense, dense.T)


def two_frame_matrix(block: np.ndarray) -> tuple[MatchMatrix, list[int], list[int]]:
    """MatchMatrix for frame 0 (rows) and frame 1 (columns) of `block`,
    with the obs ids of both frames."""
    n_a, n_b = block.shape
    n = n_a + n_b
    scores = np.zeros((n, n))
    scores[:n_a, n_a:] = block
    scores[n_a:, :n_a] = block.T
    return MatchMatrix(obs_ids=list(range(n)), scores=scores), list(range(n_a)), list(range(n_a, n))


class TestAssignPairs:
    def test_two_by_two_prefers_diagonal(self):
        # Enumerating both assignments: 0.9 + 0.8 beats 0.2 + 0.3.
        m, left, right = two_frame_matrix(np.array([[0.9, 0.2], [0.3, 0.8]]))
        matches = assign_pairs(m, left, right, tau=0.5)
        assert {(p.obs_a, p.obs_b) for p in matches} == {(0, 2), (1, 3)}

    def test_below_threshold_dropped(self):
        m, left, right = two_frame_matrix(np.array([[0.4]]))
        assert assign_pairs(m, left, right, tau=0.5) == []

    def test_threshold_above_one_empty(self):
        m, left, right = two_frame_matrix(np.array([[0.9, 0.2], [0.3, 0.8]]))
        assert assign_pairs(m, left, right, tau=1.01) == []

    def test_never_matches_within_a_frame(self):
        rng = np.random.default_rng(2)
        block = rng.uniform(0, 1, size=(4, 3))
        m, left, right = two_frame_matrix(block)
        for p in assign_pairs(m, left, right, tau=0.0):
            assert (p.obs_a in left) != (p.obs_b in left)

    def test_one_to_one_per_frame_pair(self):
        rng = np.random.default_rng(3)
        block = rng.uniform(0, 1, size=(5, 5))
        m, left, right = two_frame_matrix(block)
        matches = assign_pairs(m, left, right, tau=0.0)
        seen = [p.obs_a for p in matches] + [p.obs_b for p in matches]
        assert len(seen) == len(set(seen))

    def test_total_score_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_a = int(rng.integers(1, 8))
            n_b = int(rng.integers(1, 8))
            block = np.round(rng.uniform(0, 1, size=(n_a, n_b)), 6)
            m, left, right = two_frame_matrix(block)
            matches = assign_pairs(m, left, right, tau=0.0)
            total = sum(p.score for p in matches)
            _, oracle_total = oracle_enumerate_assignment(block)
            assert total == pytest.approx(oracle_total, abs=1e-9)

    def test_unknown_obs_id_rejected(self):
        m, left, right = two_frame_matrix(np.array([[0.9]]))
        with pytest.raises(ValueError, match="missing"):
            assign_pairs(m, left, right + [7], tau=0.5)


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
