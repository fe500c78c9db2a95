"""Pipeline: the observation table, localization, inventory records, whole runs."""

import json
import random

import numpy as np
import pytest

from streetinv import (
    Cluster,
    Observation,
    ObservationTable,
    PairMatch,
    RunConfig,
    default_scene_spec,
    estimate_center,
    generate_scene,
    run_pipeline,
)
from scipy.sparse import csr_array

from streetinv import window_pairs
from streetinv.pipeline import _window_blocks, associate, inventory_records, localize_clusters
from streetinv.simulator import GroundTruth


def mkobs(obs_id, frame_id, origin, target, category="bollard"):
    origin = np.asarray(origin, dtype=float)
    d = np.asarray(target, dtype=float) - origin
    return Observation(
        obs_id=obs_id, frame_id=frame_id, category=category, exposure=origin,
        direction=d / np.linalg.norm(d), box_w_norm=0.01, box_h_norm=0.02 + 0.001 * obs_id,
    )


@pytest.fixture(scope="module")
def scene():
    return generate_scene(default_scene_spec(seed=4, n_objects=12, clutter_rate=1.0))


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.split_threshold("anything") == 0.5
        assert cfg.merge_threshold("anything") == 0.5

    def test_per_category_overrides(self):
        cfg = RunConfig(tau_split_per_category={"manhole": 0.2})
        assert cfg.split_threshold("manhole") == 0.2
        assert cfg.split_threshold("sign") == 0.5

    @pytest.mark.parametrize(
        "kwargs", [
            {"tau_split": 0.0},
            {"tau_merge": -1.0},
            {"tau_scale": 1.0},
            {"tau_split_per_category": {"x": -0.5}},
            {"tau": 0.0},
            {"tau": 1.5},
            {"tau": float("nan")},
            {"sigma_g": 0.0},
            {"sigma_g": -1.0},
            {"tau_merge_per_category": {"x": 0.0}},
            {"tau_split": float("nan")},
            {"identification_tol": 0.0},
            {"window": 1},
            {"tau_split": -1.0, "no_refine": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        # The message names the setting, a per-category one as tau_split.CATEGORY.
        with pytest.raises(ValueError, match=next(iter(kwargs)).replace("_per_category", ".")):
            RunConfig(**kwargs)

    def test_tau_may_be_one(self):
        assert RunConfig(tau=1.0).tau == 1.0


class TestObservationTable:
    def test_rows_and_take_agree_with_the_records(self, scene):
        observations, _ = scene
        table = ObservationTable.from_observations(observations)
        by_id = {o.obs_id: o for o in observations}
        ids = list(by_id)[::-3]
        part = table.take(table.rows(ids))
        assert part.obs_id.tolist() == ids
        for k, obs_id in enumerate(ids):
            o = by_id[obs_id]
            assert (part.frame_id[k], part.category[k], part.box_h_norm[k]) == (
                o.frame_id, o.category, o.box_h_norm)
            assert type(part.category[k]) is str
            np.testing.assert_array_equal(part.exposure[k], o.exposure)
            np.testing.assert_array_equal(part.direction[k], o.direction)

    def test_rows_of_ids_out_of_file_order(self):
        table = ObservationTable.from_observations(
            [mkobs(i, 0, [0, 0, 0], [1, i, 0]) for i in (7, 3, 9)])
        assert table.rows([9, 7, 3, 9]).tolist() == [2, 0, 1, 2]

    def test_take_with_a_mask(self):
        table = ObservationTable.from_observations(
            [mkobs(i, i, [0, 0, 0], [1, i, 0]) for i in range(4)])
        assert table.take(table.frame_id % 2 == 1).obs_id.tolist() == [1, 3]

    @pytest.mark.parametrize("ids", [[5], [-1], [0, 4]])
    def test_unknown_id_refused(self, ids):
        table = ObservationTable.from_observations(
            [mkobs(i, 0, [0, 0, 0], [1, i, 0]) for i in range(4)])
        with pytest.raises(KeyError, match="unknown observation"):
            table.rows(ids)

    def test_duplicate_ids_refused(self):
        observations = [mkobs(i, i, [0, 0, 0], [1, i, 0]) for i in (0, 1, 2, 1)]
        with pytest.raises(ValueError, match=r"duplicate observation ids: \[1\]"):
            ObservationTable.from_observations(observations)

    def test_length_is_the_number_of_rows(self, scene):
        observations, _ = scene
        assert len(ObservationTable.from_observations(observations)) == len(observations) > 0

    def test_empty(self):
        table = ObservationTable.from_observations([])
        assert len(table) == 0
        assert table.obs_id.shape == (0,) and table.exposure.shape == (0, 3)
        assert table.rows([]).tolist() == []
        with pytest.raises(KeyError):
            table.rows([0])


def _members(clusters):
    return sorted(sorted(c.members) for c in clusters)


class TestAssociate:
    def test_shuffled_input_gives_the_same_matches_and_clusters(self, scene):
        observations, _ = scene
        shuffled = list(observations)
        random.Random(0).shuffle(shuffled)
        matches, clusters = associate(observations, RunConfig())
        shuffled_matches, shuffled_clusters = associate(shuffled, RunConfig())
        assert matches and any(c.size > 1 for c in clusters)
        assert shuffled_matches == matches
        assert [(c.cluster_id, c.members) for c in shuffled_clusters] == [
            (c.cluster_id, c.members) for c in clusters]

    def test_a_table_gives_what_its_records_give(self, scene):
        observations, _ = scene
        matches, clusters = associate(observations, RunConfig())
        table_matches, table_clusters = associate(ObservationTable.from_observations(observations), RunConfig())
        assert table_matches == matches
        assert [(c.cluster_id, c.members) for c in table_clusters] == [
            (c.cluster_id, c.members) for c in clusters]

    @pytest.mark.parametrize("frames", [[], [3, 3, 3]])
    def test_empty_or_single_frame_matches_nothing(self, frames):
        observations = [mkobs(i, f, [0, 0, 0], [10, i, 0]) for i, f in enumerate(frames)]
        matches, clusters = associate(observations, RunConfig())
        assert matches == [] and _members(clusters) == [[i] for i in range(len(frames))]

    def test_file_scores_outside_the_window_are_ignored(self, tmp_path):
        observations = [mkobs(i, f, [10.0 * i, 0, 0], [5, 5, 0]) for i, f in enumerate([0, 4, 9])]
        path = tmp_path / "scores.jsonl"
        path.write_text('{"obs_a": 2, "obs_b": 0, "score": 0.9}\n'
                        '{"obs_a": 1, "obs_b": 2, "score": 0.8}\n')
        cfg = RunConfig(window=2, scorer=f"file:{path}")
        assert associate(observations, cfg)[0] == [PairMatch(1, 2, 0.8)]
        cfg.window = 3
        assert associate(observations, cfg)[0] == [PairMatch(0, 2, 0.9), PairMatch(1, 2, 0.8)]


    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_window_blocks_are_the_matrix_slices(self, window):
        # Frames of 0-4 rows, and scores anywhere above the diagonal: in
        # the window, beyond it, and within one frame.
        rng = np.random.default_rng(window)
        frames = np.sort(rng.choice(40, size=60))
        n = len(frames)
        scores = csr_array(np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), 1))
        pairs = window_pairs(frames, window)
        blocks = list(_window_blocks(scores, pairs))
        assert len(blocks) == len(pairs) > 0
        for (a, b), block in zip(pairs, blocks):
            assert np.array_equal(block, scores[a, b].toarray())


class TestLocalizeClusters:
    def test_singletons_and_parallel_bundles_stay_unlocalized(self):
        parallel = [mkobs(i, i, [0.0, i, 0.0], [10.0, i, 0.0]) for i in range(3)]
        table = ObservationTable.from_observations(parallel + [mkobs(3, 3, [0, 0, 0], [5, 5, 0])])
        out = localize_clusters([Cluster(4, {3}), Cluster(2, {0, 1, 2})], table)
        assert [(c.cluster_id, c.members, c.center, c.residuals) for c in out] == [
            (2, {0, 1, 2}, None, None), (4, {3}, None, None)]

    def test_centers_are_estimate_center_of_the_member_rows(self, scene):
        observations, truth = scene
        table = ObservationTable.from_observations(observations)
        groups: dict = {}
        for o in observations:
            groups.setdefault(truth.object_of[o.obs_id], set()).add(o.obs_id)
        clusters = [Cluster(k, m) for k, m in enumerate(groups.values())]
        localized = [c for c in localize_clusters(clusters, table) if c.center is not None]
        assert localized
        by_id = {o.obs_id: o for o in observations}
        for c in localized:
            members = sorted(c.members)
            expected = estimate_center(np.array([by_id[m].exposure for m in members]),
                                       np.array([by_id[m].direction for m in members]))
            assert c.center.tobytes() == expected.center.tobytes()
            assert [c.residuals[m] for m in members] == expected.residuals


class TestInventoryRecords:
    def _table(self, categories):
        return ObservationTable.from_observations(
            [mkobs(i, i, [10.0 * i, 0, 0], [5, 5, 0], c) for i, c in enumerate(categories)])

    def test_majority_category_with_alphabetical_ties(self):
        table = self._table(["sign", "bollard", "sign", "light", "bollard", "light", "sign"])
        records = inventory_records(
            [Cluster(0, {0, 1, 2}), Cluster(1, {3, 4}), Cluster(2, {5, 6})], table)
        assert [r["category"] for r in records] == ["sign", "bollard", "light"]

    def test_numbered_by_smallest_member(self):
        table = self._table(["sign"] * 6)
        records = inventory_records(
            [Cluster(0, {5, 3}), Cluster(1, {4}), Cluster(2, {2, 0}), Cluster(3, {1})], table)
        assert [(r["object_id"], r["members"]) for r in records] == [
            (0, [0, 2]), (1, [1]), (2, [3, 5]), (3, [4])]

    def test_unlocalized_record_has_null_center_and_residual(self):
        table = self._table(["sign"] * 3)
        located = localize_clusters([Cluster(0, {0, 1}), Cluster(1, {2})], table)
        records = inventory_records(located, table)
        assert records[0]["center"] is not None and records[0]["max_residual"] is not None
        assert records[0]["n_observations"] == 2
        assert (records[1]["center"], records[1]["max_residual"]) == (None, None)


class TestRunPipeline:
    def test_empty_input_with_truth(self):
        truth = GroundTruth(objects=[], obs_ids=[], object_of={})
        result = run_pipeline(RunConfig(), [], truth)
        assert (result.matches, result.clusters, result.inventory) == ([], [], [])
        assert result.report is not None and result.report.per_category == {}

    def test_duplicate_observation_ids_refused(self, scene):
        observations, _ = scene
        with pytest.raises(ValueError, match="duplicate observation ids"):
            run_pipeline(RunConfig(), observations + observations[:1])

    @pytest.mark.parametrize("no_refine", [False, True])
    def test_two_runs_give_identical_inventory_json(self, no_refine):
        def inventory_json():
            observations, truth = generate_scene(
                default_scene_spec(seed=8, n_objects=15, clutter_rate=1.0, drop_prob=0.1))
            result = run_pipeline(RunConfig(no_refine=no_refine), observations, truth)
            return json.dumps(result.inventory, sort_keys=True, allow_nan=False)

        first = inventory_json()
        assert json.loads(first) and first == inventory_json()
