"""Pipeline: the observation table, localization, inventory records, whole runs."""

import dataclasses
import functools
import json
import random
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from streetinv import (
    Cluster,
    ClusterTable,
    Observation,
    ObservationTable,
    RunConfig,
    default_scene_spec,
    estimate_center,
    generate_scene,
    run_pipeline,
)
from streetinv import association, io, pipeline, refinement, window_pairs
from streetinv.pipeline import _file_scores, associate, inventory_records, localize_clusters
from streetinv.simulator import GroundTruth

from conftest import oracle_associate, oracle_inventory_records


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
    def test_category_codes_are_computed_once(self, scene):
        observations, _ = scene
        table = ObservationTable.from_observations(observations)
        names, codes = table.category_codes
        expected_names, expected_codes = np.unique(table.category, return_inverse=True)
        assert names.tolist() == expected_names.tolist() == sorted(set(table.category))
        assert codes.tolist() == expected_codes.tolist()
        assert (names.dtype, codes.dtype) == (expected_names.dtype, expected_codes.dtype)
        assert names[codes].tolist() == table.category.tolist()
        assert table.category_codes is table.category_codes
        empty = ObservationTable.from_observations([]).category_codes
        assert (len(empty[0]), len(empty[1])) == (0, 0)

    @pytest.mark.parametrize("no_refine", [False, True])
    def test_category_codes_are_computed_once_per_run(self, monkeypatch, no_refine):
        # Association sorts its table with `take`, which takes the codes along,
        # so refinement, on the table as given, finds them computed.
        computed = []
        codes = ObservationTable.__dict__["category_codes"]

        def counted(table):
            computed.append(len(table))
            return codes.func(table)

        counting = functools.cached_property(counted)
        counting.__set_name__(ObservationTable, "category_codes")
        monkeypatch.setattr(ObservationTable, "category_codes", counting)
        observations, _ = generate_scene(default_scene_spec(seed=3, clutter_rate=1.0))
        run_pipeline(RunConfig(no_refine=no_refine), observations)
        assert computed == [len(observations)]

    def test_take_carries_category_codes(self, scene):
        observations, _ = scene
        table = ObservationTable.from_observations(observations)
        rows = np.flatnonzero(table.frame_id % 3 == 0)[::-1]
        part = table.take(rows)
        names, codes = part.category_codes
        assert names is table.category_codes[0]
        assert names[codes].tolist() == part.category.tolist()

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


def _columns(matches):
    """The matches as a list of (obs_a, obs_b, score)."""
    return list(zip(matches.obs_a.tolist(), matches.obs_b.tolist(), matches.score.tolist()))


class TestAssociate:
    def test_shuffled_input_gives_the_same_matches_and_clusters(self, scene):
        observations, _ = scene
        shuffled = list(observations)
        random.Random(0).shuffle(shuffled)
        matches, clusters = associate(observations, RunConfig())
        shuffled_matches, shuffled_clusters = associate(shuffled, RunConfig())
        assert matches and any(c.size > 1 for c in clusters)
        assert _columns(shuffled_matches) == _columns(matches)
        assert [(c.cluster_id, c.members) for c in shuffled_clusters] == [
            (c.cluster_id, c.members) for c in clusters]

    def test_a_table_gives_what_its_records_give(self, scene):
        observations, _ = scene
        matches, clusters = associate(observations, RunConfig())
        table_matches, table_clusters = associate(ObservationTable.from_observations(observations), RunConfig())
        assert _columns(table_matches) == _columns(matches)
        assert [(c.cluster_id, c.members) for c in table_clusters] == [
            (c.cluster_id, c.members) for c in clusters]

    @pytest.mark.parametrize("frames", [[], [3, 3, 3], [3]])
    def test_empty_or_single_frame_matches_nothing(self, frames, tmp_path):
        # Also from a file scoring every two observations, all of one frame, 0.9.
        observations = [mkobs(i, f, [0, 0, 0], [10, i, 0]) for i, f in enumerate(frames)]
        path = tmp_path / "scores.jsonl"
        _write_scores(path, [(i, j, 0.9) for i in range(len(frames)) for j in range(i)])
        for cfg in (RunConfig(), RunConfig(scorer=f"file:{path}")):
            matches, clusters = _assert_associate_matches_oracle(observations, cfg)
            assert _columns(matches) == [] and _members(clusters) == [[i] for i in range(len(frames))]

    def test_file_scores_outside_the_window_are_ignored(self, tmp_path):
        observations = [mkobs(i, f, [10.0 * i, 0, 0], [5, 5, 0]) for i, f in enumerate([0, 4, 9])]
        path = tmp_path / "scores.jsonl"
        path.write_text('{"obs_a": 2, "obs_b": 0, "score": 0.9}\n'
                        '{"obs_a": 1, "obs_b": 2, "score": 0.8}\n')
        cfg = RunConfig(window=2, scorer=f"file:{path}")
        assert _columns(associate(observations, cfg)[0]) == [(1, 2, 0.8)]
        cfg.window = 3
        assert _columns(associate(observations, cfg)[0]) == [(0, 2, 0.9), (1, 2, 0.8)]


    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_window_blocks_are_the_matrix_slices(self, tmp_path, window):
        # The blocks assignment solves from the file scorer's row pairs are
        # the dense slices of a random score table. Frames hold 0-4 rows,
        # and the table has entries anywhere above the diagonal: in the
        # window, beyond it, and within one frame. The file names each pair
        # in a random order.
        rng = np.random.default_rng(window)
        frames = np.sort(rng.choice(40, size=60))
        n = len(frames)
        table = ObservationTable.from_observations(
            [mkobs(i, int(f), [0, 0, 0], [10, i, 0]) for i, f in enumerate(frames)])
        dense = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), 1)
        i, j = np.nonzero(dense)
        swap = rng.random(len(i)) < 0.5
        path = tmp_path / "scores.jsonl"
        _write_scores(path, zip(np.where(swap, j, i).tolist(), np.where(swap, i, j).tolist(), dense[i, j].tolist()))
        scored = _file_scores(str(path), table)
        assert [rows.tolist() for rows in scored[:2]] == [np.where(swap, j, i).tolist(), np.where(swap, i, j).tolist()]
        rank = np.unique(frames, return_inverse=True)[1]
        assert (rank[i] == rank[j]).any() and (rank[j] - rank[i] >= window).any()
        # Each block solved as cut by hand from the table, one after another.
        pairs = window_pairs(frames, window)
        expected = [[], [], []]
        for a0, a1, b0, b1 in zip(*(column.tolist() for column in pairs)):
            block = dense[a0:a1, b0:b1]
            r, c = linear_sum_assignment(block, maximize=True)
            for column, values in zip(expected, (r + a0, c + b0, block[r, c])):
                column.extend(values.tolist())
        assert [column.tolist() for column in association.assign_pairs(scored, pairs, 0.0)] == expected
        assert len(expected[0]) > 0

    def test_peak_memory_is_bounded_per_window_row_pair(self):
        # The peak is the negated score per window row pair that assignment
        # solves, and the same-category pairs' rows, scores and block slots,
        # whose gaps are taken a chunk at a time: near 36 bytes a row pair
        # here. Scoring every window row pair in one pass peaked near 97.
        spec = default_scene_spec(seed=8, n_objects=750, street_length=5000.0, clutter_rate=1.0, drop_prob=0.1)
        observations, _ = generate_scene(spec)
        frames = np.sort([o.frame_id for o in observations])
        a0, a1, b0, b1 = window_pairs(frames, 3)
        row_pairs = int(((a1 - a0) * (b1 - b0)).sum())
        assert row_pairs == 103_343
        tracemalloc.start()
        try:
            associate(observations, RunConfig(window=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * row_pairs

    def test_the_frame_window_is_enumerated_once_per_run(self, scene, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return window_pairs(*args)

        monkeypatch.setattr(pipeline, "window_pairs", counted)
        monkeypatch.setattr(association, "window_pairs", counted)
        run_pipeline(RunConfig(), *scene)
        assert len(calls) == 1


def _assert_associate_matches_oracle(observations, cfg):
    """`associate` gives `oracle_associate`'s matches bit for bit, and its clusters."""
    matches, clusters = associate(observations, cfg)
    expected, expected_clusters = oracle_associate(observations, cfg)
    assert matches.obs_a.dtype == matches.obs_b.dtype == np.int64
    assert matches.obs_a.tolist() == [m.obs_a for m in expected]
    assert matches.obs_b.tolist() == [m.obs_b for m in expected]
    assert matches.score.tobytes() == np.array([m.score for m in expected], dtype=float).tobytes()
    assert [(c.cluster_id, sorted(c.members)) for c in clusters] == expected_clusters
    return matches, clusters


def _write_scores(path, triplets):
    with open(path, "w") as handle:
        for a, b, score in triplets:
            handle.write(json.dumps({"obs_a": a, "obs_b": b, "score": score}) + "\n")


class TestAssociateOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_desk_scenes(self, seed):
        observations, _ = generate_scene(default_scene_spec(seed=seed))
        matches, _ = _assert_associate_matches_oracle(observations, RunConfig())
        assert len(matches) > 0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("regime", [
        {"clutter_rate": 1.0, "drop_prob": 0.1},
        {"frame_spacing": 30.0, "drop_prob": 0.3},
    ])
    def test_noisy_scenes(self, seed, regime):
        observations, _ = generate_scene(default_scene_spec(seed=seed, **regime))
        _assert_associate_matches_oracle(observations, RunConfig())

    def test_ids_out_of_frame_order(self):
        # Later frames hold smaller ids, so a match's earlier-frame row
        # often has the larger id.
        observations, _ = generate_scene(default_scene_spec(seed=6, clutter_rate=1.0))
        ids = np.random.default_rng(6).permutation(len(observations)) * 7
        relabelled = [dataclasses.replace(o, obs_id=int(i)) for o, i in zip(observations, ids)]
        matches, _ = _assert_associate_matches_oracle(relabelled, RunConfig())
        assert (matches.obs_a < matches.obs_b).all()

    def test_5km_scene(self):
        spec = default_scene_spec(seed=8, n_objects=750, street_length=5000.0, clutter_rate=1.0)
        matches, clusters = _assert_associate_matches_oracle(generate_scene(spec)[0], RunConfig())
        assert len(matches) > 5000 and len(clusters) > 500

    @pytest.mark.parametrize("window", [2, 3])
    def test_file_scores_anywhere(self, tmp_path, window):
        # Random scores on pairs within a frame, in the window, beyond it
        # and across categories, a tenth of them exactly tau.
        observations, _ = generate_scene(default_scene_spec(seed=3, clutter_rate=1.0, drop_prob=0.1))
        table = ObservationTable.from_observations(observations)
        rank = np.unique(table.frame_id, return_inverse=True)[1]
        rng = np.random.default_rng(window)
        i, j = np.triu_indices(len(table), 1)
        near = np.abs(rank[i] - rank[j]) <= window + 1
        i, j = i[near], j[near]
        picked = rng.random(len(i)) < 0.5
        i, j = i[picked], j[picked]
        score = np.where(rng.random(len(i)) < 0.1, 0.5, rng.random(len(i)))
        swap = rng.random(len(i)) < 0.5
        ids = table.obs_id
        triplets = zip(np.where(swap, ids[j], ids[i]).tolist(), np.where(swap, ids[i], ids[j]).tolist(),
                       score.tolist())
        path = tmp_path / "scores.jsonl"
        _write_scores(path, triplets)
        same_frame = table.frame_id[i] == table.frame_id[j]
        assert same_frame.any() and (np.abs(rank[i] - rank[j]) >= window).any()
        assert (table.category[i] != table.category[j]).any()
        cfg = RunConfig(window=window, scorer=f"file:{path}")
        matches, _ = _assert_associate_matches_oracle(observations, cfg)
        assert (matches.score == 0.5).any()
        pairs = set(zip(matches.obs_a.tolist(), matches.obs_b.tolist()))
        category = dict(zip(ids.tolist(), table.category.tolist()))
        assert any(category[a] != category[b] for a, b in pairs)

    def test_window_pair_without_scores(self, tmp_path):
        observations = [mkobs(i, f, [10.0 * i, 0, 0], [5, 5, 0]) for i, f in enumerate([0, 0, 1, 2])]
        path = tmp_path / "scores.jsonl"
        _write_scores(path, [(3, 1, 0.9)])
        matches, clusters = _assert_associate_matches_oracle(observations, RunConfig(scorer=f"file:{path}"))
        assert _columns(matches) == [(1, 3, 0.9)]
        assert [(c.cluster_id, sorted(c.members)) for c in clusters] == [(0, [0]), (1, [1, 3]), (2, [2])]

    def test_score_equal_to_tau_is_kept(self, tmp_path):
        observations = [mkobs(i, i, [10.0 * i, 0, 0], [5, 5, 0]) for i in range(3)]
        path = tmp_path / "scores.jsonl"
        _write_scores(path, [(0, 1, 0.5), (1, 2, float(np.nextafter(0.5, 0.0)))])
        matches, _ = _assert_associate_matches_oracle(observations, RunConfig(tau=0.5, scorer=f"file:{path}"))
        assert _columns(matches) == [(0, 1, 0.5)]


class TestLocalizeClusters:
    def test_singletons_and_parallel_bundles_stay_unlocalized(self):
        parallel = [mkobs(i, i, [0.0, i, 0.0], [10.0, i, 0.0]) for i in range(3)]
        table = ObservationTable.from_observations(parallel + [mkobs(3, 3, [0, 0, 0], [5, 5, 0])])
        out = localize_clusters(ClusterTable.from_records([Cluster(4, {3}), Cluster(2, {0, 1, 2})]), table)
        assert [(c.cluster_id, c.members, c.center, c.residuals) for c in out] == [
            (2, {0, 1, 2}, None, None), (4, {3}, None, None)]

    def test_centers_are_estimate_center_of_the_member_rows(self, scene):
        observations, truth = scene
        table = ObservationTable.from_observations(observations)
        groups: dict = {}
        for o in observations:
            groups.setdefault(truth.object_of[o.obs_id], set()).add(o.obs_id)
        clusters = ClusterTable.from_records(Cluster(k, m) for k, m in enumerate(groups.values()))
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
            ClusterTable.from_records([Cluster(0, {0, 1, 2}), Cluster(1, {3, 4}), Cluster(2, {5, 6})]), table)
        assert [r["category"] for r in records] == ["sign", "bollard", "light"]

    def test_numbered_by_smallest_member(self):
        table = self._table(["sign"] * 6)
        records = inventory_records(
            ClusterTable.from_records([Cluster(0, {5, 3}), Cluster(1, {4}), Cluster(2, {2, 0}), Cluster(3, {1})]),
            table)
        assert [(r["object_id"], r["members"]) for r in records] == [
            (0, [0, 2]), (1, [1]), (2, [3, 5]), (3, [4])]

    def test_unlocalized_record_has_null_center_and_residual(self):
        table = self._table(["sign"] * 3)
        located = localize_clusters(ClusterTable.from_records([Cluster(0, {0, 1}), Cluster(1, {2})]), table)
        records = inventory_records(located, table)
        assert records[0]["center"] is not None and records[0]["max_residual"] is not None
        assert records[0]["n_observations"] == 2
        assert (records[1]["center"], records[1]["max_residual"]) == (None, None)


    @pytest.mark.parametrize("no_refine", [False, True])
    def test_matches_per_record_oracle(self, no_refine):
        observations, truth = generate_scene(
            default_scene_spec(seed=6, n_objects=30, clutter_rate=1.0, drop_prob=0.1))
        table = ObservationTable.from_observations(observations)
        result = run_pipeline(RunConfig(no_refine=no_refine), table)
        expected = oracle_inventory_records(result.clusters.records(), table)
        assert json.dumps(result.inventory) == json.dumps(expected)


class TestRunPipeline:
    def test_district_run_builds_no_cluster_records(self, monkeypatch):
        observations, truth = generate_scene(default_scene_spec(seed=3, n_objects=750, street_length=5000.0))
        built = []

        class Counted(Cluster):
            def __new__(cls, *args, **kwargs):
                built.append(cls)
                return super().__new__(cls)

        # Every module of the run that could name the record type.
        for module in (association, io, pipeline, refinement):
            monkeypatch.setattr(module, "Cluster", Counted, raising=False)
        result = run_pipeline(RunConfig(), observations, truth)
        assert len(result.inventory) > 700 and built == []
        # Iterating the clusters makes them, each counted.
        assert sum(c.size for c in result.clusters) == len(observations)
        assert len(built) == len(result.clusters)

    def test_empty_input_with_truth(self):
        truth = GroundTruth(objects=[], obs_ids=[], object_of={})
        result = run_pipeline(RunConfig(), [], truth)
        assert (len(result.matches), len(result.clusters), result.inventory) == (0, 0, [])
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
