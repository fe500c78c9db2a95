"""Refinement: splitting outliers, merging fragments, full passes."""

import numpy as np
import pytest

from streetinv import (
    Cluster,
    Observation,
    ObservationTable,
    RefineConfig,
    estimate_physical_size,
    merge_undermatched,
    refine,
    split_overmatched,
)
from streetinv.simulator import default_scene_spec, generate_scene

from conftest import corrupt_links, oracle_merge_undermatched, oracle_split_overmatched, true_clusters


def mkobs(obs_id, frame_id, origin, target, category="street_light", height=1.2):
    origin = np.asarray(origin, dtype=float)
    target = np.asarray(target, dtype=float)
    d = target - origin
    dist = np.linalg.norm(d)
    h_norm = min(1.0, height / (dist * np.pi))
    return Observation(
        obs_id=obs_id, frame_id=frame_id, category=category,
        exposure=origin, direction=d / dist,
        box_w_norm=h_norm / 2, box_h_norm=h_norm,
    )


FRAMES = [np.array([x, 0.0, 2.5]) for x in (0.0, 10.0, 20.0, 30.0, 40.0)]
T1 = np.array([12.0, 6.0, 4.0])


def fig3_scenario():
    """Five rays, two objects: A,B,C see T1; D,E see T2; E starts in T1's
    cluster. T2 is placed so E's ray passes ~1.7 m from T1."""
    t2 = np.array([16.0, 6.6, 4.0])
    a = mkobs(0, 0, FRAMES[0], T1)
    b = mkobs(1, 1, FRAMES[1], T1)
    c = mkobs(2, 2, FRAMES[2], T1)
    d = mkobs(3, 3, FRAMES[3], t2)
    e = mkobs(4, 4, FRAMES[4], t2)
    obs = ObservationTable.from_observations([a, b, c, d, e])
    clusters = [
        Cluster(cluster_id=0, members={0, 1, 2, 4}),
        Cluster(cluster_id=1, members={3}),
    ]
    return obs, clusters, T1, t2


def scattered_bundles(rng, n_objects=30, spread=0.4):
    """Clusters of 2-8 rays, each aimed at its object's center plus noise of
    `spread` meters, and one cluster of parallel rays; returns (clusters,
    table). Pruning them takes several rounds, and some rays are freed only
    after a refit."""
    observations, clusters = [], []
    for k in range(n_objects):
        target = np.array([10.0 * k, rng.uniform(4, 8), rng.uniform(0.5, 4)])
        n = int(rng.integers(2, 9))
        start = len(observations)
        for f in range(n):
            origin = [10.0 * (k + f - n / 2), 0.0, 2.5]
            observations.append(mkobs(start + f, f, origin, target + rng.normal(0.0, spread, 3),
                                      category=("street_light", "bollard", "trash_bin")[k % 3]))
        clusters.append(Cluster(cluster_id=k, members=set(range(start, start + n))))
    start = len(observations)
    observations += [mkobs(start + f, f, [0.0, f, 0.0], [10.0, f, 0.0]) for f in range(3)]
    clusters.append(Cluster(cluster_id=n_objects, members=set(range(start, start + 3))))
    return clusters, ObservationTable.from_observations(observations)


class TestRefineConfig:
    def test_defaults_valid(self):
        cfg = RefineConfig()
        assert cfg.split_threshold("anything") == 0.5
        assert cfg.merge_threshold("anything") == 0.5

    def test_per_category_overrides(self):
        cfg = RefineConfig(tau_split_per_category={"manhole": 0.2})
        assert cfg.split_threshold("manhole") == 0.2
        assert cfg.split_threshold("sign") == 0.5

    @pytest.mark.parametrize(
        "kwargs", [
            {"tau_split": 0.0},
            {"tau_merge": -1.0},
            {"tau_scale": 1.0},
            {"tau_split_per_category": {"x": -0.5}},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RefineConfig(**kwargs)


class TestSplitOvermatched:
    def test_single_outlier_pruned(self):
        # Four rays meet at T1; the fifth aims 2 m past it and sits ~0.84 m
        # from the joint center while the others stay within ~0.35 m.
        t_off = T1 + np.array([2.0, 0.7, 0.0])
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(4)]
        members.append(mkobs(4, 4, FRAMES[4], t_off))
        obs = ObservationTable.from_observations(members)
        out = split_overmatched([Cluster(cluster_id=0, members={0, 1, 2, 3, 4})], obs, RefineConfig())
        assert sorted(tuple(sorted(c.members)) for c in out) == [(0, 1, 2, 3), (4,)]

    def test_consistent_cluster_unchanged(self):
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(4)]
        obs = ObservationTable.from_observations(members)
        out = split_overmatched([Cluster(cluster_id=0, members={0, 1, 2, 3})], obs, RefineConfig())
        assert len(out) == 1
        assert out[0].members == {0, 1, 2, 3}
        assert max(out[0].residuals.values()) < 1e-9

    def test_two_rays_far_apart_both_freed(self):
        # The rays cross in XY but pass 2.4 m apart vertically: the midpoint
        # center gives each a residual of about half the gap (> tau_split),
        # so both become singletons.
        a = mkobs(0, 0, [0, 0, 0], [20, 0, 0])
        b = mkobs(1, 1, [20, 10, 2.4], [0, -10, 2.4])
        obs = ObservationTable.from_observations([a, b])
        estimate = split_overmatched([Cluster(cluster_id=0, members={0, 1})], obs, RefineConfig())
        assert sorted(tuple(sorted(c.members)) for c in estimate) == [(0,), (1,)]
        for c in estimate:
            assert c.center is None

    def test_singletons_pass_through(self):
        a = mkobs(0, 0, [0, 0, 0], [20, 0, 0])
        out = split_overmatched(
            [Cluster(cluster_id=7, members={0})], ObservationTable.from_observations([a]), RefineConfig())
        assert len(out) == 1 and out[0].cluster_id == 7

    def test_degenerate_cluster_passes_through(self):
        # Same line, no XY intersection anywhere.
        a = mkobs(0, 0, [0, 0, 0], [20, 0, 0])
        b = mkobs(1, 1, [10, 0, 0], [20, 0, 0])
        obs = ObservationTable.from_observations([a, b])
        out = split_overmatched([Cluster(cluster_id=0, members={0, 1})], obs, RefineConfig())
        assert len(out) == 1
        assert out[0].members == {0, 1}
        assert out[0].center is None

    def test_prunes_until_no_member_violates(self):
        # Five rays at scattered targets: freeing the worst one moves the
        # refitted center 0.59 m off another ray, which must go too.
        targets = [[12.04, 5.91, 2.88], [12.09, 6.2, 3.63], [11.4, 7.47, 3.79],
                   [11.97, 5.64, 3.29], [12.75, 6.59, 3.39]]
        obs = ObservationTable.from_observations(
            [mkobs(i, i, FRAMES[i], t) for i, t in enumerate(targets)])
        cfg = RefineConfig()
        out = split_overmatched([Cluster(cluster_id=0, members=set(range(5)))], obs, cfg)
        assert sum(c.size == 1 for c in out) >= 2
        for c in out:
            if c.center is not None:
                assert max(c.residuals.values()) <= cfg.tau_split

    def test_output_residuals_within_threshold(self):
        cfg = RefineConfig()
        for seed in (2, 6, 9):
            observations, truth = generate_scene(default_scene_spec(seed=seed, n_objects=20))
            obs = ObservationTable.from_observations(observations)
            clusters, _, _ = corrupt_links(observations, truth, 0.15, np.random.default_rng(seed))
            for c in split_overmatched(clusters, obs, cfg):
                if c.size >= 2 and c.center is not None:
                    for m, r in c.residuals.items():
                        assert r <= cfg.split_threshold(obs.category[obs.rows([m])[0]])

    def test_category_threshold_respected(self):
        t_off = T1 + np.array([2.0, 0.7, 0.0])
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(4)]
        members.append(mkobs(4, 4, FRAMES[4], t_off))
        obs = ObservationTable.from_observations(members)
        # Loose per-category threshold keeps the outlier in place.
        cfg = RefineConfig(tau_split_per_category={"street_light": 5.0})
        out = split_overmatched([Cluster(cluster_id=0, members={0, 1, 2, 3, 4})], obs, cfg)
        assert len(out) == 1 and out[0].members == {0, 1, 2, 3, 4}


    @pytest.mark.parametrize("per_category", [{}, {"street_light": 0.3, "bollard": 0.8}])
    def test_matches_scalar_oracle(self, per_category):
        cfg = RefineConfig(tau_split_per_category=per_category)
        freed = 0
        for seed in range(8):
            spec = default_scene_spec(seed=seed, n_objects=20, clutter_rate=0.5)
            observations, truth = generate_scene(spec)
            obs = ObservationTable.from_observations(observations)
            rng = np.random.default_rng(200 + seed)
            clusters, _, _ = corrupt_links(observations, truth, 0.1, rng)
            # A ray moved into the cluster before it biases that center, so
            # its pruning takes more than one round.
            parts = [set(c.members) for c in clusters]
            for k in range(len(parts) - 1):
                if len(parts[k + 1]) >= 2 and rng.random() < 0.5:
                    stray = min(parts[k + 1])
                    parts[k + 1].discard(stray)
                    parts[k].add(stray)
            strays = [Cluster(cluster_id=k, members=m) for k, m in enumerate(parts)]
            for given, table in ((clusters, obs), (strays, obs), scattered_bundles(rng)):
                out = split_overmatched(given, table, cfg)
                expected = oracle_split_overmatched(given, table, cfg)
                assert [(c.cluster_id, c.members, c.center is None) for c in out] == [
                    (c.cluster_id, c.members, c.center is None) for c in expected
                ]
                for c, e in zip(out, expected):
                    if c.center is not None:
                        np.testing.assert_allclose(c.center, e.center, rtol=0.0, atol=1e-9)
                        assert c.residuals.keys() == e.residuals.keys()
                        for m in c.residuals:
                            assert c.residuals[m] == pytest.approx(e.residuals[m], abs=1e-9)
                freed += sum(c.size == 1 for c in out) - sum(c.size == 1 for c in given)
        assert freed > 0


class TestEstimatePhysicalSize:
    def test_direct_product(self):
        o = mkobs(0, 0, [0, 0, 0], [10, 0, 0])
        o.box_h_norm = 0.1
        assert estimate_physical_size(o, [10.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_depth_at_exposure(self):
        o = mkobs(0, 0, [3.0, 2.0, 1.0], [10, 0, 0])
        assert estimate_physical_size(o, [3.0, 2.0, 1.0]) == pytest.approx(0.0)

    def test_perpendicular_target_zero(self):
        o = mkobs(0, 0, [0, 0, 0], [10, 0, 0])
        assert estimate_physical_size(o, [0.0, 5.0, 0.0]) == pytest.approx(0.0)

    def test_array_form_matches_each_ray(self):
        observations = [mkobs(i, i, FRAMES[i], T1 + [0.0, i, 0.0]) for i in range(4)]
        centers = np.array([T1, T1 + 1.0, [0.0, 0.0, 2.5], [-5.0, 3.0, 1.0]])
        rays = ObservationTable.from_observations(observations)
        sizes = estimate_physical_size(rays, centers)
        for o, c, s in zip(observations, centers, sizes):
            assert s == pytest.approx(estimate_physical_size(o, c), abs=1e-15)


class TestMergeUndermatched:
    def test_singleton_absorbed_into_nearby_cluster(self):
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(3)]
        stray = mkobs(3, 3, FRAMES[3], T1)  # ray passes exactly through T1
        obs = ObservationTable.from_observations(members + [stray])
        clusters = split_overmatched(
            [Cluster(cluster_id=0, members={0, 1, 2})], obs, RefineConfig()
        ) + [Cluster(cluster_id=1, members={3})]
        out = merge_undermatched(clusters, obs, RefineConfig())
        assert sorted(tuple(sorted(c.members)) for c in out) == [(0, 1, 2, 3)]

    def test_fig3_pair_merge(self):
        obs, clusters, _, t2 = fig3_scenario()
        after_split = split_overmatched(clusters, obs, RefineConfig())
        out = merge_undermatched(after_split, obs, RefineConfig())
        parts = sorted(tuple(sorted(c.members)) for c in out)
        assert (3, 4) in parts

    def test_size_gate_rejects_inconsistent_pair(self):
        # Rays cross at [10, 0, 0]; implied sizes 0.5 m vs 2.0 m -> ratio 4.
        crossing = np.array([10.0, 0.0, 0.0])
        a = mkobs(0, 0, [0, 0, 0], crossing, category="bollard")
        b = mkobs(1, 1, [20, 5, 0], crossing, category="bollard")
        a.box_h_norm = 0.5 / np.linalg.norm(crossing - a.exposure)
        b.box_h_norm = 2.0 / np.linalg.norm(crossing - b.exposure)
        obs = ObservationTable.from_observations([a, b])
        clusters = [Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})]
        out = merge_undermatched(clusters, obs, RefineConfig(tau_scale=1.5))
        assert sorted(tuple(sorted(c.members)) for c in out) == [(0,), (1,)]

    def test_consistent_sizes_pair_merges(self):
        crossing = np.array([10.0, 0.0, 0.0])
        a = mkobs(0, 0, [0, 0, 0], crossing, category="bollard", height=0.9)
        b = mkobs(1, 1, [20, 5, 0], crossing, category="bollard", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = [Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})]
        out = merge_undermatched(clusters, obs, RefineConfig(tau_scale=1.5))
        assert sorted(tuple(sorted(c.members)) for c in out) == [(0, 1)]

    @pytest.mark.parametrize("gap, merges", [(0.8, True), (1.2, False)])
    def test_pair_residual_is_half_the_gap(self, gap, merges):
        # The center is the midpoint of the common perpendicular, gap/2 from
        # each ray; tau_merge is 0.5.
        a = mkobs(0, 0, [0, 0, 0], [10, 0, 0], category="bollard", height=0.9)
        b = mkobs(1, 1, [20, 5, gap], [10, 0, gap], category="bollard", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = [Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})]
        out = merge_undermatched(clusters, obs, RefineConfig())
        assert (len(out) == 1) == merges

    def test_same_frame_pair_never_merges(self):
        crossing = np.array([10.0, 0.0, 0.0])
        a = mkobs(0, 5, [0, 0, 0], crossing, category="bollard", height=0.9)
        b = mkobs(1, 5, [20, 5, 0], crossing, category="bollard", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = [Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})]
        out = merge_undermatched(clusters, obs, RefineConfig())
        assert len(out) == 2

    def test_different_categories_never_merge(self):
        crossing = np.array([10.0, 0.0, 0.0])
        a = mkobs(0, 0, [0, 0, 0], crossing, category="bollard", height=0.9)
        b = mkobs(1, 1, [20, 5, 0], crossing, category="trash_bin", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = [Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})]
        out = merge_undermatched(clusters, obs, RefineConfig())
        assert len(out) == 2

    def test_absorb_requires_category_agreement(self):
        members = [mkobs(i, i, FRAMES[i], T1, category="street_light") for i in range(3)]
        stray = mkobs(3, 3, FRAMES[3], T1, category="traffic_sign")
        obs = ObservationTable.from_observations(members + [stray])
        clusters = split_overmatched(
            [Cluster(cluster_id=0, members={0, 1, 2})], obs, RefineConfig()
        ) + [Cluster(cluster_id=1, members={3})]
        out = merge_undermatched(clusters, obs, RefineConfig())
        assert sorted(len(c.members) for c in out) == [1, 3]

    def test_parallel_rays_never_pair(self):
        a = mkobs(0, 0, [0, 0, 0], [10, 0, 0], category="bollard")
        b = mkobs(1, 1, [0, 0.1, 0], [10, 0.1, 0], category="bollard")
        obs = ObservationTable.from_observations([a, b])
        clusters = [Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})]
        for merge in (merge_undermatched, oracle_merge_undermatched):
            out = merge(clusters, obs, RefineConfig())
            assert sorted(tuple(sorted(c.members)) for c in out) == [(0,), (1,)]

    def test_matches_scalar_oracle(self):
        cfg = RefineConfig()
        absorbed = paired = 0
        for seed in range(8):
            spec = default_scene_spec(seed=seed, n_objects=20, drop_prob=0.2)
            observations, truth = generate_scene(spec)
            obs = ObservationTable.from_observations(observations)
            rng = np.random.default_rng(100 + seed)
            # Shatter a third of the corrupted clusters so singletons of
            # one object are left to pair up.
            parts = []
            for c in corrupt_links(observations, truth, 0.2, rng)[0]:
                parts += [{m} for m in c.members] if rng.random() < 0.3 else [c.members]
            shattered = [Cluster(cluster_id=k, members=m) for k, m in enumerate(parts)]
            clusters = split_overmatched(shattered, obs, cfg)
            out = merge_undermatched(clusters, obs, cfg)
            expected = oracle_merge_undermatched(clusters, obs, cfg)
            assert [(c.cluster_id, c.members) for c in out] == [
                (c.cluster_id, c.members) for c in expected
            ]
            for c, e in zip(out, expected):
                assert (c.residuals is None) == (e.residuals is None)
                if c.residuals is not None:
                    assert set(c.residuals) == set(e.residuals)
                    for m in c.residuals:
                        assert c.residuals[m] == pytest.approx(e.residuals[m], abs=1e-12)
            known = {c.cluster_id: c.size for c in clusters}
            absorbed += sum(c.size - known[c.cluster_id] for c in out if c.cluster_id in known)
            paired += sum(c.cluster_id not in known for c in out)
        assert absorbed > 0 and paired > 0

    def test_requires_partition(self):
        a = mkobs(0, 0, [0, 0, 0], [10, 0, 0])
        obs = ObservationTable.from_observations([a])
        overlapping = [Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={0})]
        with pytest.raises(ValueError, match="disjoint"):
            merge_undermatched(overlapping, obs, RefineConfig())


class TestRefine:
    def test_fig3_end_to_end(self):
        obs, clusters, t1, t2 = fig3_scenario()
        cfg = RefineConfig()
        out = refine(clusters, obs, cfg)
        parts = {tuple(sorted(c.members)): c for c in out}
        assert set(parts) == {(0, 1, 2), (3, 4)}
        assert np.linalg.norm(parts[(0, 1, 2)].center - t1) < cfg.tau_split
        assert np.linalg.norm(parts[(3, 4)].center - t2) < cfg.tau_split

    def test_fixed_point_on_consistent_input(self):
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(4)]
        obs = ObservationTable.from_observations(members)
        clusters = [Cluster(cluster_id=0, members={0, 1, 2, 3})]
        once = refine(clusters, obs, RefineConfig())
        assert [sorted(c.members) for c in once] == [[0, 1, 2, 3]]
        twice = refine(once, obs, RefineConfig())
        assert [sorted(c.members) for c in twice] == [sorted(c.members) for c in once]
        np.testing.assert_allclose(twice[0].center, once[0].center, atol=1e-12)

    def test_partition_preserved(self):
        spec = default_scene_spec(seed=3, n_objects=15)
        observations, truth = generate_scene(spec)
        obs = ObservationTable.from_observations(observations)
        rng = np.random.default_rng(42)
        clusters, _, _ = corrupt_links(observations, truth, 0.10, rng)
        out = refine(clusters, obs, RefineConfig())
        all_in = sorted(m for c in out for m in c.members)
        assert all_in == sorted(o.obs_id for o in observations)

    def test_multi_member_residuals_bounded(self):
        spec = default_scene_spec(seed=5, n_objects=15)
        observations, truth = generate_scene(spec)
        obs = ObservationTable.from_observations(observations)
        rng = np.random.default_rng(43)
        clusters, _, _ = corrupt_links(observations, truth, 0.10, rng)
        cfg = RefineConfig()
        out = refine(clusters, obs, cfg)
        for c in out:
            if c.size >= 2 and c.residuals is not None:
                for m, r in c.residuals.items():
                    assert r <= cfg.split_threshold(obs.category[obs.rows([m])[0]]) + 1e-12

    def test_corrupted_links_v_measure_improves(self):
        from streetinv.metrics import clustering_metrics
        from streetinv.pipeline import localize_clusters

        spec = default_scene_spec(seed=11, n_objects=20)
        observations, truth = generate_scene(spec)
        obs = ObservationTable.from_observations(observations)
        rng = np.random.default_rng(44)
        corrupted, n_ghost, _ = corrupt_links(observations, truth, 0.10, rng)
        assert n_ghost > 0

        def v_of(clusters):
            assign = {m: c.cluster_id for c in clusters for m in c.members}
            ids = [o.obs_id for o in observations]
            return clustering_metrics(
                [truth.object_of[i] for i in ids], [assign[i] for i in ids]
            )[2]

        assert v_of(refine(corrupted, obs, RefineConfig())) >= v_of(corrupted)

    def test_idempotent_after_clean_pass(self):
        obs, clusters, _, _ = fig3_scenario()
        cfg = RefineConfig()
        once = refine(clusters, obs, cfg)
        twice = refine(once, obs, cfg)
        assert sorted(tuple(sorted(c.members)) for c in twice) == sorted(
            tuple(sorted(c.members)) for c in once
        )
