"""Refinement: splitting outliers, merging fragments, full passes."""

import numpy as np
import pytest

from streetinv import (
    Cluster,
    ClusterTable,
    Observation,
    ObservationTable,
    RunConfig,
    estimate_physical_size,
    merge_undermatched,
    refine,
    split_overmatched,
)
from streetinv import refinement
from streetinv.pipeline import associate
from streetinv.simulator import default_scene_spec, generate_scene

from conftest import corrupt_links, dense_near, oracle_merge_undermatched, oracle_split_overmatched, true_clusters

as_table = ClusterTable.from_records


def on_records(oracle):
    """A scalar oracle over `Cluster` lists, called on a table and returning one."""
    return lambda clusters, table, cfg: as_table(oracle(clusters.records(), table, cfg))


def assert_same_clusters(out, expected, atol):
    """Equal ids and members, centers and residuals within `atol`."""
    for column in ("cluster_id", "size", "member"):
        assert getattr(out, column).tolist() == getattr(expected, column).tolist()
    np.testing.assert_array_equal(out.localized, expected.localized)
    np.testing.assert_allclose(out.center, expected.center, rtol=0.0, atol=atol)
    np.testing.assert_allclose(out.residual, expected.residual, rtol=0.0, atol=atol)


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
    clusters = as_table([
        Cluster(cluster_id=0, members={0, 1, 2, 4}),
        Cluster(cluster_id=1, members={3}),
    ])
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
    return as_table(clusters), ObservationTable.from_observations(observations)


def blanked(clusters):
    """The clusters with no center and NaN residuals."""
    return ClusterTable(clusters.cluster_id, clusters.size, clusters.member,
                        np.full_like(clusters.center, np.nan), np.full_like(clusters.residual, np.nan))


def split_with_stray(obs):
    """Rays 0-2 as the split leaves their cluster 0, and ray 3 as singleton 1."""
    split = split_overmatched(as_table([Cluster(cluster_id=0, members={0, 1, 2})]), obs, RunConfig())
    return as_table(split.records() + [Cluster(cluster_id=1, members={3})])


class TestSplitOvermatched:
    def test_single_outlier_pruned(self):
        # Four rays meet at T1; the fifth aims 2 m past it and sits ~0.84 m
        # from the joint center while the others stay within ~0.35 m.
        t_off = T1 + np.array([2.0, 0.7, 0.0])
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(4)]
        members.append(mkobs(4, 4, FRAMES[4], t_off))
        obs = ObservationTable.from_observations(members)
        out = split_overmatched(as_table([Cluster(cluster_id=0, members={0, 1, 2, 3, 4})]), obs, RunConfig())
        assert sorted(tuple(sorted(c.members)) for c in out) == [(0, 1, 2, 3), (4,)]

    def test_consistent_cluster_unchanged(self):
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(4)]
        obs = ObservationTable.from_observations(members)
        [out] = split_overmatched(as_table([Cluster(cluster_id=0, members={0, 1, 2, 3})]), obs, RunConfig())
        assert out.members == {0, 1, 2, 3}
        assert max(out.residuals.values()) < 1e-9

    def test_two_rays_far_apart_both_freed(self):
        # The rays cross in XY but pass 2.4 m apart vertically: the midpoint
        # center gives each a residual of about half the gap (> tau_split),
        # so both become singletons.
        a = mkobs(0, 0, [0, 0, 0], [20, 0, 0])
        b = mkobs(1, 1, [20, 10, 2.4], [0, -10, 2.4])
        obs = ObservationTable.from_observations([a, b])
        estimate = split_overmatched(as_table([Cluster(cluster_id=0, members={0, 1})]), obs, RunConfig())
        assert sorted(tuple(sorted(c.members)) for c in estimate) == [(0,), (1,)]
        for c in estimate:
            assert c.center is None

    def test_singletons_pass_through(self):
        a = mkobs(0, 0, [0, 0, 0], [20, 0, 0])
        [out] = split_overmatched(
            as_table([Cluster(cluster_id=7, members={0})]), ObservationTable.from_observations([a]), RunConfig())
        assert out.cluster_id == 7

    def test_degenerate_cluster_passes_through(self):
        # Same line, no XY intersection anywhere.
        a = mkobs(0, 0, [0, 0, 0], [20, 0, 0])
        b = mkobs(1, 1, [10, 0, 0], [20, 0, 0])
        obs = ObservationTable.from_observations([a, b])
        [out] = split_overmatched(as_table([Cluster(cluster_id=0, members={0, 1})]), obs, RunConfig())
        assert out.members == {0, 1}
        assert out.center is None

    def test_prunes_until_no_member_violates(self):
        # Five rays at scattered targets: freeing the worst one moves the
        # refitted center 0.59 m off another ray, which must go too.
        targets = [[12.04, 5.91, 2.88], [12.09, 6.2, 3.63], [11.4, 7.47, 3.79],
                   [11.97, 5.64, 3.29], [12.75, 6.59, 3.39]]
        obs = ObservationTable.from_observations(
            [mkobs(i, i, FRAMES[i], t) for i, t in enumerate(targets)])
        cfg = RunConfig()
        out = split_overmatched(as_table([Cluster(cluster_id=0, members=set(range(5)))]), obs, cfg)
        assert sum(c.size == 1 for c in out) >= 2
        for c in out:
            if c.center is not None:
                assert max(c.residuals.values()) <= cfg.tau_split

    def test_output_residuals_within_threshold(self):
        cfg = RunConfig()
        for seed in (2, 6, 9):
            observations, truth = generate_scene(default_scene_spec(seed=seed, n_objects=20))
            obs = ObservationTable.from_observations(observations)
            clusters, _, _ = corrupt_links(observations, truth, 0.15, np.random.default_rng(seed))
            for c in split_overmatched(as_table(clusters), obs, cfg):
                if c.size >= 2 and c.center is not None:
                    for m, r in c.residuals.items():
                        assert r <= cfg.split_threshold(obs.category[obs.rows([m])[0]])

    def test_category_threshold_respected(self):
        t_off = T1 + np.array([2.0, 0.7, 0.0])
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(4)]
        members.append(mkobs(4, 4, FRAMES[4], t_off))
        obs = ObservationTable.from_observations(members)
        # Loose per-category threshold keeps the outlier in place.
        cfg = RunConfig(tau_split_per_category={"street_light": 5.0})
        [out] = split_overmatched(as_table([Cluster(cluster_id=0, members={0, 1, 2, 3, 4})]), obs, cfg)
        assert out.members == {0, 1, 2, 3, 4}

    def test_localized_clusters_pass_through(self):
        # A cluster with a center keeps its members, center and residuals as
        # given, even an outlier and a stale center; the same members blank
        # are split, and a blank cluster beside it is fitted.
        t_off = T1 + np.array([2.0, 0.7, 0.0])
        obs = ObservationTable.from_observations(
            [mkobs(i, i, FRAMES[i], T1) for i in range(4)] + [mkobs(4, 4, FRAMES[4], t_off)]
            + [mkobs(5 + i, i, FRAMES[i], T1) for i in range(5)])
        stale = Cluster(0, {0, 1, 2, 3, 4}, center=[1.0, 2.0, 3.0], residuals=dict.fromkeys(range(5), 9.0))
        out = split_overmatched(as_table([stale, Cluster(1, set(range(5, 10)))]), obs, RunConfig())
        assert out.cluster_id.tolist() == [0, 1]
        assert (out.center[0] == [1.0, 2.0, 3.0]).all() and (out.residual[:5] == 9.0).all()
        assert out.localized[1] and out.residual[5:].max() < 1e-9
        out = split_overmatched(as_table([Cluster(0, {0, 1, 2, 3, 4})]), obs, RunConfig())
        assert [sorted(c.members) for c in out] == [[0, 1, 2, 3], [4]]

    @pytest.mark.parametrize("per_category", [{}, {"street_light": 0.3, "bollard": 0.8}])
    def test_matches_scalar_oracle(self, per_category):
        cfg = RunConfig(tau_split_per_category=per_category)
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
            for given, table in ((as_table(clusters), obs), (as_table(strays), obs), scattered_bundles(rng)):
                out = split_overmatched(given, table, cfg)
                assert_same_clusters(out, on_records(oracle_split_overmatched)(given, table, cfg), atol=1e-9)
                freed += sum(out.size == 1) - sum(given.size == 1)
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

    def test_noiseless_ray_at_its_true_center_gives_height_over_pi(self):
        spec = default_scene_spec(seed=3, n_objects=12, direction_noise=0.0, pose_noise=0.0)
        observations, truth = generate_scene(spec)
        checked = 0
        for o in observations:
            obj = spec.objects[truth.object_of[o.obs_id]]
            if o.box_h_norm < 1.0:  # a box taller than the panorama is clipped
                assert estimate_physical_size(o, obj.center) == pytest.approx(obj.height / np.pi, rel=1e-12)
                checked += 1
        assert checked > 0

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
        clusters = split_with_stray(obs)
        out = merge_undermatched(clusters, obs, RunConfig())
        assert sorted(tuple(sorted(c.members)) for c in out) == [(0, 1, 2, 3)]

    def test_grown_cluster_comes_out_blank(self):
        # Ray 3 joins cluster 0, which loses its center and residuals;
        # cluster 1, which absorbs nothing, keeps both.
        t2 = np.array([30.0, 6.0, 4.0])
        obs = ObservationTable.from_observations(
            [mkobs(i, i, FRAMES[i], T1) for i in range(3)] + [mkobs(3, 3, FRAMES[3], T1)]
            + [mkobs(4 + i, i, FRAMES[i], t2) for i in range(3)])
        split = split_overmatched(as_table([Cluster(0, {0, 1, 2}), Cluster(1, {4, 5, 6})]), obs, RunConfig())
        clusters = as_table(split.records() + [Cluster(2, {3})])
        out = merge_undermatched(clusters, obs, RunConfig())
        assert out.cluster_id.tolist() == [0, 1] and out.size.tolist() == [4, 3]
        assert np.isnan(out.center[0]).all() and np.isnan(out.residual[:4]).all()
        assert out.center[1].tobytes() == clusters.center[1].tobytes()
        assert out.residual[4:].tobytes() == clusters.residual[3:6].tobytes()

    def test_pairs_of_two_categories_get_fresh_ids_in_residual_order(self):
        # Three pairs of singletons, each two rays a `gap` apart at their
        # closest, so with residual gap / 2: bollards 0-1 (0.3) and 2-3
        # (0.1), trash bins 4-5 (0.2). The pairs lie 10 m apart in height,
        # so no ray comes near another pair's.
        def pair(obs_id, category, level, gap):
            crossing = np.array([10.0, 0.0, level])
            return [mkobs(obs_id, obs_id, crossing + [-10.0, -3.0, 0.0], crossing, category=category),
                    mkobs(obs_id + 1, obs_id + 1, crossing + [10.0, -5.0, gap], crossing + [0.0, 0.0, gap],
                          category=category)]

        obs = ObservationTable.from_observations(
            pair(0, "bollard", 0.0, 0.6) + pair(2, "bollard", 10.0, 0.2) + pair(4, "trash_bin", 20.0, 0.4))
        clusters = as_table([Cluster(k, {k}) for k in range(6)])
        for merge in (merge_undermatched, on_records(oracle_merge_undermatched)):
            out = merge(clusters, obs, RunConfig())
            assert out.cluster_id.tolist() == [6, 7, 8]
            assert [sorted(c.members) for c in out] == [[2, 3], [4, 5], [0, 1]]

    def test_fig3_pair_merge(self):
        obs, clusters, _, t2 = fig3_scenario()
        after_split = split_overmatched(clusters, obs, RunConfig())
        out = merge_undermatched(after_split, obs, RunConfig())
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
        clusters = as_table([Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})])
        out = merge_undermatched(clusters, obs, RunConfig(tau_scale=1.5))
        assert sorted(tuple(sorted(c.members)) for c in out) == [(0,), (1,)]

    def test_consistent_sizes_pair_merges(self):
        crossing = np.array([10.0, 0.0, 0.0])
        a = mkobs(0, 0, [0, 0, 0], crossing, category="bollard", height=0.9)
        b = mkobs(1, 1, [20, 5, 0], crossing, category="bollard", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = as_table([Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})])
        out = merge_undermatched(clusters, obs, RunConfig(tau_scale=1.5))
        assert sorted(tuple(sorted(c.members)) for c in out) == [(0, 1)]

    @pytest.mark.parametrize("gap, merges", [(0.8, True), (1.2, False)])
    def test_pair_residual_is_half_the_gap(self, gap, merges):
        # The center is the midpoint of the common perpendicular, gap/2 from
        # each ray; tau_merge is 0.5.
        a = mkobs(0, 0, [0, 0, 0], [10, 0, 0], category="bollard", height=0.9)
        b = mkobs(1, 1, [20, 5, gap], [10, 0, gap], category="bollard", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = as_table([Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})])
        out = merge_undermatched(clusters, obs, RunConfig())
        assert (len(out) == 1) == merges

    def test_same_frame_pair_never_merges(self):
        crossing = np.array([10.0, 0.0, 0.0])
        a = mkobs(0, 5, [0, 0, 0], crossing, category="bollard", height=0.9)
        b = mkobs(1, 5, [20, 5, 0], crossing, category="bollard", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = as_table([Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})])
        out = merge_undermatched(clusters, obs, RunConfig())
        assert len(out) == 2

    def test_different_categories_never_merge(self):
        crossing = np.array([10.0, 0.0, 0.0])
        a = mkobs(0, 0, [0, 0, 0], crossing, category="bollard", height=0.9)
        b = mkobs(1, 1, [20, 5, 0], crossing, category="trash_bin", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = as_table([Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})])
        out = merge_undermatched(clusters, obs, RunConfig())
        assert len(out) == 2

    def test_absorb_requires_category_agreement(self):
        members = [mkobs(i, i, FRAMES[i], T1, category="street_light") for i in range(3)]
        stray = mkobs(3, 3, FRAMES[3], T1, category="traffic_sign")
        obs = ObservationTable.from_observations(members + [stray])
        clusters = split_with_stray(obs)
        out = merge_undermatched(clusters, obs, RunConfig())
        assert sorted(len(c.members) for c in out) == [1, 3]

    @pytest.mark.parametrize("odd_one", [0, 2])
    def test_mixed_category_cluster_absorbs_nothing(self, odd_one):
        # A localized cluster with one member of another category is no
        # target, even for a ray through its center of the majority's category.
        categories = ["street_light"] * 3
        categories[odd_one] = "traffic_sign"
        members = [mkobs(i, i, FRAMES[i], T1, category=c) for i, c in enumerate(categories)]
        stray = mkobs(3, 3, FRAMES[3], T1, category="street_light")
        obs = ObservationTable.from_observations(members + [stray])
        clusters = split_with_stray(obs)
        assert clusters.localized[0]
        for merge in (merge_undermatched, on_records(oracle_merge_undermatched)):
            out = merge(clusters, obs, RunConfig())
            assert sorted(tuple(sorted(c.members)) for c in out) == [(0, 1, 2), (3,)]

    def test_parallel_rays_never_pair(self):
        a = mkobs(0, 0, [0, 0, 0], [10, 0, 0], category="bollard")
        b = mkobs(1, 1, [0, 0.1, 0], [10, 0.1, 0], category="bollard")
        obs = ObservationTable.from_observations([a, b])
        clusters = as_table([Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})])
        for merge in (merge_undermatched, on_records(oracle_merge_undermatched)):
            out = merge(clusters, obs, RunConfig())
            assert sorted(tuple(sorted(c.members)) for c in out) == [(0,), (1,)]

    @pytest.mark.parametrize("behind", ["both", "one"])
    def test_lines_crossing_behind_a_camera_never_pair(self, behind):
        # The lines cross at [10, 0, 0], as in the pair that merges above,
        # but ray 0 (and with "both" ray 1 too) points away from the crossing.
        crossing = np.array([10.0, 0.0, 0.0])
        a_at, b_at = np.array([0.0, 0.0, 0.0]), np.array([20.0, 5.0, 0.0])
        a = mkobs(0, 0, a_at, 2 * a_at - crossing, category="bollard", height=0.9)
        b = mkobs(1, 1, b_at, 2 * b_at - crossing if behind == "both" else crossing, category="bollard", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = as_table([Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})])
        for merge in (merge_undermatched, on_records(oracle_merge_undermatched)):
            assert len(merge(clusters, obs, RunConfig())) == 2

    @pytest.mark.parametrize("max_depth, merges", [(11.0, False), (11.5, True)])
    def test_crossing_past_max_depth_never_pairs(self, monkeypatch, max_depth, merges):
        # The crossing lies 10 m along ray 0 and 11.18 m along ray 1.
        monkeypatch.setattr(refinement, "MAX_DEPTH", max_depth)
        crossing = np.array([10.0, 0.0, 0.0])
        a = mkobs(0, 0, [0, 0, 0], crossing, category="bollard", height=0.9)
        b = mkobs(1, 1, [20, 5, 0], crossing, category="bollard", height=0.9)
        obs = ObservationTable.from_observations([a, b])
        clusters = as_table([Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={1})])
        for merge in (merge_undermatched, on_records(oracle_merge_undermatched)):
            assert (len(merge(clusters, obs, RunConfig())) == 1) == merges

    def test_center_behind_the_camera_absorbs_nothing(self):
        # Ray 3's line passes through T1, cluster 0's center, behind its camera.
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(3)]
        stray = mkobs(3, 3, FRAMES[3], 2 * FRAMES[3] - T1)
        obs = ObservationTable.from_observations(members + [stray])
        clusters = split_with_stray(obs)
        for merge in (merge_undermatched, on_records(oracle_merge_undermatched)):
            out = merge(clusters, obs, RunConfig())
            assert sorted(tuple(sorted(c.members)) for c in out) == [(0, 1, 2), (3,)]

    @pytest.mark.parametrize("max_depth, absorbed", [(19.0, False), (19.1, True)])
    def test_center_past_max_depth_absorbs_nothing(self, monkeypatch, max_depth, absorbed):
        # T1, cluster 0's center, lies 19.03 m along ray 3.
        monkeypatch.setattr(refinement, "MAX_DEPTH", max_depth)
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(3)]
        obs = ObservationTable.from_observations(members + [mkobs(3, 3, FRAMES[3], T1)])
        clusters = split_with_stray(obs)
        for merge in (merge_undermatched, on_records(oracle_merge_undermatched)):
            assert (len(merge(clusters, obs, RunConfig())) == 1) == absorbed

    def test_matches_scalar_oracle(self):
        cfg = RunConfig()
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
            shattered = as_table([Cluster(cluster_id=k, members=m) for k, m in enumerate(parts)])
            clusters = split_overmatched(shattered, obs, cfg)
            out = merge_undermatched(clusters, obs, cfg)
            assert_same_clusters(out, on_records(oracle_merge_undermatched)(clusters, obs, cfg), atol=1e-12)
            known = {c.cluster_id: c.size for c in clusters}
            absorbed += sum(c.size - known[c.cluster_id] for c in out if c.cluster_id in known)
            paired += sum(c.cluster_id not in known for c in out)
        assert absorbed > 0 and paired > 0

    def test_requires_partition(self):
        a = mkobs(0, 0, [0, 0, 0], [10, 0, 0])
        obs = ObservationTable.from_observations([a])
        overlapping = [Cluster(cluster_id=0, members={0}), Cluster(cluster_id=1, members={0})]
        with pytest.raises(ValueError, match="disjoint"):
            merge_undermatched(as_table(overlapping), obs, RunConfig())


def split_scene(**spec):
    """A scene's chained clusters after the first split, as the merge gets them, and its table."""
    observations, _ = generate_scene(default_scene_spec(**spec))
    obs = ObservationTable.from_observations(observations)
    return split_overmatched(associate(obs, RunConfig())[1], obs, RunConfig()), obs


class TestMergeCandidates:
    """The merge's candidates come from two cKDTree queries. Under the depth
    gate they hold every row that passes it, and they grow as the singletons do."""

    @staticmethod
    def _merged(clusters, obs, near):
        """The merge with `near` listing its candidates, and the rows its absorption and pairing keep."""
        kept, absorb, pair = {}, refinement._absorb, refinement._pair
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(refinement, "_near", near)
            patch.setattr(refinement, "_absorb", lambda *args: kept.setdefault("absorb", absorb(*args)))
            patch.setattr(refinement, "_pair", lambda *args: kept.setdefault("pair", pair(*args)))
            out = merge_undermatched(clusters, obs, RunConfig())
        none = np.empty(0, dtype=np.intp)  # a merge with no singletons lists nothing
        i, j, r = kept.get("pair", (none, none, none))
        order = np.lexsort((j, i))
        return out, (*kept.get("absorb", (none, none)), i[order], j[order], r[order])

    def _assert_kd_is_dense(self, clusters, obs):
        """The KD merge keeps the rows and writes the bits the all-pairs merge does; returns (absorbed, paired)."""
        out, kept = self._merged(clusters, obs, refinement._near)
        dense, dense_kept = self._merged(clusters, obs, dense_near)
        for column in ("cluster_id", "size", "member", "center", "residual"):
            assert getattr(out, column).tobytes() == getattr(dense, column).tobytes()
        assert [rows.tobytes() for rows in kept] == [rows.tobytes() for rows in dense_kept]
        return len(kept[0]), len(kept[2])

    @pytest.mark.parametrize("regime", [{}, {"clutter_rate": 1.0, "drop_prob": 0.1}, {"pose_noise": 0.3}],
                             ids=["clean", "clutter", "pose-noise-0.3"])
    def test_equal_to_all_pairs_on_desk_scenes(self, regime):
        found = np.array([self._assert_kd_is_dense(*split_scene(seed=seed, **regime)) for seed in range(20)])
        assert (found.sum(axis=0) > 0).all()

    def test_equal_to_all_pairs_on_a_5km_clutter_scene(self):
        clusters, obs = split_scene(seed=21, n_objects=750, street_length=5000.0, clutter_rate=1.0, drop_prob=0.1)
        assert min(self._assert_kd_is_dense(clusters, obs)) > 0

    def test_candidate_rows_grow_as_the_singletons_do(self, monkeypatch):
        # Counted, not timed: from 2 km to 8 km of clutter (30 objects per
        # 200 m), all pairs of singletons would grow about 16-fold.
        near, rows = refinement._near, []

        def counted(*args):
            found = near(*args)
            rows[-1] += len(found[0])
            return found

        monkeypatch.setattr(refinement, "_near", counted)
        singletons = []
        for length in (2000.0, 8000.0):
            clusters, obs = split_scene(seed=21, n_objects=int(length * 30 / 200), street_length=length,
                                        clutter_rate=1.0, drop_prob=0.1)
            rows.append(0)
            merge_undermatched(clusters, obs, RunConfig())
            singletons.append(int((clusters.size == 1).sum()))
        assert rows[1] / rows[0] <= 1.25 * singletons[1] / singletons[0]


class TestRefine:
    def test_fig3_end_to_end(self):
        obs, clusters, t1, t2 = fig3_scenario()
        cfg = RunConfig()
        out = refine(clusters, obs, cfg)
        parts = {tuple(sorted(c.members)): c for c in out}
        assert set(parts) == {(0, 1, 2), (3, 4)}
        assert np.linalg.norm(parts[(0, 1, 2)].center - t1) < cfg.tau_split
        assert np.linalg.norm(parts[(3, 4)].center - t2) < cfg.tau_split

    def test_fixed_point_on_consistent_input(self):
        members = [mkobs(i, i, FRAMES[i], T1) for i in range(4)]
        obs = ObservationTable.from_observations(members)
        clusters = as_table([Cluster(cluster_id=0, members={0, 1, 2, 3})])
        once = refine(clusters, obs, RunConfig())
        assert [sorted(c.members) for c in once] == [[0, 1, 2, 3]]
        twice = refine(once, obs, RunConfig())
        assert [sorted(c.members) for c in twice] == [sorted(c.members) for c in once]
        np.testing.assert_allclose(twice.center, once.center, atol=1e-12)

    def test_partition_preserved(self):
        spec = default_scene_spec(seed=3, n_objects=15)
        observations, truth = generate_scene(spec)
        obs = ObservationTable.from_observations(observations)
        rng = np.random.default_rng(42)
        clusters, _, _ = corrupt_links(observations, truth, 0.10, rng)
        out = refine(as_table(clusters), obs, RunConfig())
        all_in = sorted(m for c in out for m in c.members)
        assert all_in == sorted(o.obs_id for o in observations)

    def test_multi_member_residuals_bounded(self):
        spec = default_scene_spec(seed=5, n_objects=15)
        observations, truth = generate_scene(spec)
        obs = ObservationTable.from_observations(observations)
        rng = np.random.default_rng(43)
        clusters, _, _ = corrupt_links(observations, truth, 0.10, rng)
        cfg = RunConfig()
        out = refine(as_table(clusters), obs, cfg)
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

        assert v_of(refine(as_table(corrupted), obs, RunConfig())) >= v_of(corrupted)

    def test_idempotent_after_clean_pass(self):
        obs, clusters, _, _ = fig3_scenario()
        cfg = RunConfig()
        once = refine(clusters, obs, cfg)
        twice = refine(once, obs, cfg)
        assert sorted(tuple(sorted(c.members)) for c in twice) == sorted(
            tuple(sorted(c.members)) for c in once
        )

    @staticmethod
    def _chained(seed):
        observations, _ = generate_scene(
            default_scene_spec(seed=seed, n_objects=40, clutter_rate=1.0, drop_prob=0.1))
        obs = ObservationTable.from_observations(observations)
        return associate(obs, RunConfig())[1], obs

    @pytest.mark.parametrize("seed", [1, 4])
    def test_same_as_a_second_split_of_every_cluster(self, seed):
        # The clusters the merge leaves localized left the first split as
        # fixed points of it, so refitting them too changes no bit.
        clusters, obs = self._chained(seed)
        cfg = RunConfig()
        split = split_overmatched(clusters, obs, cfg)
        every = split_overmatched(blanked(merge_undermatched(split, obs, cfg)), obs, cfg)
        out = refine(clusters, obs, cfg)
        for column in ("cluster_id", "size", "member", "center", "residual"):
            assert getattr(out, column).tobytes() == getattr(every, column).tobytes()

    def test_second_split_fits_only_what_the_merge_changed(self, monkeypatch):
        clusters, obs = self._chained(4)
        calls = []
        fit, merge = refinement.estimate_centers, refinement.merge_undermatched

        def counted_fit(origins, *args):
            calls.append(len(origins))
            return fit(origins, *args)

        def recorded_merge(given, *args):
            merged = merge(given, *args)
            calls.append((given, merged))
            return merged

        monkeypatch.setattr(refinement, "estimate_centers", counted_fit)
        monkeypatch.setattr(refinement, "merge_undermatched", recorded_merge)
        refine(clusters, obs, RunConfig())
        at = next(k for k, call in enumerate(calls) if isinstance(call, tuple))
        _, merged = calls[at]
        multi = merged.size >= 2
        blank = merged.size[multi & ~merged.localized].sum()
        # The first round of the second split fits the members of the blank
        # multi-member clusters the merge left, and no others.
        assert calls[at + 1:at + 2] == [blank] and 0 < blank < merged.size[multi].sum()
