"""Ray geometry: the gap between rays, the energy and the closed-form center."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streetinv import DegenerateClusterError, estimate_center, estimate_centers, ray_gaps
from streetinv.geometry import rotation_from_euler

from conftest import (
    Ray,
    bundle,
    energy,
    grid_argmin,
    make_ray,
    point_ray_distance,
    ray_ray_distance,
)

X_RAY = Ray(np.zeros(3), np.array([1.0, 0.0, 0.0]))


def random_rays(rng, n, center=None, noise=0.0):
    """Rays aimed at a common point from scattered origins, then perturbed."""
    if center is None:
        center = rng.uniform(-10, 10, 3)
    rays = []
    for _ in range(n):
        origin = center + rng.uniform(5, 30) * _random_unit(rng)
        d = center - origin
        d = d / np.linalg.norm(d)
        if noise > 0:
            axis = np.cross(d, _random_unit(rng))
            axis /= np.linalg.norm(axis)
            angle = rng.normal(0, noise)
            d = d * math.cos(angle) + np.cross(axis, d) * math.sin(angle)
        rays.append(Ray(origin, d / np.linalg.norm(d)))
    return rays, center


def _unit(v):
    return v / np.linalg.norm(v)


def _random_unit(rng):
    return _unit(rng.normal(size=3))


class TestPointRayDistance:
    def test_point_on_line_is_zero(self):
        assert point_ray_distance([7.5, 0, 0], X_RAY) == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_offset(self):
        assert point_ray_distance([0, 1, 0], X_RAY) == pytest.approx(1.0)

    def test_projection_removes_axis_component(self):
        assert point_ray_distance([3, 4, 0], X_RAY) == pytest.approx(4.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = Ray(rng.normal(size=3), _random_unit(rng))
            assert point_ray_distance(rng.normal(size=3) * 10, r) >= 0.0


def gap(a: Ray, b: Ray) -> float:
    """`ray_gaps` of the single pair (a, b)."""
    return float(ray_gaps(a.origin[None], a.direction[None], b.origin[None], b.direction[None])[0])


class TestRayRayDistance:
    def test_identical_rays(self):
        assert gap(X_RAY, X_RAY) == pytest.approx(0.0)

    def test_crossing_rays(self):
        a = make_ray([0, 0, 0], [5, 5, 0])
        b = make_ray([10, 0, 0], [5, 5, 0])
        assert gap(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_skew_rays_known_gap(self):
        a = Ray(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        b = Ray(np.array([0.0, 0.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        assert gap(a, b) == pytest.approx(2.0)

    def test_behind_origin_does_not_count(self):
        # Lines cross at (-5, 0) but both rays point away from it; the
        # closest admissible points are the two origins, sqrt(50) apart.
        a = Ray(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        b = Ray(np.array([-5.0, 5.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert gap(a, b) == pytest.approx(math.sqrt(50.0))

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = Ray(rng.normal(size=3) * 5, _random_unit(rng))
            b = Ray(rng.normal(size=3) * 5, _random_unit(rng))
            assert gap(a, b) == pytest.approx(gap(b, a), abs=1e-12)

    def test_lower_bounded_by_sampled_minimum(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0, 60, 2001)
        for _ in range(50):
            a = Ray(rng.normal(size=3) * 5, _random_unit(rng))
            b = Ray(rng.normal(size=3) * 5, _random_unit(rng))
            pa = a.origin[None, :] + t[:, None] * a.direction[None, :]
            pb = b.origin[None, :] + t[:, None] * b.direction[None, :]
            sampled = np.min(np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2))
            assert gap(a, b) <= sampled + 1e-9

    def test_batch_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        pairs = [(Ray(rng.normal(size=3) * 5, _random_unit(rng)),
                  Ray(rng.normal(size=3) * 5, _random_unit(rng))) for _ in range(300)]
        for _ in range(20):
            o, d = rng.normal(size=3) * 5, _random_unit(rng)
            offset = rng.normal(size=3)
            tilted = _unit(d + 1e-7 * _random_unit(rng))
            away = _unit(-d + 0.3 * _random_unit(rng))
            pairs += [
                (Ray(o, d), Ray(o + offset, d)),  # parallel
                (Ray(o, d), Ray(o + offset, -d)),  # antiparallel
                (Ray(o, d), Ray(o, d)),  # coincident
                (Ray(o, d), Ray(o + offset, tilted)),  # near-parallel
                (Ray(o, d), Ray(o - 20 * d + offset, away)),  # behind both cameras
            ]
        origin_a, dir_a, origin_b, dir_b = (
            np.array([getattr(pair[k], f) for pair in pairs])
            for k in (0, 1) for f in ("origin", "direction"))
        expected = [ray_ray_distance(*a, *b) for a, b in pairs]
        np.testing.assert_allclose(ray_gaps(origin_a, dir_a, origin_b, dir_b), expected,
                                   rtol=0.0, atol=1e-12)


class TestEnergy:
    def test_zero_at_exact_intersection(self):
        target = np.array([5.0, 0.0, 2.0])
        rays = [make_ray([0, 0, 0], target), make_ray([10, 3, 0], target)]
        assert energy(target, rays) == pytest.approx(0.0, abs=1e-18)

    def test_single_ray_is_squared_distance(self):
        c = np.array([3.0, 4.0, 0.0])
        assert energy(c, [X_RAY]) == pytest.approx(point_ray_distance(c, X_RAY) ** 2)

    def test_empty_rays_rejected(self):
        with pytest.raises(ValueError):
            energy(np.zeros(3), [])

    def test_minimum_matches_grid_oracle_value(self):
        # Three constructed rays; grid search pins the minimum energy value.
        rng = np.random.default_rng(3)
        rays, center = random_rays(rng, 3, center=np.array([2.0, -1.0, 4.0]), noise=math.radians(0.2))
        oracle_point = grid_argmin(rays, center)
        estimate = estimate_center(*bundle(rays))
        assert energy(estimate.center, rays) == pytest.approx(
            energy(oracle_point, rays), abs=1e-6
        )


class TestEstimateCenter:
    def test_two_exactly_intersecting_rays(self):
        target = np.array([5.0, 0.0, 2.0])
        rays = [make_ray([0, 0, 0], target), make_ray([10, 4, 1], target)]
        estimate = estimate_center(*bundle(rays))
        np.testing.assert_allclose(estimate.center, target, atol=1e-9)
        assert estimate.residuals == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_three_rays_common_point(self):
        target = np.array([-3.0, 7.0, 1.5])
        rays = [make_ray([0, 0, 0], target), make_ray([10, 0, 0], target), make_ray([0, 12, 3], target)]
        np.testing.assert_allclose(estimate_center(*bundle(rays)).center, target, atol=1e-9)

    def test_noisy_cluster_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        rays, center = random_rays(rng, 6, center=np.array([0.0, 0.0, 2.0]), noise=math.radians(0.2))
        estimate = estimate_center(*bundle(rays))
        oracle_point = grid_argmin(rays, center)
        assert np.linalg.norm(estimate.center - oracle_point) < 1e-3

    def test_collinear_bundle_degenerate(self):
        d = np.array([1.0, 0.0, 0.0])
        rays = [Ray(np.array([float(k), 0.0, 0.0]), d) for k in range(3)]
        with pytest.raises(DegenerateClusterError):
            estimate_center(*bundle(rays))

    def test_all_parallel_is_degenerate(self):
        d = np.array([1.0, 0.0, 0.0])
        rays = [Ray(np.array([0.0, k, 0.0]), d) for k in range(3)]
        with pytest.raises(DegenerateClusterError):
            estimate_center(*bundle(rays))

    def test_parallel_in_xy_only_is_localized(self):
        # Both rays lie in the plane y = 0, so their XY projections are
        # parallel, but in 3D they cross at the target.
        target = np.array([10.0, 0.0, 5.0])
        rays = [make_ray([0, 0, 0], target), make_ray([20, 0, 0], target)]
        estimate = estimate_center(*bundle(rays))
        np.testing.assert_allclose(estimate.center, target, atol=1e-9)
        assert estimate.residuals == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_two_parallel_rays_degenerate(self):
        d = np.array([0.6, 0.0, 0.8])
        rays = [Ray(np.zeros(3), d), Ray(np.array([0.0, 2.0, 1.0]), d)]
        with pytest.raises(DegenerateClusterError):
            estimate_center(*bundle(rays))

    def test_single_ray_rejected(self):
        with pytest.raises(DegenerateClusterError):
            estimate_center(*bundle([X_RAY]))

    def test_no_nearby_point_has_lower_energy(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rays, _ = random_rays(rng, int(rng.integers(2, 8)), noise=0.02)
            estimate = estimate_center(*bundle(rays))
            best = energy(estimate.center, rays)
            for scale in (1e-4, 1e-2, 1.0):
                for step in rng.normal(0.0, scale, (10, 3)):
                    assert best <= energy(estimate.center + step, rays) + 1e-12

    def test_exact_recovery_with_clean_rays(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rays, center = random_rays(rng, int(rng.integers(2, 6)), noise=0.0)
            estimate = estimate_center(*bundle(rays))
            assert np.linalg.norm(estimate.center - center) < 1e-6

    def test_residuals_are_point_ray_distances(self):
        rng = np.random.default_rng(10)
        rays, _ = random_rays(rng, 5, noise=0.01)
        estimate = estimate_center(*bundle(rays))
        expected = [point_ray_distance(estimate.center, r) for r in rays]
        assert estimate.residuals == pytest.approx(expected, abs=1e-12)


class TestEstimateCenters:
    def test_groups_of_zero_one_and_two_rays(self):
        target = np.array([5.0, 0.0, 2.0])
        rays = [X_RAY, make_ray([0, 0, 0], target), make_ray([10, 4, 1], target)]
        fit = estimate_centers(*bundle(rays), np.array([1, 2, 2]), 3)
        assert fit.degenerate.tolist() == [True, True, False]
        assert np.isnan(fit.centers[:2]).all() and np.isnan(fit.residuals[0])
        np.testing.assert_allclose(fit.centers[2], target, atol=1e-9)
        np.testing.assert_allclose(fit.residuals[1:], 0.0, atol=1e-9)

    def test_parallel_group_leaves_its_neighbours_alone(self):
        rng = np.random.default_rng(11)
        d = _unit(np.array([1.0, 2.0, 0.5]))
        parallel = [Ray(rng.normal(size=3), d) for _ in range(4)]
        before, _ = random_rays(rng, 3, noise=0.01)
        after, _ = random_rays(rng, 5, noise=0.01)
        fit = estimate_centers(*bundle(before + parallel + after), np.repeat([0, 1, 2], [3, 4, 5]), 3)
        assert fit.degenerate.tolist() == [False, True, False]
        with pytest.raises(DegenerateClusterError):
            estimate_center(*bundle(parallel))
        for g, rays in ((0, before), (2, after)):
            alone = estimate_center(*bundle(rays))
            assert fit.centers[g].tobytes() == alone.center.tobytes()

    def test_each_group_is_bitwise_its_own_estimate_center(self):
        rng = np.random.default_rng(12)
        groups = [random_rays(rng, int(rng.integers(2, 9)), noise=0.02)[0] for _ in range(40)]
        origins, dirs = bundle([r for g in groups for r in g])
        # Interleave the groups' rows at random, each group's in its own order.
        group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])[rng.permutation(len(origins))]
        order = np.argsort(group, kind="stable")
        mixed_origins, mixed_dirs = np.empty_like(origins), np.empty_like(dirs)
        mixed_origins[order], mixed_dirs[order] = origins, dirs
        fit = estimate_centers(mixed_origins, mixed_dirs, group, len(groups))
        for g, members in enumerate(groups):
            alone = estimate_center(*bundle(members))
            assert fit.centers[g].tobytes() == alone.center.tobytes()
            assert fit.residuals[group == g].tolist() == alone.residuals


class TestEquivariance:
    @settings(max_examples=30, deadline=None)
    @given(
        tx=st.floats(-50, 50), ty=st.floats(-50, 50), tz=st.floats(-20, 20),
        seed=st.integers(0, 10_000),
    )
    def test_translation(self, tx, ty, tz, seed):
        rng = np.random.default_rng(seed)
        rays, _ = random_rays(rng, 4, noise=0.01)
        t = np.array([tx, ty, tz])
        moved = [Ray(r.origin + t, r.direction) for r in rays]
        a = estimate_center(*bundle(rays)).center
        b = estimate_center(*bundle(moved)).center
        np.testing.assert_allclose(b, a + t, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(-math.pi, math.pi), seed=st.integers(0, 10_000))
    def test_rotation_about_z(self, alpha, seed):
        rng = np.random.default_rng(seed)
        rays, _ = random_rays(rng, 4, noise=0.01)
        rz = rotation_from_euler(alpha, 0.0, 0.0)
        rotated = [Ray(rz @ r.origin, rz @ r.direction) for r in rays]
        a = estimate_center(*bundle(rays)).center
        b = estimate_center(*bundle(rotated)).center
        np.testing.assert_allclose(b, rz @ a, atol=1e-6)
