"""Scene simulator: the same scenes, draw for draw, as the brute-force oracles."""

import collections
import dataclasses
import math
import sys

import numpy as np
import pytest
from conftest import oracle_default_scene_spec, oracle_export_scene, oracle_generate_scene
from hypothesis import assume, example, given, settings, strategies as st

from streetinv import CameraPose, Detection2D, Observation, simulator
from streetinv.simulator import (
    SceneObject,
    SceneSpec,
    default_scene_spec,
    export_scene,
    generate_scene,
    straight_trajectory,
)

NOISY = dict(frame_spacing=30.0, drop_prob=0.3, direction_noise=math.radians(1.0), pose_noise=0.3)

REGIMES = (
    [pytest.param(dict(seed=s), id=f"desk-{s}") for s in range(6)]
    + [pytest.param(dict(seed=s, clutter_rate=1.0, drop_prob=0.1), id=f"clutter-{s}") for s in range(4)]
    + [pytest.param(dict(seed=s, **NOISY), id=f"noisy-{s}") for s in range(2)]
)


def _object_key(objects):
    return [(o.category, o.center.tobytes(), o.height) for o in objects]


def _observation_key(observations):
    return [
        (o.obs_id, o.frame_id, o.category, o.exposure.tobytes(), o.direction.tobytes(),
         np.float64(o.box_w_norm).tobytes(), np.float64(o.box_h_norm).tobytes())
        for o in observations
    ]


def _pose_key(poses):
    return [(p.frame_id, p.position.tobytes()) for p in poses]


def _detection_key(detections):
    # repr keeps the sign of a zero and every digit of a float.
    return [repr(dataclasses.astuple(d)) for d in detections]


def _assert_scene_matches_oracle(spec, monkeypatch):
    """generate_scene and export_scene agree bit for bit with the brute-force scan."""
    observations, truth = generate_scene(spec)
    expected, expected_truth = oracle_generate_scene(spec)
    assert _observation_key(observations) == _observation_key(expected)
    assert truth.object_of == expected_truth.object_of
    assert truth.obs_ids == expected_truth.obs_ids
    poses, detections, _, _ = export_scene(spec)
    monkeypatch.setattr(simulator, "generate_scene", oracle_generate_scene)
    expected_poses, expected_detections, _, _ = export_scene(spec)
    monkeypatch.undo()
    assert _pose_key(poses) == _pose_key(expected_poses)
    assert _detection_key(detections) == _detection_key(expected_detections)
    # The pixel step too: the record-by-record oracle rotates each ray on its own.
    oracle_poses, oracle_detections, _, _ = oracle_export_scene(spec)
    assert _pose_key(poses) == _pose_key(oracle_poses)
    assert _detection_key(detections) == _detection_key(oracle_detections)
    return observations, truth


@pytest.mark.parametrize("kwargs", REGIMES)
def test_default_scenes_match_oracles(kwargs, monkeypatch):
    spec = default_scene_spec(**kwargs)
    assert _object_key(spec.objects) == _object_key(oracle_default_scene_spec(**kwargs).objects)
    _assert_scene_matches_oracle(spec, monkeypatch)


def test_district_clutter_scene_matches_oracles(monkeypatch):
    kwargs = dict(seed=8, n_objects=750, street_length=5000.0, clutter_rate=1.0, drop_prob=0.1)
    spec = default_scene_spec(**kwargs)
    assert _object_key(spec.objects) == _object_key(oracle_default_scene_spec(**kwargs).objects)
    observations, _ = _assert_scene_matches_oracle(spec, monkeypatch)
    assert len(observations) > 4000


def test_records_hold_python_types():
    # `_observation_key` compares np.int64(1) == 1 as equal; the types are checked here.
    spec = default_scene_spec(seed=2, clutter_rate=1.0, drop_prob=0.1)
    observations, _ = generate_scene(spec)
    assert observations
    for o in observations:
        assert tuple(map(type, (o.obs_id, o.frame_id, o.category, o.box_w_norm, o.box_h_norm))) == (
            int, int, str, float, float)
        assert (o.exposure.dtype, o.exposure.shape, o.direction.dtype, o.direction.shape) == (
            np.float64, (3,), np.float64, (3,))
    _, detections, _, _ = export_scene(spec)
    # Integer image sizes, so detections.jsonl keeps "img_w": 4096.
    assert {tuple(map(type, dataclasses.astuple(d))) for d in detections} == {
        (int, float, float, float, float, int, int, str, float)}


def test_the_simulator_does_not_check_each_record_again(monkeypatch):
    """Counted, not timed: the district scene's records come from one table check each."""
    calls = collections.Counter()
    for record_type in (Observation, Detection2D):
        def counted(record, check=record_type.__post_init__):
            calls[type(record).__name__] += 1
            check(record)
        monkeypatch.setattr(record_type, "__post_init__", counted)
    spec = default_scene_spec(seed=5000, n_objects=750, street_length=5000.0)
    observations, _ = generate_scene(spec)
    _, detections, _, _ = export_scene(spec)
    assert len(observations) > 4000 and len(detections) == len(observations)
    assert calls == {}
    # The counter counts: one record built by hand is checked once.
    Observation(obs_id=0, frame_id=0, category="bollard", exposure=np.zeros(3), direction=np.array([1.0, 0, 0]),
                box_w_norm=0.1, box_h_norm=0.1)
    assert calls == {"Observation": 1}


class _CountingGenerator:
    """A Generator whose method calls are counted by name."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return method(*args, **kwargs)

        return counted


class TestCountedWork:
    """Counted, not timed: what the district scene (seed 5000, 750 objects, 5 km) costs to make."""

    DISTRICT = dict(seed=5000, n_objects=750, street_length=5000.0)

    def test_placement_calls_vecdot_on_no_candidate(self, monkeypatch):
        calls = collections.Counter()

        def counted(a, b, vecdot=np.vecdot):
            calls["vecdot"] += 1
            return vecdot(a, b)

        monkeypatch.setattr(np, "vecdot", counted)
        spec = default_scene_spec(**self.DISTRICT)
        assert len(spec.objects) == 750
        assert calls == {}
        # The counter counts: a gap inside the tie band is decided by vecdot.
        assert simulator._closer(1.5, 2.0, 0.0, 2.5, *simulator._tie_band(2.5)) is False
        assert calls == {"vecdot": 1}

    def test_one_generator_call_per_pose_candidate_and_kept_row(self, monkeypatch):
        spec = default_scene_spec(**self.DISTRICT)
        calls = collections.Counter()
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed, rng=np.random.default_rng: _CountingGenerator(rng(seed), calls))
        observations, _ = generate_scene(spec)
        # No drops and no clutter: every candidate row is kept and is one observation.
        n_poses, n_rows = len(spec.trajectory), len(observations)
        assert n_rows > 4000
        assert calls == {"normal": n_poses, "random": n_rows, "standard_normal": n_rows}
        assert sum(calls.values()) == n_poses + 2 * n_rows


def _one_pose_spec(centers, max_range=32.0):
    pose = CameraPose(frame_id=0, position=np.array([0.0, 0.0, 2.5]), heading=0.0, pitch=0.0, roll=0.0)
    objects = [SceneObject(category="bollard", center=c, height=0.9) for c in centers]
    return SceneSpec(trajectory=[pose], objects=objects, max_range=max_range)


class TestRangeBoundary:
    def test_object_at_max_range_is_observed(self, monkeypatch):
        spec = _one_pose_spec([[32.0, 0.0, 2.5], [0.0, -32.0, 2.5], [0.0, 0.0, 34.5]])
        _, truth = _assert_scene_matches_oracle(spec, monkeypatch)
        assert sorted(truth.object_of.values()) == [0, 1, 2]

    def test_object_just_past_max_range_is_not(self, monkeypatch):
        beyond = np.nextafter(32.0, math.inf)
        spec = _one_pose_spec([[beyond, 0.0, 2.5], [0.0, 10.0, 2.5]])
        _, truth = _assert_scene_matches_oracle(spec, monkeypatch)
        assert list(truth.object_of.values()) == [1]

    def test_object_at_the_camera_is_skipped(self, monkeypatch):
        spec = _one_pose_spec([[5.0, 5.0, 2.5], [0.0, 0.0, 2.5], [-5.0, 5.0, 2.5]])
        _, truth = _assert_scene_matches_oracle(spec, monkeypatch)
        assert list(truth.object_of.values()) == [0, 2]


@pytest.mark.parametrize("min_separation", [40.0, 75.0])
def test_separation_wider_than_any_category_still_holds(min_separation, monkeypatch):
    kwargs = dict(seed=4, n_objects=30, street_length=2000.0, min_separation=min_separation)
    spec = default_scene_spec(**kwargs)
    assert _object_key(spec.objects) == _object_key(oracle_default_scene_spec(**kwargs).objects)
    same_category = simulator._CATEGORY_SEPARATION
    for i, a in enumerate(spec.objects):
        for b in spec.objects[i + 1:]:
            needed = same_category[a.category] if a.category == b.category else min_separation
            assert np.linalg.norm(a.center - b.center) >= needed
    _assert_scene_matches_oracle(spec, monkeypatch)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_objects=st.integers(1, 60),
    min_separation=st.sampled_from(sorted(set(simulator._CATEGORY_SEPARATION.values())) + [2.5, 30.0, 40.0])
    | st.floats(0.5, 40.0),
    room=st.floats(2.0, 4.0),
)
def test_placement_matches_the_oracle(seed, n_objects, min_separation, room):
    # Street length scales with the objects and their separation, so most draws can be placed.
    kwargs = dict(seed=seed, n_objects=n_objects, min_separation=min_separation,
                  street_length=max(200.0, room * n_objects * max(min_separation, 12.0)))
    try:
        spec = default_scene_spec(**kwargs)
    except ValueError as exc:
        assert "could not place" in str(exc)
        assume(False)
    assert _object_key(spec.objects) == _object_key(oracle_default_scene_spec(**kwargs).objects)


class TestTieBand:
    """`_closer` decides as `np.sqrt(np.vecdot(gap, gap)) < limit` does, at and around the limit."""

    @staticmethod
    def _rule(gap, limit):
        gap = np.asarray(gap, dtype=float)
        return bool(np.sqrt(np.vecdot(gap, gap)) < limit)

    @staticmethod
    def _closer(gap, limit):
        return simulator._closer(*map(float, gap), limit, *simulator._tie_band(limit))

    def test_a_gap_at_the_limit_is_accepted(self):
        # A 3-4-5 triangle scaled to 2.5 m: its squares sum to 6.25 exactly.
        assert self._closer([1.5, 2.0, 0.0], 2.5) is False

    def test_one_ulp_shorter_per_side_is_decided_by_vecdot(self):
        # Each side one ulp toward 0: the float sum lies in the band. A ddot that
        # rounds the sum up, as OpenBLAS's does, gives a square root of 2.5, so the
        # gap is accepted where the float sum alone would refuse it. Two ulps
        # shorter is refused.
        gap = np.nextafter([1.5, 2.0, 0.0], 0.0)
        lo, hi = simulator._tie_band(2.5)
        assert lo <= gap[0] * gap[0] + gap[1] * gap[1] + gap[2] * gap[2] <= hi
        assert self._closer(gap, 2.5) is self._rule(gap, 2.5)
        assert self._closer(np.nextafter(gap, 0.0), 2.5) is True

    def test_a_gap_one_ulp_inside_the_limit_is_refused(self):
        assert self._closer([np.nextafter(2.5, 0.0), 0.0, 0.0], 2.5) is True

    # A square below the normal floats, and one whose band's top overflows.
    @pytest.mark.parametrize("limit", [1e-160, math.sqrt(sys.float_info.max) * (1.0 - 1e-13)])
    def test_a_band_outside_the_normal_floats_leaves_every_gap_to_vecdot(self, limit):
        assert simulator._tie_band(limit) == (-math.inf, math.inf)
        for gap in ([0.6 * limit, 0.8 * limit, 0.0], [0.5 * limit, 0.0, 0.0]):
            assert self._closer(gap, limit) is self._rule(gap, limit)

    @settings(max_examples=300)
    @given(
        limit=st.sampled_from(sorted(set(simulator._CATEGORY_SEPARATION.values())) + [2.5, 1e-150, 1e150])
        | st.floats(0.5, 100.0),
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: math.hypot(*d) > 0.1),
        relative=st.floats(-1e-9, 1e-9),
    )
    @example(limit=2.5, direction=(3.0, 4.0, 0.0), relative=0.0)
    @example(limit=28.0, direction=(1.0, 1.0, 1.0), relative=1e-12)
    def test_gaps_near_the_limit_agree_with_vecdot(self, limit, direction, relative):
        unit = np.array(direction) / math.hypot(*direction)
        gap = unit * (limit * (1.0 + relative))
        assert self._closer(gap, limit) is self._rule(gap, limit)


def test_hand_built_curved_scene_matches_oracle(monkeypatch):
    """A trajectory bending through a quarter circle, objects scattered on both sides."""
    rng = np.random.default_rng(17)
    radius = 80.0
    angles = np.linspace(0.0, math.pi / 2, 25)
    trajectory = [
        CameraPose(frame_id=100 - 3 * k, position=[radius * math.sin(a), radius * (1 - math.cos(a)), 2.5],
                   heading=float(a), pitch=0.01, roll=-0.02)
        for k, a in enumerate(angles)
    ]
    objects = []
    for a in rng.uniform(0.0, math.pi / 2, 40):
        r = radius + rng.choice([-1.0, 1.0]) * rng.uniform(3.5, 12.0)
        objects.append(SceneObject(category=str(rng.choice(["street_light", "trash_bin"])),
                                   center=[r * math.sin(a), radius - r * math.cos(a), rng.uniform(0.5, 6.0)],
                                   height=float(rng.uniform(0.8, 8.0))))
    spec = SceneSpec(trajectory=trajectory, objects=objects, direction_noise=0.01, pose_noise=0.05,
                     drop_prob=0.2, clutter_rate=0.7, max_range=25.0, seed=9)
    observations, truth = _assert_scene_matches_oracle(spec, monkeypatch)
    assert any(v is None for v in truth.object_of.values())
    assert len({truth.object_of[o.obs_id] for o in observations} - {None}) > 20


class TestEdgeCases:
    """Settings and layouts the default regimes never reach, each against the oracle."""

    def test_no_direction_noise_points_each_ray_at_its_object(self, monkeypatch):
        spec = default_scene_spec(seed=3, direction_noise=0.0, clutter_rate=0.5)
        observations, truth = _assert_scene_matches_oracle(spec, monkeypatch)
        positions = {p.frame_id: p.position for p in spec.trajectory}
        for o in observations:
            if truth.object_of[o.obs_id] is not None:
                delta = spec.objects[truth.object_of[o.obs_id]].center - positions[o.frame_id]
                assert o.direction.tobytes() == (delta / np.linalg.norm(delta)).tobytes()

    def test_no_pose_noise_records_the_true_positions(self, monkeypatch):
        spec = default_scene_spec(seed=3, pose_noise=0.0, clutter_rate=0.5)
        observations, _ = _assert_scene_matches_oracle(spec, monkeypatch)
        positions = {p.frame_id: p.position.tobytes() for p in spec.trajectory}
        assert observations
        assert all(o.exposure.tobytes() == positions[o.frame_id] for o in observations)

    def test_every_object_dropped_leaves_only_clutter(self, monkeypatch):
        spec = default_scene_spec(seed=3, drop_prob=1.0, clutter_rate=1.0)
        observations, truth = _assert_scene_matches_oracle(spec, monkeypatch)
        assert observations
        assert set(truth.object_of.values()) == {None}

    def test_a_pose_with_nothing_in_range(self, monkeypatch):
        # Frame 1 lies 100 m from every object; the poses around it see two each.
        objects = [SceneObject("bollard", [x, 4.0, 0.5], 0.9) for x in (-5.0, 5.0, 195.0, 205.0)]
        spec = SceneSpec(trajectory=straight_trajectory(3, 100.0), objects=objects,
                         direction_noise=0.01, pose_noise=0.1, seed=5)
        observations, _ = _assert_scene_matches_oracle(spec, monkeypatch)
        assert [o.frame_id for o in observations] == [0, 0, 2, 2]

    def test_no_pose_sees_anything(self, monkeypatch):
        objects = [SceneObject("bollard", [500.0, 4.0, 0.5], 0.9)]
        spec = SceneSpec(trajectory=straight_trajectory(4, 10.0), objects=objects,
                         direction_noise=0.01, pose_noise=0.1, seed=5)
        observations, truth = _assert_scene_matches_oracle(spec, monkeypatch)
        assert observations == [] and truth.obs_ids == [] and truth.object_of == {}
        poses, detections, _, _ = export_scene(spec)
        assert detections == []
        assert _pose_key(poses) == _pose_key(spec.trajectory)

    def test_axis_draw_parallel_to_the_ray_leaves_the_direction_unchanged(self):
        d = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
        raw = np.array([[1.2, 0.0, 1.6], [0.3, -0.2, 0.9]])  # the first row's draw is parallel to its ray
        turned = simulator._perturb_directions(d, np.array([0.3, 0.3]), raw)
        assert turned[0].tobytes() == d[0].tobytes()
        assert turned[1] @ d[1] == pytest.approx(math.cos(0.3), abs=1e-12)


class TestSceneSpecChecks:
    @staticmethod
    def _spec(**kwargs):
        return SceneSpec(trajectory=straight_trajectory(3, 10.0),
                         objects=[SceneObject("bollard", [10.0, 4.0, 0.5], 0.9)], **kwargs)

    @pytest.mark.parametrize("max_range", [math.nan, math.inf, 0.0, -1.0])
    def test_max_range_must_be_positive_and_finite(self, max_range):
        with pytest.raises(ValueError, match="max_range must be positive and finite"):
            self._spec(max_range=max_range)

    @pytest.mark.parametrize("min_separation", [math.nan, -5.0, 0.0, math.inf])
    def test_min_separation_must_be_positive_and_finite(self, min_separation):
        with pytest.raises(ValueError, match="min_separation must be positive and finite"):
            default_scene_spec(seed=2, min_separation=min_separation)

    def test_frame_count_that_overflows_is_refused(self):
        with pytest.raises(ValueError, match=r"street_length / frame_spacing must be finite, got 1e\+308 / 1e-308"):
            default_scene_spec(street_length=1e308, frame_spacing=1e-308)

    def test_negative_seed_is_refused_with_the_scene_message(self):
        with pytest.raises(ValueError, match="seed must be 0 or more, got -1"):
            self._spec(seed=-1)
        with pytest.raises(ValueError, match="seed must be 0 or more, got -1"):
            default_scene_spec(seed=-1)
