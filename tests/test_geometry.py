"""Geometry: pixel-to-angle mapping, Euler rotations, observation lifting."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streetinv import (
    CameraPose,
    Detection2D,
    DetectionTable,
    Observation,
    angles_to_camera_dir,
    build_observation,
    lift_detections,
    pixel_to_angles,
    rotation_from_euler,
)

W, H = 4096.0, 2048.0


def det(cx, cy, frame_id=0, category="sign", box=(40.0, 60.0)):
    return Detection2D(
        frame_id=frame_id,
        center_x=cx,
        center_y=cy,
        box_w=box[0],
        box_h=box[1],
        image_w=W,
        image_h=H,
        category=category,
    )


def identity_pose(frame_id=0, position=(0.0, 0.0, 0.0)):
    return CameraPose(frame_id=frame_id, position=np.array(position), heading=0.0, pitch=0.0, roll=0.0)


class TestPixelToAngles:
    def test_image_midpoint_is_forward(self):
        assert pixel_to_angles(det(W / 2, H / 2)) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_left_edge_is_minus_pi(self):
        az, el = pixel_to_angles(det(0.0, H / 2))
        assert az == pytest.approx(-math.pi)
        assert el == pytest.approx(0.0)

    def test_top_row_is_zenith(self):
        az, el = pixel_to_angles(det(W / 2, 0.0))
        assert az == pytest.approx(0.0)
        assert el == pytest.approx(math.pi / 2)

    def test_zero_image_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Detection2D(
                frame_id=0, center_x=0, center_y=0, box_w=1, box_h=1,
                image_w=0, image_h=H, category="sign",
            )

    @given(
        x1=st.floats(0, W - 2),
        dx=st.floats(0.5, 2.0),
        y1=st.floats(0, H - 2),
        dy=st.floats(0.5, 2.0),
    )
    def test_monotone_in_pixels(self, x1, dx, y1, dy):
        az1, el1 = pixel_to_angles(det(x1, y1))
        az2, el2 = pixel_to_angles(det(x1 + dx, y1 + dy))
        assert az2 > az1
        assert el2 < el1

    @given(
        azimuth=st.floats(-math.pi + 1e-6, math.pi - 1e-6),
        elevation=st.floats(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6),
    )
    def test_round_trip_through_pixels(self, azimuth, elevation):
        # Inverse mapping lives only here in the tests.
        cx = (azimuth + math.pi) / (2 * math.pi) * W
        cy = (1.0 - (elevation + math.pi / 2) / math.pi) * H
        az, el = pixel_to_angles(det(cx, cy))
        assert az == pytest.approx(azimuth, abs=1e-9)
        assert el == pytest.approx(elevation, abs=1e-9)


class TestAnglesToCameraDir:
    def test_forward_axis(self):
        np.testing.assert_allclose(angles_to_camera_dir(0.0, 0.0), [1, 0, 0], atol=1e-15)

    def test_left_axis(self):
        np.testing.assert_allclose(
            angles_to_camera_dir(math.pi / 2, 0.0), [0, 1, 0], atol=1e-15
        )

    def test_straight_up(self):
        np.testing.assert_allclose(
            angles_to_camera_dir(0.0, math.pi / 2), [0, 0, 1], atol=1e-15
        )

    @given(
        azimuth=st.floats(-math.pi, math.pi),
        elevation=st.floats(-math.pi / 2, math.pi / 2),
    )
    def test_unit_norm(self, azimuth, elevation):
        assert np.linalg.norm(angles_to_camera_dir(azimuth, elevation)) == pytest.approx(1.0, abs=1e-12)


def elementary_rotations(heading, pitch, roll):
    """Hand-composed elementary right-handed rotations (test oracle)."""
    ch, sh = math.cos(heading), math.sin(heading)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[ch, -sh, 0], [sh, ch, 0], [0, 0, 1]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz, ry, rx


class TestRotationFromEuler:
    def test_zero_angles_identity(self):
        np.testing.assert_allclose(rotation_from_euler(0, 0, 0), np.eye(3), atol=1e-15)

    def test_heading_quarter_turn(self):
        # Oracle: Rz(pi/2) @ [1,0,0] = [0,1,0] by elementary-matrix composition.
        rz, _, _ = elementary_rotations(math.pi / 2, 0, 0)
        expected = rz @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(expected, [0, 1, 0], atol=1e-15)
        result = rotation_from_euler(math.pi / 2, 0, 0) @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(result, expected, atol=1e-15)

    def test_pitch_quarter_turn(self):
        _, ry, _ = elementary_rotations(0, math.pi / 2, 0)
        expected = ry @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(expected, [0, 0, -1], atol=1e-15)
        result = rotation_from_euler(0, math.pi / 2, 0) @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(result, expected, atol=1e-15)

    @given(
        heading=st.floats(-math.pi, math.pi),
        pitch=st.floats(-math.pi / 2, math.pi / 2),
        roll=st.floats(-math.pi, math.pi),
    )
    def test_always_proper_rotation(self, heading, pitch, roll):
        r = rotation_from_euler(heading, pitch, roll)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    @given(
        heading=st.floats(-math.pi, math.pi),
        pitch=st.floats(-math.pi / 2, math.pi / 2),
        roll=st.floats(-math.pi, math.pi),
    )
    def test_matches_elementary_composition(self, heading, pitch, roll):
        rz, ry, rx = elementary_rotations(heading, pitch, roll)
        np.testing.assert_allclose(
            rotation_from_euler(heading, pitch, roll), rz @ ry @ rx, atol=1e-14
        )


class TestBuildObservation:
    def test_midpoint_identity_pose(self):
        o = build_observation(det(W / 2, H / 2), identity_pose(), obs_id=0)
        np.testing.assert_allclose(o.direction, [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(o.exposure, [0, 0, 0])

    def test_top_center_points_up(self):
        o = build_observation(det(W / 2, 0.0), identity_pose(), obs_id=1)
        np.testing.assert_allclose(o.direction, [0, 0, 1], atol=1e-12)

    def test_heading_rotates_forward_to_north(self):
        # Oracle: Rz(pi/2) sends the forward axis to +Y (elementary matrices).
        pose = CameraPose(frame_id=0, position=np.zeros(3), heading=math.pi / 2, pitch=0.0, roll=0.0)
        o = build_observation(det(W / 2, H / 2), pose, obs_id=2)
        rz, _, _ = elementary_rotations(math.pi / 2, 0, 0)
        np.testing.assert_allclose(o.direction, rz @ np.array([1.0, 0.0, 0.0]), atol=1e-12)

    def test_frame_mismatch_rejected(self):
        with pytest.raises(ValueError, match="frame"):
            build_observation(det(W / 2, H / 2, frame_id=3), identity_pose(frame_id=4), obs_id=0)

    def test_normalized_box_sizes_copied(self):
        o = build_observation(det(W / 2, H / 2, box=(80.0, 100.0)), identity_pose(), obs_id=0)
        assert o.box_w_norm == pytest.approx(80.0 / W)
        assert o.box_h_norm == pytest.approx(100.0 / H)

    @given(
        cx=st.floats(0, W),
        cy=st.floats(1.0, H - 1.0),
        heading=st.floats(-math.pi, math.pi),
        pitch=st.floats(-0.5, 0.5),
        roll=st.floats(-0.5, 0.5),
    )
    def test_direction_always_unit(self, cx, cy, heading, pitch, roll):
        pose = CameraPose(frame_id=0, position=np.array([1.0, -2.0, 3.0]),
                          heading=heading, pitch=pitch, roll=roll)
        o = build_observation(det(cx, cy), pose, obs_id=0)
        assert abs(np.linalg.norm(o.direction) - 1.0) <= 1e-9


def scalar_lift(det: Detection2D, pose: CameraPose) -> np.ndarray:
    """World direction of one detection in scalar math (test oracle)."""
    azimuth = det.center_x / det.image_w * 2.0 * math.pi - math.pi
    elevation = (1.0 - det.center_y / det.image_h) * math.pi - math.pi / 2.0
    d_camera = np.array([math.cos(elevation) * math.cos(azimuth),
                         math.cos(elevation) * math.sin(azimuth), math.sin(elevation)])
    rz, ry, rx = elementary_rotations(pose.heading, pose.pitch, pose.roll)
    d = rz @ (ry @ (rx @ d_camera))
    return d / math.sqrt(float(d @ d))


angles = st.floats(-math.pi, math.pi)


class TestLiftDetections:
    @given(
        poses=st.lists(st.tuples(angles, angles, angles, st.floats(-1e3, 1e3)), min_size=1, max_size=4),
        pixels=st.lists(st.tuples(st.floats(0, W), st.floats(0, H), st.integers(0, 3)), max_size=12),
        first_id=st.integers(0, 10**6),
    )
    def test_agrees_with_the_scalar_lift(self, poses, pixels, first_id):
        cameras = [CameraPose(frame_id=10 + k, position=np.array([x, -x, 2.5]), heading=h, pitch=p,
                              roll=r) for k, (h, p, r, x) in enumerate(poses)]
        pose_of = [k % len(cameras) for _, _, k in pixels]
        dets = [det(cx, cy, frame_id=cameras[k].frame_id, category=f"c{k}")
                for (cx, cy, _), k in zip(pixels, pose_of)]
        table = lift_detections(DetectionTable.from_detections(dets), cameras, np.array(pose_of, dtype=int),
                                first_id)
        assert len(table) == len(dets)
        assert table.obs_id.tolist() == list(range(first_id, first_id + len(dets)))
        assert table.frame_id.tolist() == [d.frame_id for d in dets]
        assert table.category.tolist() == [d.category for d in dets]
        for row, (d, k) in enumerate(zip(dets, pose_of)):
            np.testing.assert_allclose(table.direction[row], scalar_lift(d, cameras[k]), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(table.exposure[row], cameras[k].position)
            assert (table.box_w_norm[row], table.box_h_norm[row]) == (d.box_w / W, d.box_h / H)

    def test_no_detections(self):
        table = lift_detections(DetectionTable.from_detections([]), [identity_pose()], np.zeros(0, dtype=int))
        assert len(table) == 0 and table.direction.shape == (0, 3) and table.exposure.shape == (0, 3)

    def test_build_observation_is_the_one_row_case(self):
        pose = CameraPose(frame_id=2, position=np.array([1.0, 2.0, 3.0]), heading=0.3, pitch=-0.1, roll=0.05)
        d = det(1000.0, 700.0, frame_id=2)
        one = build_observation(d, pose, obs_id=7)
        row = lift_detections(DetectionTable.from_detections([d]), [pose], np.zeros(1, dtype=int), 7)
        assert (one.obs_id, one.frame_id, one.category) == (7, 2, "sign")
        np.testing.assert_array_equal(one.direction, row.direction[0])
        np.testing.assert_array_equal(one.exposure, row.exposure[0])


@st.composite
def detection_rows(draw):
    """(cx, cy, w, h, image_w, image_h, confidence): a valid detection with up
    to two fields set to the edge of a rule, or past it."""
    image_w, image_h = draw(st.sampled_from([1.0, 4096.0, 1e300])), draw(st.sampled_from([1.0, 2048.0]))
    row = [draw(st.floats(0, image_w)), draw(st.floats(0, image_h)), draw(st.floats(5e-324, image_w)),
           draw(st.floats(5e-324, image_h)), image_w, image_h, draw(st.floats(0, 1))]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, math.nextafter(1.0, 2.0), image_w, image_h,
             math.nextafter(image_w, math.inf), math.nextafter(image_h, math.inf), math.nan, math.inf, -math.inf]
    for field in draw(st.sets(st.integers(0, 6), max_size=2)):
        row[field] = draw(st.sampled_from(edges))
    return tuple(row)


class TestDetectionTableValid:
    @given(st.lists(detection_rows(), min_size=1, max_size=8))
    def test_accepts_exactly_what_detection2d_accepts(self, rows):
        def accepted(cx, cy, w, h, image_w, image_h, confidence):
            try:
                Detection2D(frame_id=0, center_x=cx, center_y=cy, box_w=w, box_h=h, image_w=image_w,
                            image_h=image_h, category="sign", confidence=confidence)
            except ValueError:
                return False
            return True

        columns = np.array(rows, dtype=float).T
        table = DetectionTable(
            np.zeros(len(rows), dtype=np.int64), *columns[:6], np.full(len(rows), "sign", dtype=object),
            columns[6])
        assert table.valid().tolist() == [accepted(*row) for row in rows]


class TestValidation:
    def test_observation_requires_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            Observation(
                obs_id=0, frame_id=0, category="sign",
                exposure=np.zeros(3), direction=np.array([1.0, 1.0, 0.0]),
                box_w_norm=0.1, box_h_norm=0.1,
            )

    def test_pose_requires_finite_angles(self):
        with pytest.raises(ValueError):
            CameraPose(frame_id=0, position=np.zeros(3), heading=float("nan"), pitch=0.0, roll=0.0)

    def test_detection_center_outside_image_rejected(self):
        with pytest.raises(ValueError):
            det(-1.0, H / 2)

    @pytest.mark.parametrize(
        "exposure, direction",
        [
            ([0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]),
            ([0.0, 0.0, 0.0], [math.inf, 0.0, 0.0]),
            ([math.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
            ([0.0, -math.inf, 0.0], [1.0, 0.0, 0.0]),
        ],
    )
    def test_observation_requires_finite_vectors(self, exposure, direction):
        with pytest.raises(ValueError):
            Observation(
                obs_id=0, frame_id=0, category="sign",
                exposure=np.array(exposure), direction=np.array(direction),
                box_w_norm=0.1, box_h_norm=0.1,
            )

    @pytest.mark.parametrize("size", [math.nan, math.inf, 0.0, 1.5])
    def test_observation_requires_box_sizes_in_unit_interval(self, size):
        with pytest.raises(ValueError, match="box sizes"):
            Observation(
                obs_id=0, frame_id=0, category="sign",
                exposure=np.zeros(3), direction=np.array([1.0, 0.0, 0.0]),
                box_w_norm=size, box_h_norm=0.1,
            )

    @pytest.mark.parametrize(
        "box", [(W + 10.0, 60.0), (40.0, H + 1.0), (math.nan, 60.0), (40.0, math.inf), (5e-324, 60.0)]
    )
    def test_detection_box_must_be_finite_and_fit_image(self, box):
        with pytest.raises(ValueError, match="box"):
            det(W / 2, H / 2, box=box)

    def test_detection_box_filling_image_accepted(self):
        assert det(W / 2, H / 2, box=(W, H)).box_w == W

    @pytest.mark.parametrize("image_w", [math.nan, math.inf])
    def test_detection_image_size_must_be_finite(self, image_w):
        with pytest.raises(ValueError, match="image dimensions"):
            Detection2D(
                frame_id=0, center_x=1.0, center_y=1.0, box_w=1.0, box_h=1.0,
                image_w=image_w, image_h=H, category="sign",
            )
