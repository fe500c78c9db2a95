"""Lifting 2D panoramic detections into world-space viewing rays.

Coordinate conventions used throughout the package:

World frame (right-handed, metric):
  - x = East, y = North, z = Up. Units are meters.

Camera frame (right-handed):
  - x forward, y left, z up. Azimuth 0 / elevation 0 is the forward axis.

Image frame (equirectangular panorama):
  - origin top-left, u right, v down, units pixels.
  - u spans the full 360 degrees of azimuth, v spans 180 degrees of
    elevation (top row = zenith, bottom row = nadir).

Orientation is parameterized by heading / pitch / roll Euler angles,
composed as Rz(heading) @ Ry(pitch) @ Rx(roll), counterclockwise-positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CameraPose",
    "Detection2D",
    "Observation",
    "pixel_to_angles",
    "angles_to_camera_dir",
    "rotation_from_euler",
    "build_observation",
]


@dataclass(eq=False)
class CameraPose:
    """Exposure position and orientation of one panoramic frame.

    Attributes:
        frame_id: integer id of the frame.
        position: (3,) array, meters in the local East-North-Up frame.
        heading: rotation about the world Z axis, radians.
        pitch: rotation about the Y axis, radians.
        roll: rotation about the X axis, radians.
    """

    frame_id: int
    position: np.ndarray
    heading: float
    pitch: float
    roll: float

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (3,):
            raise ValueError(f"position must be a 3-vector, got shape {self.position.shape}")
        if not np.all(np.isfinite(self.position)):
            raise ValueError("position contains non-finite values")
        for name in ("heading", "pitch", "roll"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(eq=False)
class Detection2D:
    """One 2D detection in a panoramic image, center and box in pixels."""

    frame_id: int
    center_x: float
    center_y: float
    box_w: float
    box_h: float
    image_w: float
    image_h: float
    category: str
    confidence: float = 1.0

    def __post_init__(self):
        # Written as `not (inside)` so that NaN, which fails every
        # comparison, is rejected along with out-of-range values.
        if not (0.0 < self.image_w < math.inf and 0.0 < self.image_h < math.inf):
            raise ValueError(
                f"image dimensions must be positive and finite, got {self.image_w}x{self.image_h}"
            )
        if not (0.0 <= self.center_x <= self.image_w):
            raise ValueError(f"center_x={self.center_x} outside [0, {self.image_w}]")
        if not (0.0 <= self.center_y <= self.image_h):
            raise ValueError(f"center_y={self.center_y} outside [0, {self.image_h}]")
        if not (0.0 < self.box_w <= self.image_w and 0.0 < self.box_h <= self.image_h):
            raise ValueError(
                f"box {self.box_w}x{self.box_h} must be positive and fit its "
                f"{self.image_w}x{self.image_h} image"
            )
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence={self.confidence} outside [0, 1]")


@dataclass(eq=False)
class Observation:
    """A detection lifted to a world-space viewing ray.

    Attributes:
        obs_id: globally unique integer id.
        frame_id: frame the detection came from.
        category: semantic category label.
        exposure: (3,) camera position in meters (ray origin).
        direction: (3,) unit vector from the exposure toward the object.
        box_w_norm: detection box width divided by image width, in (0, 1].
        box_h_norm: detection box height divided by image height, in (0, 1].
    """

    obs_id: int
    frame_id: int
    category: str
    exposure: np.ndarray
    direction: np.ndarray
    box_w_norm: float
    box_h_norm: float

    def __post_init__(self):
        self.exposure = np.asarray(self.exposure, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        if self.exposure.shape != (3,) or self.direction.shape != (3,):
            raise ValueError("exposure and direction must be 3-vectors")
        if not np.isfinite(self.exposure).all():
            raise ValueError("exposure must be finite")
        norm = float(np.linalg.norm(self.direction))
        if not abs(norm - 1.0) <= 1e-9:  # a NaN or infinite norm fails too
            raise ValueError(f"direction must be a unit vector, |d|={norm}")
        # Chained comparisons are False for NaN, so non-finite sizes fail.
        if not (0.0 < self.box_w_norm <= 1.0) or not (0.0 < self.box_h_norm <= 1.0):
            raise ValueError("normalized box sizes must lie in (0, 1]")


def pixel_to_angles(det: Detection2D) -> tuple[float, float]:
    """Map an equirectangular detection center to viewing angles.

    Azimuth sweeps [-pi, pi] left to right across the image; elevation
    sweeps [pi/2, -pi/2] top to bottom (top row is the zenith).

    Returns:
        (azimuth, elevation) in radians.
    """
    azimuth = (det.center_x / det.image_w) * 2.0 * math.pi - math.pi
    elevation = (1.0 - det.center_y / det.image_h) * math.pi - math.pi / 2.0
    return azimuth, elevation


def angles_to_camera_dir(azimuth: float, elevation: float) -> np.ndarray:
    """Unit direction in the camera frame for given azimuth/elevation.

    Camera frame is x forward, y left, z up, so (0, 0) maps to [1, 0, 0].
    """
    ce = math.cos(elevation)
    return np.array([ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)])


def rotation_from_euler(heading: float, pitch: float, roll: float) -> np.ndarray:
    """Camera-to-world rotation matrix Rz(heading) @ Ry(pitch) @ Rx(roll).

    All three elementary rotations are right-handed with counterclockwise-
    positive angles. The result is orthonormal with determinant +1.
    """
    ch, sh = math.cos(heading), math.sin(heading)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[ch, -sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def build_observation(det: Detection2D, pose: CameraPose, obs_id: int) -> Observation:
    """Lift a detection into a world-space observation ray.

    The detection center is converted to camera-frame angles, rotated into
    the world frame by the pose's Euler rotation, and normalized.

    Raises:
        ValueError: if the detection and pose frame ids disagree.
    """
    if det.frame_id != pose.frame_id:
        raise ValueError(
            f"frame mismatch: detection is from frame {det.frame_id}, pose is frame {pose.frame_id}"
        )
    azimuth, elevation = pixel_to_angles(det)
    d_camera = angles_to_camera_dir(azimuth, elevation)
    r = rotation_from_euler(pose.heading, pose.pitch, pose.roll)
    d_world = r @ d_camera
    d_world = d_world / np.linalg.norm(d_world)
    return Observation(
        obs_id=obs_id,
        frame_id=det.frame_id,
        category=det.category,
        exposure=pose.position.copy(),
        direction=d_world,
        box_w_norm=det.box_w / det.image_w,
        box_h_norm=det.box_h / det.image_h,
    )
