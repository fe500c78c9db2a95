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

A `Detection2D` and an `Observation` are one detection and one lifted
ray as records, the form the simulator deals in. Files are read into, and
the pipeline reads, columns: a `DetectionTable` and an `ObservationTable`,
one row per record. `lift_detections` lifts a whole detection table in one
array pass; `build_observation` is its one-detection case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "CameraPose",
    "Detection2D",
    "Observation",
    "DetectionTable",
    "ObservationTable",
    "pixel_to_angles",
    "angles_to_camera_dir",
    "rotation_from_euler",
    "lift_detections",
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
        # Positive as a fraction of the image: a subnormal width such as
        # 5e-324 px divided by 4096 is 0.
        if not (
            0.0 < self.box_w / self.image_w
            and self.box_w <= self.image_w
            and 0.0 < self.box_h / self.image_h
            and self.box_h <= self.image_h
        ):
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


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Detections as columns, one row per detection, named as in `Detection2D`.

    Attributes:
        frame_id: (n,) integer frame ids.
        center_x, center_y, box_w, box_h, image_w, image_h,
        confidence: (n,) floats.
        category: (n,) category labels, Python strings.
    """

    frame_id: np.ndarray
    center_x: np.ndarray
    center_y: np.ndarray
    box_w: np.ndarray
    box_h: np.ndarray
    image_w: np.ndarray
    image_h: np.ndarray
    category: np.ndarray
    confidence: np.ndarray

    @classmethod
    def from_detections(cls, detections: list[Detection2D]) -> "DetectionTable":
        """Stack records that each validated their own detection."""
        dtypes = {"frame_id": np.int64, "category": object}
        return cls(**{
            f.name: np.array([getattr(d, f.name) for d in detections], dtype=dtypes.get(f.name, float))
            for f in fields(cls)
        })

    def __len__(self) -> int:
        return len(self.frame_id)

    def valid(self) -> np.ndarray:
        """Row mask of the detections `Detection2D` accepts: its rules, as array tests."""
        image_w, image_h = self.image_w, self.image_h
        # A row whose image size fails divides by 0, inf or NaN; quietly.
        with np.errstate(all="ignore"):
            return (
                (0.0 < image_w) & (image_w < math.inf) & (0.0 < image_h) & (image_h < math.inf)
                & (0.0 <= self.center_x) & (self.center_x <= image_w)
                & (0.0 <= self.center_y) & (self.center_y <= image_h)
                & (0.0 < self.box_w / image_w) & (self.box_w <= image_w)
                & (0.0 < self.box_h / image_h) & (self.box_h <= image_h)
                & (0.0 <= self.confidence) & (self.confidence <= 1.0)
            )


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Validated observations as columns, one row per observation.

    Attributes:
        obs_id: (n,) integer ids, unique.
        frame_id: (n,) integer frame ids.
        category: (n,) category labels, Python strings.
        exposure: (n, 3) ray origins in meters.
        direction: (n, 3) unit ray directions.
        box_w_norm: (n,) normalized box widths.
        box_h_norm: (n,) normalized box heights.
    """

    obs_id: np.ndarray
    frame_id: np.ndarray
    category: np.ndarray
    exposure: np.ndarray
    direction: np.ndarray
    box_w_norm: np.ndarray
    box_h_norm: np.ndarray

    @classmethod
    def from_observations(cls, observations: list[Observation]) -> "ObservationTable":
        """Stack records that each validated their own ray.

        Raises:
            ValueError: if two observations share an obs_id.
        """
        table = cls(
            obs_id=np.array([o.obs_id for o in observations], dtype=np.int64),
            frame_id=np.array([o.frame_id for o in observations], dtype=np.int64),
            category=np.array([o.category for o in observations], dtype=object),
            exposure=np.array([o.exposure for o in observations], dtype=float).reshape(-1, 3),
            direction=np.array([o.direction for o in observations], dtype=float).reshape(-1, 3),
            box_w_norm=np.array([o.box_w_norm for o in observations], dtype=float),
            box_h_norm=np.array([o.box_h_norm for o in observations], dtype=float),
        )
        repeated = table.repeated_ids()
        if repeated.size:
            raise ValueError(f"duplicate observation ids: {repeated[:5].tolist()}")
        return table

    @classmethod
    def of(cls, observations: "ObservationTable | list[Observation]") -> "ObservationTable":
        """`observations` if it is a table, else the table of the records."""
        if isinstance(observations, cls):
            return observations
        return cls.from_observations(observations)

    def __len__(self) -> int:
        return len(self.obs_id)

    def repeated_ids(self) -> np.ndarray:
        """Each id held by more than one row, once per extra row, ascending."""
        _, sorted_ids = self._index
        return sorted_ids[1:][np.diff(sorted_ids) == 0]

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """The row order that sorts the ids, and the sorted ids."""
        order = np.argsort(self.obs_id, kind="stable")
        return order, self.obs_id[order]

    def rows(self, obs_ids) -> np.ndarray:
        """Row index of each id in the sequence `obs_ids`, in its order.

        Raises:
            KeyError: if an id is not in the table.
        """
        order, sorted_ids = self._index
        ids = np.asarray(obs_ids, dtype=np.int64)
        at = np.searchsorted(sorted_ids, ids)
        known = at < len(sorted_ids)
        known[known] = sorted_ids[at[known]] == ids[known]
        if not known.all():
            raise KeyError(f"unknown observation {int(ids[~known][0])}")
        return order[at]

    def take(self, rows) -> "ObservationTable":
        """The sub-table of `rows` (an index array or boolean mask), in their order."""
        return ObservationTable(*(getattr(self, f.name)[rows] for f in fields(self)))


def pixel_to_angles(det: Detection2D | DetectionTable) -> tuple:
    """Map equirectangular detection centers to viewing angles.

    Azimuth sweeps [-pi, pi] left to right across the image; elevation
    sweeps [pi/2, -pi/2] top to bottom (top row is the zenith). Takes one
    detection or a table of them.

    Returns:
        (azimuth, elevation) in radians: floats, or arrays of one per row.
    """
    azimuth = (det.center_x / det.image_w) * 2.0 * math.pi - math.pi
    elevation = (1.0 - det.center_y / det.image_h) * math.pi - math.pi / 2.0
    return azimuth, elevation


def angles_to_camera_dir(azimuth, elevation) -> np.ndarray:
    """Unit directions in the camera frame for given azimuths/elevations.

    Camera frame is x forward, y left, z up, so (0, 0) maps to [1, 0, 0].
    Scalars give a (3,) vector, arrays of shape s give shape s + (3,).
    """
    ce = np.cos(elevation)
    return np.stack([ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)], axis=-1)


def rotation_from_euler(heading, pitch, roll) -> np.ndarray:
    """Camera-to-world rotation matrices Rz(heading) @ Ry(pitch) @ Rx(roll).

    All three elementary rotations are right-handed with counterclockwise-
    positive angles. Each result is orthonormal with determinant +1.
    Scalars give a (3, 3) matrix, arrays of shape s give shape s + (3, 3).
    """
    ch, sh = np.cos(heading), np.sin(heading)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    rows = [
        [ch * cp, ch * sp * sr - sh * cr, ch * sp * cr + sh * sr],
        [sh * cp, sh * sp * sr + ch * cr, sh * sp * cr - ch * sr],
        [-sp, cp * sr, cp * cr],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def lift_detections(
    detections: DetectionTable, poses: list[CameraPose], pose_of: np.ndarray, first_id: int = 0
) -> ObservationTable:
    """Lift every detection into a world-space ray, in one array pass.

    Detection row i is seen from `poses[pose_of[i]]` and becomes row i of
    the table, with observation id `first_id + i`. Its center is converted
    to camera-frame angles, rotated into the world frame by its pose's
    Euler rotation (one per pose, gathered per detection), and normalized.
    """
    pose_of = np.asarray(pose_of, dtype=np.intp)
    angles = np.array([(p.heading, p.pitch, p.roll) for p in poses], dtype=float).reshape(-1, 3)
    positions = np.array([p.position for p in poses], dtype=float).reshape(-1, 3)
    rotations = rotation_from_euler(angles[:, 0], angles[:, 1], angles[:, 2])
    d_camera = angles_to_camera_dir(*pixel_to_angles(detections))
    d_world = np.einsum("nij,nj->ni", rotations[pose_of], d_camera).reshape(-1, 3)
    d_world /= np.linalg.norm(d_world, axis=1, keepdims=True)
    return ObservationTable(
        obs_id=first_id + np.arange(len(detections), dtype=np.int64),
        frame_id=detections.frame_id,
        category=detections.category,
        exposure=positions[pose_of],
        direction=d_world,
        box_w_norm=detections.box_w / detections.image_w,
        box_h_norm=detections.box_h / detections.image_h,
    )


def build_observation(det: Detection2D, pose: CameraPose, obs_id: int) -> Observation:
    """Lift one detection into a world-space observation ray: the
    one-detection case of `lift_detections`.

    Raises:
        ValueError: if the detection and pose frame ids disagree.
    """
    if det.frame_id != pose.frame_id:
        raise ValueError(
            f"frame mismatch: detection is from frame {det.frame_id}, pose is frame {pose.frame_id}"
        )
    row = lift_detections(DetectionTable.from_detections([det]), [pose], np.zeros(1), obs_id)
    return Observation(
        obs_id=obs_id,
        frame_id=det.frame_id,
        category=det.category,
        exposure=row.exposure[0],
        direction=row.direction[0],
        box_w_norm=float(row.box_w_norm[0]),
        box_h_norm=float(row.box_h_norm[0]),
    )
