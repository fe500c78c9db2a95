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
one row per record. Each kind's rules are written once, in
`DETECTION_RULES` and `OBSERVATION_RULES`: a record raises the first one
it fails, and a reader tests each one on every row of a table at once.
The simulator makes its records from a table in the same way: `records()`
tests each rule once on the whole table, then builds the rows' records
without checking each one again.
`lift_detections` lifts a whole detection table in one array pass;
`build_observation` is its one-detection case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from types import SimpleNamespace

import numpy as np

__all__ = [
    "CameraPose",
    "Detection2D",
    "Observation",
    "DetectionTable",
    "ObservationTable",
    "DETECTION_RULES",
    "OBSERVATION_RULES",
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
        _check_record(self, DETECTION_RULES)


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
        _check_record(self, OBSERVATION_RULES)


# Each record kind's rules, in the order a record is checked: (holds,
# message). `holds` takes a record, or a table of them, and says whether
# the rule holds: one bool for a record, one per row for a table. Each test
# states what lies inside its range, so NaN, which fails every comparison,
# fails it. `message` describes a record that fails the rule.
DETECTION_RULES = (
    (lambda d: (0.0 < d.image_w) & (d.image_w < math.inf) & (0.0 < d.image_h) & (d.image_h < math.inf),
     lambda d: f"image dimensions must be positive and finite, got {d.image_w}x{d.image_h}"),
    (lambda d: (0.0 <= d.center_x) & (d.center_x <= d.image_w),
     lambda d: f"center_x={d.center_x} outside [0, {d.image_w}]"),
    (lambda d: (0.0 <= d.center_y) & (d.center_y <= d.image_h),
     lambda d: f"center_y={d.center_y} outside [0, {d.image_h}]"),
    # Positive as a fraction of the image: a subnormal width such as
    # 5e-324 px divided by 4096 is 0.
    (lambda d: (0.0 < d.box_w / d.image_w) & (d.box_w <= d.image_w)
     & (0.0 < d.box_h / d.image_h) & (d.box_h <= d.image_h),
     lambda d: f"box {d.box_w}x{d.box_h} must be positive and fit its {d.image_w}x{d.image_h} image"),
    (lambda d: (0.0 <= d.confidence) & (d.confidence <= 1.0),
     lambda d: f"confidence={d.confidence} outside [0, 1]"),
)

OBSERVATION_RULES = (
    (lambda o: np.isfinite(o.exposure).all(axis=-1), lambda o: "exposure must be finite"),
    # hypot does not overflow; a NaN or infinite norm fails.
    (lambda o: abs(np.hypot.reduce(o.direction, axis=-1) - 1.0) <= 1e-9,
     lambda o: f"direction must be a unit vector, |d|={float(np.hypot.reduce(o.direction, axis=-1))}"),
    (lambda o: (0.0 < o.box_w_norm) & (o.box_w_norm <= 1.0) & (0.0 < o.box_h_norm) & (o.box_h_norm <= 1.0),
     lambda o: "normalized box sizes must lie in (0, 1]"),
)


def _check_record(record, rules) -> None:
    """Raise the ValueError of the first of `rules` that `record` fails."""
    for holds, message in rules:
        if not holds(record):
            raise ValueError(message(record))


def _checked_rows(table, record_type, rules, vectors=()):
    """The rows of `table` as values for `record_type`, after one check of the whole table.

    Each of `rules` is tested once, on every row. A table that fails one
    raises the ValueError that building its records one at a time would
    raise first: the first failing row's first failing rule. So does a
    table whose `vectors` columns are not (n, 3). Each row is a tuple in
    `record_type`'s field order: Python scalars, and a (3,) float view of
    each vector column's row.
    """
    n = len(table)
    if any(getattr(table, name).shape != (n, 3) for name in vectors):
        raise ValueError(f"{' and '.join(vectors)} must be 3-vectors")
    names = [f.name for f in fields(record_type)]
    columns = [list(np.asarray(getattr(table, name), dtype=float)) if name in vectors
               else getattr(table, name).tolist() for name in names]
    # A row that fails one rule may divide by 0 or NaN in another; quietly.
    with np.errstate(all="ignore"):
        fails = [~holds(table) for holds, _ in rules]
    bad = np.flatnonzero(np.logical_or.reduce(fails))
    if bad.size:
        row = bad[0]
        message = next(message for (_, message), fail in zip(rules, fails) if fail[row])
        raise ValueError(message(SimpleNamespace(**{name: column[row] for name, column in zip(names, columns)})))
    return zip(*columns)


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Detections as columns, one row per detection, named as in `Detection2D`.

    Attributes:
        frame_id: (n,) integer frame ids.
        center_x, center_y, box_w, box_h, image_w, image_h,
        confidence: (n,) floats; an integer column of image sizes gives
            its records `int` sizes, as `Detection2D` keeps what it is given.
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

    def records(self) -> list[Detection2D]:
        """Each row as a `Detection2D`, the inverse of `from_detections`.

        Raises:
            ValueError: the error of the first row `Detection2D` refuses.
        """
        records = []
        for row in _checked_rows(self, Detection2D, DETECTION_RULES):
            # Checked with the table, so no __post_init__; assigned in field order, so
            # every record shares one attribute key table.
            d = Detection2D.__new__(Detection2D)
            d.frame_id, d.center_x, d.center_y, d.box_w, d.box_h, d.image_w, d.image_h, d.category, d.confidence = row
            records.append(d)
        return records

    def __len__(self) -> int:
        return len(self.frame_id)


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
        # Every exposure, then every direction, in one array; the empty `()`
        # keeps np.concatenate from refusing a list of no records.
        rays = np.concatenate([*(o.exposure for o in observations), *(o.direction for o in observations), ()],
                              dtype=float).reshape(2, -1, 3)
        table = cls(
            obs_id=np.array([o.obs_id for o in observations], dtype=np.int64),
            frame_id=np.array([o.frame_id for o in observations], dtype=np.int64),
            category=np.array([o.category for o in observations], dtype=object),
            exposure=rays[0],
            direction=rays[1],
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

    def records(self) -> list[Observation]:
        """Each row as an `Observation`, the inverse of `from_observations`.

        Raises:
            ValueError: the error of the first row `Observation` refuses.
        """
        records = []
        for row in _checked_rows(self, Observation, OBSERVATION_RULES, vectors=("exposure", "direction")):
            # Checked with the table, so no __post_init__; assigned in field order, so
            # every record shares one attribute key table.
            o = Observation.__new__(Observation)
            o.obs_id, o.frame_id, o.category, o.exposure, o.direction, o.box_w_norm, o.box_h_norm = row
            records.append(o)
        return records

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

    @cached_property
    def category_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The category names, sorted, and each row's index into them.

        A table made by `take` has the names of the table it was taken
        from, which may include categories none of its rows has.
        """
        labels = self.category.tolist()
        names = sorted(set(labels))
        code = dict(zip(names, range(len(names))))
        return np.array(names, dtype=object), np.fromiter(map(code.__getitem__, labels), dtype=np.intp,
                                                          count=len(labels))

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
        """The sub-table of `rows` (an index array or boolean mask), in their order.

        It takes this table's category codes with the rows, so the codes
        are computed once for a table and all the tables taken from it.
        """
        taken = ObservationTable(*(getattr(self, f.name)[rows] for f in fields(self)))
        names, codes = self.category_codes
        taken.__dict__["category_codes"] = (names, codes[rows])  # what cached_property stores
        return taken


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
