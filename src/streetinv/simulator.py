"""Synthetic street scenes with ground truth.

Scenes are a camera trajectory down a street and a set of fixed objects
with categories and physical heights. Each object visible from a frame
yields an observation whose ray points exactly at the object center before
noise: the direction is then perturbed by a small random rotation, the
recorded exposure position by Gaussian noise, and observations may be
dropped or joined by clutter detections. Everything is a pure function of
the scene spec, including its seed.

The order of random draws is part of that contract: per pose, the pose
noise is drawn first, then each object in range is visited in ascending
object index (its drop draw, then its angle and axis draws), then the
clutter. A faster candidate search must return the same objects in the
same order, or every later draw changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .geometry import CameraPose, Detection2D, Observation, rotation_from_euler

__all__ = [
    "SceneObject",
    "SceneSpec",
    "GroundTruth",
    "straight_trajectory",
    "default_scene_spec",
    "generate_scene",
    "export_scene",
]

DEFAULT_CATEGORIES = ("street_light", "traffic_sign", "signal_light", "trash_bin", "bollard")

# Category -> (center height above ground, physical height) in meters.
_CATEGORY_GEOMETRY = {
    "street_light": (6.0, 8.0),
    "traffic_sign": (2.5, 1.0),
    "signal_light": (4.0, 1.2),
    "trash_bin": (0.6, 1.1),
    "bollard": (0.5, 0.9),
}

# Minimum distance between two objects of the same category, meters.
# Mirrors real street furniture cadence (lights repeat every block,
# bins and bollards pack denser).
_CATEGORY_SEPARATION = {
    "street_light": 28.0,
    "traffic_sign": 15.0,
    "signal_light": 25.0,
    "trash_bin": 12.0,
    "bollard": 9.0,
}

# Synthetic panorama raster used when exporting scenes to detection files.
EXPORT_IMAGE_W = 4096
EXPORT_IMAGE_H = 2048


@dataclass(eq=False)
class SceneObject:
    """A physical object: category, 3D center, and physical height."""

    category: str
    center: np.ndarray
    height: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        if not np.isfinite(self.center).all():
            raise ValueError("center must be finite")
        if not (0.0 < self.height < math.inf):
            raise ValueError("height must be positive and finite")


@dataclass(eq=False)
class SceneSpec:
    """Full description of a synthetic scene, noise model included."""

    trajectory: list[CameraPose]
    objects: list[SceneObject]
    direction_noise: float = 0.0  # radians, std of the ray perturbation angle
    pose_noise: float = 0.0  # meters, std per axis of the recorded position
    drop_prob: float = 0.0
    clutter_rate: float = 0.0  # expected false detections per frame
    max_range: float = 32.0  # meters; objects beyond this are not detected
    seed: int = 0

    def __post_init__(self):
        # Written so that NaN fails each check too.
        if not (self.direction_noise >= 0 and self.pose_noise >= 0):
            raise ValueError("noise sigmas must be nonnegative")
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ValueError("drop_prob must lie in [0, 1]")
        if not self.clutter_rate >= 0:
            raise ValueError("clutter_rate must be nonnegative")
        if not 0 < self.max_range < math.inf:
            raise ValueError(f"max_range must be positive and finite, got {self.max_range}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be 0 or more, got {self.seed}")


@dataclass(eq=False)
class GroundTruth:
    """What actually generated the observations.

    object_of maps each observation id in obs_ids to the index of its true
    object in `objects`, or to None for clutter, which belongs to no
    object and is the same object as no other observation.
    """

    objects: list[SceneObject]
    obs_ids: list[int]
    object_of: dict[int, int | None]


def straight_trajectory(
    n_frames: int,
    spacing: float,
    start=(0.0, 0.0, 2.5),
    heading: float = 0.0,
) -> list[CameraPose]:
    """Equally spaced poses along a straight street, facing travel direction."""
    if n_frames < 1 or spacing <= 0:
        raise ValueError("need at least one frame and positive spacing")
    start = np.asarray(start, dtype=float)
    step = np.array([math.cos(heading), math.sin(heading), 0.0]) * spacing
    return [
        CameraPose(frame_id=i, position=start + i * step, heading=heading, pitch=0.0, roll=0.0)
        for i in range(n_frames)
    ]


def default_scene_spec(
    seed: int = 0,
    n_objects: int | None = None,
    street_length: float = 200.0,
    frame_spacing: float = 10.0,
    direction_noise: float = math.radians(0.2),
    pose_noise: float = 0.02,
    drop_prob: float = 0.0,
    clutter_rate: float = 0.0,
    min_separation: float = 2.5,
) -> SceneSpec:
    """Desk-scale default scene: a 200 m street with mixed street furniture.

    Objects land on both sides of the street, keeping the per-category
    cadence of real furniture (same-category spacing from
    _CATEGORY_SEPARATION, `min_separation` across categories) so purely
    geometric association stays unambiguous. A street length, frame
    spacing or `min_separation` that is not positive and finite, fewer
    than one object, or a negative seed is a ValueError.
    """
    if not seed >= 0:
        raise ValueError(f"seed must be 0 or more, got {seed}")
    if not 0 < street_length < math.inf:
        raise ValueError(f"street_length must be positive and finite, got {street_length}")
    if not 0 < frame_spacing < math.inf:
        raise ValueError(f"frame_spacing must be positive and finite, got {frame_spacing}")
    if n_objects is not None and n_objects < 1:
        raise ValueError(f"n_objects must be at least 1, got {n_objects}")
    if not 0 < min_separation < math.inf:
        raise ValueError(f"min_separation must be positive and finite, got {min_separation}")
    rng = np.random.default_rng(seed)
    n_frames = int(street_length / frame_spacing) + 1
    trajectory = straight_trajectory(n_frames, frame_spacing)
    if n_objects is None:
        n_objects = int(rng.integers(20, 41))
    objects: list[SceneObject] = []
    # Grid hash of placed objects: (cell x, cell y) -> [(category, center)]. A cell is
    # a little wider than any separation, so every object close enough to reject a
    # candidate lies in the 3 x 3 cells around it, whatever the rounding of x / cell.
    cell = max(max(_CATEGORY_SEPARATION.values()), min_separation) * (1.0 + 1e-9)
    placed: dict[tuple[int, int], list[tuple[str, np.ndarray]]] = {}
    attempts = 0
    while len(objects) < n_objects:
        attempts += 1
        if attempts > 500 * n_objects:
            raise ValueError(
                f"could not place {n_objects} objects on a {street_length} m street "
                "with the requested separation"
            )
        category = DEFAULT_CATEGORIES[int(rng.integers(0, len(DEFAULT_CATEGORIES)))]
        z_center, height = _CATEGORY_GEOMETRY[category]
        x = rng.uniform(0.08 * street_length, 0.92 * street_length)
        side = 1.0 if rng.random() < 0.5 else -1.0
        y = side * rng.uniform(3.5, 13.0)
        z = z_center + rng.uniform(-0.2, 0.2)
        center = np.array([x, y, z])
        same_cat_sep = _CATEGORY_SEPARATION[category]
        cx, cy = math.floor(x / cell), math.floor(y / cell)
        if any(
            np.linalg.norm(center - placed_center)
            < (same_cat_sep if placed_cat == category else min_separation)
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
            for placed_cat, placed_center in placed.get((cx + i, cy + j), ())
        ):
            continue
        objects.append(SceneObject(category=category, center=center, height=height))
        placed.setdefault((cx, cy), []).append((category, center))
    return SceneSpec(
        trajectory=trajectory,
        objects=objects,
        direction_noise=direction_noise,
        pose_noise=pose_noise,
        drop_prob=drop_prob,
        clutter_rate=clutter_rate,
        seed=seed,
    )


def _perturb_direction(d: np.ndarray, angle_sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate `d` by a Gaussian angle about a random perpendicular axis."""
    angle = rng.normal(0.0, angle_sigma)
    raw = rng.normal(size=3)
    axis = raw - np.dot(raw, d) * d
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        return d
    axis /= norm
    # Rodrigues rotation; axis is perpendicular to d so the formula shortens.
    # The cross product axis x d is spelled out on floats: the same IEEE
    # operations as np.cross, without its overhead on 3-vectors.
    a0, a1, a2 = axis.tolist()
    d0, d1, d2 = d.tolist()
    cross = np.array([a1 * d2 - a2 * d1, a2 * d0 - a0 * d2, a0 * d1 - a1 * d0])
    return d * math.cos(angle) + cross * math.sin(angle)


def generate_scene(spec: SceneSpec) -> tuple[list[Observation], GroundTruth]:
    """Generate noisy observations and their ground truth for a scene."""
    if not spec.trajectory:
        raise ValueError("trajectory must not be empty")
    if not spec.objects:
        raise ValueError("object list must not be empty")
    rng = np.random.default_rng(spec.seed)
    categories = sorted({o.category for o in spec.objects})
    observations: list[Observation] = []
    object_of: dict[int, int | None] = {}
    obs_id = 0
    # Candidates per pose from one radius query, padded so the exact depth
    # test below sees every object in range; visited in index order.
    tree = cKDTree(np.array([o.center for o in spec.objects]))
    candidates = tree.query_ball_point(
        np.array([p.position for p in spec.trajectory]),
        r=spec.max_range * (1.0 + 1e-9),
        return_sorted=True,
    )
    for pose, near in zip(spec.trajectory, candidates):
        true_position = pose.position
        recorded = true_position + rng.normal(0.0, spec.pose_noise, size=3)
        for object_id in near:
            obj = spec.objects[object_id]
            delta = obj.center - true_position
            depth = float(np.linalg.norm(delta))
            if depth > spec.max_range or depth < 1e-9:
                continue
            if rng.random() < spec.drop_prob:
                continue
            direction = delta / depth
            if spec.direction_noise > 0:
                direction = _perturb_direction(direction, spec.direction_noise, rng)
                direction = direction / np.linalg.norm(direction)
            h_norm = min(1.0, obj.height / (depth * math.pi))
            w_norm = min(1.0, obj.height / (depth * 2.0 * math.pi))
            observations.append(
                Observation(
                    obs_id=obs_id,
                    frame_id=pose.frame_id,
                    category=obj.category,
                    exposure=recorded.copy(),
                    direction=direction,
                    box_w_norm=w_norm,
                    box_h_norm=h_norm,
                )
            )
            object_of[obs_id] = object_id
            obs_id += 1
        n_clutter = int(rng.poisson(spec.clutter_rate)) if spec.clutter_rate > 0 else 0
        for _ in range(n_clutter):
            azimuth = rng.uniform(-math.pi, math.pi)
            elevation = rng.uniform(-0.3, 0.5)
            ce = math.cos(elevation)
            direction = np.array(
                [ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)]
            )
            category = categories[int(rng.integers(0, len(categories)))]
            h_norm = rng.uniform(0.005, 0.08)
            observations.append(
                Observation(
                    obs_id=obs_id,
                    frame_id=pose.frame_id,
                    category=category,
                    exposure=recorded.copy(),
                    direction=direction,
                    box_w_norm=h_norm / 2.0,
                    box_h_norm=h_norm,
                )
            )
            object_of[obs_id] = None
            obs_id += 1
    truth = GroundTruth(
        objects=spec.objects,
        obs_ids=[o.obs_id for o in observations],
        object_of=object_of,
    )
    return observations, truth


def _direction_to_pixels(
    d_world: np.ndarray, rotation: np.ndarray, image_w: float, image_h: float
) -> tuple[float, float]:
    """Pixel center whose ray, lifted through the camera-to-world `rotation`, is `d_world`."""
    d_cam = rotation.T @ d_world
    azimuth = math.atan2(d_cam[1], d_cam[0])
    elevation = math.asin(max(-1.0, min(1.0, d_cam[2])))
    cx = (azimuth + math.pi) / (2.0 * math.pi) * image_w
    cy = (1.0 - (elevation + math.pi / 2.0) / math.pi) * image_h
    return cx, cy


def export_scene(
    spec: SceneSpec,
) -> tuple[list[CameraPose], list[Detection2D], list[Observation], GroundTruth]:
    """Generate a scene and its file-level records.

    Returns the recorded camera poses and pixel-space detections that,
    when ingested, rebuild the same observations (up to float round trip),
    along with the observations and ground truth themselves.
    """
    observations, truth = generate_scene(spec)
    # A frame's pose carries its recorded exposure; a frame with no observation keeps its true one.
    recorded = {o.frame_id: o.exposure for o in observations}
    poses = [
        replace(p, position=recorded.get(p.frame_id, p.position).copy())
        for p in sorted(spec.trajectory, key=lambda p: p.frame_id)
    ]
    rotation_of = {p.frame_id: rotation_from_euler(p.heading, p.pitch, p.roll) for p in poses}
    detections = []
    for o in observations:
        cx, cy = _direction_to_pixels(o.direction, rotation_of[o.frame_id], EXPORT_IMAGE_W, EXPORT_IMAGE_H)
        detections.append(
            Detection2D(
                frame_id=o.frame_id,
                center_x=cx,
                center_y=cy,
                box_w=o.box_w_norm * EXPORT_IMAGE_W,
                box_h=o.box_h_norm * EXPORT_IMAGE_H,
                image_w=EXPORT_IMAGE_W,
                image_h=EXPORT_IMAGE_H,
                category=o.category,
                confidence=1.0,
            )
        )
    return poses, detections, observations, truth
