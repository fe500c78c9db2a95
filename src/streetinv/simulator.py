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
object index (its drop draw, then one 4-draw turn call), then the
clutter. A faster candidate search must return the same objects in the
same order, or every later draw changes. The turn call is
`standard_normal(4)`: the same four draws, in the same order, as the
angle's `normal(0.0, sigma)` and the axis's `normal(size=3)`, which NumPy
computes as `loc + scale * z`; the angle is `0.0 + sigma * z[0]` and the
axis `0.0 + 1.0 * z[1:]`, the same floats.

`default_scene_spec` places objects one draw at a time against a grid
hash of those placed, held in plain Python floats. A candidate is too
close to a neighbour when `np.sqrt(np.vecdot(gap, gap)) < limit`. The
float sum `dx*dx + dy*dy + dz*dz` can differ from `ddot`'s by a few ulps,
so it decides only outside a tie band, a relative 1e-12 around `limit**2`
(`_tie_band`); a squared gap inside the band is decided by that `vecdot`
expression on its one gap. The centers are stacked into one array once
every object is placed.

`generate_scene` runs the draw loop first and the array passes after. The
loop over poses only draws, in that order, and collects the draws; the
depths, perturbed directions, box sizes and clutter rays are computed over
all rows at once into one `ObservationTable`, checked once as a table, and
its rows become the records (`ObservationTable.records`); `export_scene`
makes its detections from a `DetectionTable` the same way. The array passes
repeat the per-record arithmetic operation for operation, so every float
is unchanged. A norm is `np.sqrt(np.vecdot(v, v))`: `vecdot` calls the
same BLAS `ddot` per row as `np.linalg.norm` on one vector, while a
spelled-out `x*x + y*y + z*z`, `norm(axis=1)` or `einsum` can round
differently where `ddot` fuses multiply-adds. `vecdot` is new in NumPy
2.0, which is why the package requires it. Cosines, sines and pixel
angles stay `math` calls.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    CameraPose,
    Detection2D,
    DetectionTable,
    Observation,
    ObservationTable,
    rotation_from_euler,
)

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
    spacing or `min_separation` that is not positive and finite, a street
    length over frame spacing that overflows, fewer than one object, or a
    negative seed is a ValueError.
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
    if not street_length / frame_spacing < math.inf:
        raise ValueError(
            f"street_length / frame_spacing must be finite, got {street_length} / {frame_spacing}"
        )
    rng = np.random.default_rng(seed)
    n_frames = int(street_length / frame_spacing) + 1
    trajectory = straight_trajectory(n_frames, frame_spacing)
    if n_objects is None:
        n_objects = int(rng.integers(20, 41))
    # Grid hash of placed objects: (cell x, cell y) -> [object index]. A cell is a
    # little wider than any separation, so every object close enough to reject a
    # candidate lies in the 3 x 3 cells around it, whatever the rounding of x / cell.
    cell = max(max(_CATEGORY_SEPARATION.values()), min_separation) * (1.0 + 1e-9)
    placed: dict[tuple[int, int], list[int]] = {}
    xs: list[float] = []
    ys: list[float] = []
    zs: list[float] = []
    codes: list[int] = []
    # rule[a][b]: how close an object of category a may come to one of category b,
    # and that limit's tie band.
    limits = [
        [_CATEGORY_SEPARATION[a] if a == b else min_separation for b in DEFAULT_CATEGORIES]
        for a in DEFAULT_CATEGORIES
    ]
    rule = [[(limit, *_tie_band(limit)) for limit in row] for row in limits]
    attempts = 0
    while len(codes) < n_objects:
        attempts += 1
        if attempts > 500 * n_objects:
            raise ValueError(
                f"could not place {n_objects} objects on a {street_length} m street "
                "with the requested separation"
            )
        code = int(rng.integers(0, len(DEFAULT_CATEGORIES)))
        z_center, _ = _CATEGORY_GEOMETRY[DEFAULT_CATEGORIES[code]]
        x = rng.uniform(0.08 * street_length, 0.92 * street_length)
        side = 1.0 if rng.random() < 0.5 else -1.0
        y = side * rng.uniform(3.5, 13.0)
        z = z_center + rng.uniform(-0.2, 0.2)
        cx, cy = math.floor(x / cell), math.floor(y / cell)
        near = (k for i in (-1, 0, 1) for j in (-1, 0, 1) for k in placed.get((cx + i, cy + j), ()))
        if any(_closer(x - xs[k], y - ys[k], z - zs[k], *rule[codes[k]][code]) for k in near):
            continue
        placed.setdefault((cx, cy), []).append(len(codes))
        xs.append(x)
        ys.append(y)
        zs.append(z)
        codes.append(code)
    categories = [DEFAULT_CATEGORIES[code] for code in codes]
    objects = [
        SceneObject(category=category, center=center, height=_CATEGORY_GEOMETRY[category][1])
        for category, center in zip(categories, np.column_stack((xs, ys, zs)))
    ]
    return SceneSpec(
        trajectory=trajectory,
        objects=objects,
        direction_noise=direction_noise,
        pose_noise=pose_noise,
        drop_prob=drop_prob,
        clutter_rate=clutter_rate,
        seed=seed,
    )


def _tie_band(limit: float) -> tuple[float, float]:
    """Squared gaps `(lo, hi)` between which the float sum cannot decide `limit`.

    The band is a relative 1e-12 around `limit**2`, thousands of times the
    few ulps by which a sum of three squares and `ddot` can differ. Where the
    square is not a normal float or the band's top overflows, the band is
    every squared gap.
    """
    square = limit * limit
    lo, hi = square * (1.0 - 1e-12), square * (1.0 + 1e-12)
    return (lo, hi) if sys.float_info.min <= square and hi < math.inf else (-math.inf, math.inf)


def _closer(dx: float, dy: float, dz: float, limit: float, lo: float, hi: float) -> bool:
    """Whether gap (dx, dy, dz) is closer than `limit`: `np.sqrt(np.vecdot(gap, gap)) < limit`.

    `(lo, hi)` is `_tie_band(limit)`; only a squared gap inside it is
    decided by `vecdot`.
    """
    squared = dx * dx + dy * dy + dz * dz
    if squared < lo:
        return True
    if squared > hi:
        return False
    gap = np.array([dx, dy, dz])
    return bool(np.sqrt(np.vecdot(gap, gap)) < limit)


def _perturb_directions(d: np.ndarray, angle: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Rotate each row of `d` by its `angle` about the part of its `raw` perpendicular to it.

    `angle` and `raw` are the row's angle and axis draws. A row whose
    perpendicular part has a norm below 1e-12 keeps its direction.
    """
    axis = raw - np.vecdot(raw, d)[:, None] * d
    norm = np.sqrt(np.vecdot(axis, axis))
    turned = np.flatnonzero(norm >= 1e-12)
    a, d_turned = axis[turned] / norm[turned, None], d[turned]
    # Rodrigues rotation; axis is perpendicular to d so the formula shortens.
    # The cross product axis x d is spelled out column by column: the same
    # IEEE operations as np.cross.
    (a0, a1, a2), (d0, d1, d2) = a.T, d_turned.T
    cross = np.stack([a1 * d2 - a2 * d1, a2 * d0 - a0 * d2, a0 * d1 - a1 * d0], axis=-1)
    theta = angle[turned].tolist()
    cos = np.fromiter(map(math.cos, theta), dtype=float, count=len(theta))
    sin = np.fromiter(map(math.sin, theta), dtype=float, count=len(theta))
    out = d.copy()
    out[turned] = d_turned * cos[:, None] + cross * sin[:, None]
    return out


def generate_scene(spec: SceneSpec) -> tuple[list[Observation], GroundTruth]:
    """Generate noisy observations and their ground truth for a scene."""
    if not spec.trajectory:
        raise ValueError("trajectory must not be empty")
    if not spec.objects:
        raise ValueError("object list must not be empty")
    rng = np.random.default_rng(spec.seed)
    categories = sorted({o.category for o in spec.objects})
    centers = np.array([o.center for o in spec.objects])
    positions = np.array([p.position for p in spec.trajectory])
    n_poses, n_objects = len(positions), len(centers)
    # Candidates per pose from one radius query, padded so the exact depth
    # test below sees every object in range, as (pose, object) rows in pose
    # order and, within a pose, in object order: the order of the draws.
    near = cKDTree(centers).query_ball_point(positions, r=spec.max_range * (1.0 + 1e-9), return_sorted=True)
    counts = np.fromiter(map(len, near), dtype=np.intp, count=n_poses)
    pose = np.repeat(np.arange(n_poses), counts)
    obj = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp, count=int(counts.sum()))
    delta = centers[obj] - positions[pose]
    depth = np.sqrt(np.vecdot(delta, delta))
    seen = ~((depth > spec.max_range) | (depth < 1e-9))
    pose, obj, delta, depth = pose[seen], obj[seen], delta[seen], depth[seen]

    # The draw loop: nothing but the draws, in the contract's order.
    random, normal, standard_normal = rng.random, rng.normal, rng.standard_normal
    noise, kept, turn = [], [], []
    perturb = spec.direction_noise > 0
    clutter = []  # (pose, azimuth, elevation, category index, h_norm) per clutter detection
    start = 0
    for k, end in enumerate(np.searchsorted(pose, np.arange(1, n_poses + 1)).tolist()):
        noise.append(normal(0.0, spec.pose_noise, size=3))
        for row in range(start, end):
            if random() < spec.drop_prob:
                continue
            kept.append(row)
            if perturb:
                turn.append(standard_normal(4))
        start = end
        for _ in range(int(rng.poisson(spec.clutter_rate)) if spec.clutter_rate > 0 else 0):
            clutter.append((k, rng.uniform(-math.pi, math.pi), rng.uniform(-0.3, 0.5),
                            int(rng.integers(0, len(categories))), rng.uniform(0.005, 0.08)))

    recorded = positions + np.array(noise)
    kept = np.array(kept, dtype=np.intp)
    pose, obj, delta, depth = pose[kept], obj[kept], delta[kept], depth[kept]
    direction = delta / depth[:, None]
    if perturb:
        # normal(0.0, sigma) and normal(size=3) as NumPy computes them: loc + scale * z.
        turn = np.array(turn).reshape(-1, 4)
        angle, raw = 0.0 + spec.direction_noise * turn[:, 0], 0.0 + 1.0 * turn[:, 1:]
        direction = _perturb_directions(direction, angle, raw)
        direction = direction / np.sqrt(np.vecdot(direction, direction))[:, None]
    height = np.array([o.height for o in spec.objects], dtype=float)[obj]
    h_norm = np.minimum(1.0, height / (depth * math.pi))
    w_norm = np.minimum(1.0, height / (depth * 2.0 * math.pi))
    clutter_pose, azimuth, elevation, clutter_category, clutter_h = (
        map(np.array, zip(*clutter)) if clutter else (np.empty(0, dtype=np.intp),) * 5
    )
    clutter_direction = np.array([
        [ce * math.cos(a), ce * math.sin(a), math.sin(e)]
        for a, e, ce in zip(azimuth.tolist(), elevation.tolist(), map(math.cos, elevation.tolist()))
    ]).reshape(-1, 3)

    # Each pose's objects, then its clutter: the order ids are issued in. A
    # row's label is its object index, or n_objects + its clutter category.
    row_pose = np.concatenate([pose, clutter_pose])
    order = np.argsort(row_pose, kind="stable")
    row_pose = row_pose[order]
    label = np.concatenate([obj, n_objects + clutter_category])[order]
    names = np.array([o.category for o in spec.objects] + categories, dtype=object)
    observations = ObservationTable(
        obs_id=np.arange(len(order), dtype=np.int64),
        frame_id=np.array([p.frame_id for p in spec.trajectory], dtype=np.int64)[row_pose],
        category=names[label],
        exposure=recorded[row_pose],
        direction=np.concatenate([direction, clutter_direction])[order],
        box_w_norm=np.concatenate([w_norm, clutter_h / 2.0])[order],
        box_h_norm=np.concatenate([h_norm, clutter_h])[order],
    ).records()
    truth = GroundTruth(
        objects=spec.objects,
        obs_ids=list(range(len(observations))),
        object_of={i: j if j < n_objects else None for i, j in enumerate(label.tolist())},
    )
    return observations, truth


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
    # Each observation's world ray in its camera's frame: rotation.T @ d, one stacked matmul.
    rotation = rotation_from_euler(*np.array([(p.heading, p.pitch, p.roll) for p in poses]).T)
    row_of = {p.frame_id: k for k, p in enumerate(poses)}
    rows = [row_of[o.frame_id] for o in observations]
    d_world = np.array([o.direction for o in observations]).reshape(-1, 3, 1)
    d_cam = np.matmul(rotation[rows].transpose(0, 2, 1), d_world)[:, :, 0]
    center_x, center_y = [], []
    for x, y, z in d_cam.tolist():
        azimuth = math.atan2(y, x)
        elevation = math.asin(max(-1.0, min(1.0, z)))
        center_x.append((azimuth + math.pi) / (2.0 * math.pi) * EXPORT_IMAGE_W)
        center_y.append((1.0 - (elevation + math.pi / 2.0) / math.pi) * EXPORT_IMAGE_H)
    n = len(observations)
    detections = DetectionTable(
        frame_id=np.array([o.frame_id for o in observations], dtype=np.int64),
        center_x=np.array(center_x, dtype=float),
        center_y=np.array(center_y, dtype=float),
        box_w=np.array([o.box_w_norm for o in observations], dtype=float) * EXPORT_IMAGE_W,
        box_h=np.array([o.box_h_norm for o in observations], dtype=float) * EXPORT_IMAGE_H,
        # Integer columns, so each record's image size is the int the files write.
        image_w=np.full(n, EXPORT_IMAGE_W),
        image_h=np.full(n, EXPORT_IMAGE_H),
        category=np.array([o.category for o in observations], dtype=object),
        confidence=np.ones(n),
    ).records()
    return poses, detections, observations, truth
