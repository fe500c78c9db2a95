"""File formats and ingestion.

All record streams are JSON lines: one object per line, diffable and
streamable. Poses may carry either local metric coordinates (x, y, z) or
geodetic ones (lat, lon, alt in degrees/meters); geodetic input is
converted to a local East-North-Up frame anchored at the first pose.
Writes go through a temp file and an atomic rename so partial outputs
never appear under the target name.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Collection, Iterable

import numpy as np

from .association import Cluster
from .geometry import CameraPose, Detection2D, Observation, build_observation

__all__ = [
    "DataError",
    "geodetic_to_enu",
    "read_poses",
    "read_detections",
    "ingest",
    "read_score_triplets",
    "write_jsonl",
    "atomic_write_text",
    "observation_to_record",
    "observation_from_record",
    "write_observations",
    "read_observations",
    "cluster_to_record",
    "cluster_from_record",
    "write_clusters",
    "read_clusters",
    "parse_config_text",
]


class DataError(Exception):
    """Malformed or inconsistent input data."""


# WGS-84 ellipsoid.
_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563
_WGS84_E2 = _WGS84_F * (2.0 - _WGS84_F)


def _geodetic_to_ecef(lat_rad: float, lon_rad: float, alt: float) -> np.ndarray:
    sin_lat, cos_lat = math.sin(lat_rad), math.cos(lat_rad)
    sin_lon, cos_lon = math.sin(lon_rad), math.cos(lon_rad)
    n = _WGS84_A / math.sqrt(1.0 - _WGS84_E2 * sin_lat * sin_lat)
    return np.array(
        [
            (n + alt) * cos_lat * cos_lon,
            (n + alt) * cos_lat * sin_lon,
            (n * (1.0 - _WGS84_E2) + alt) * sin_lat,
        ]
    )


def geodetic_to_enu(lat: float, lon: float, alt: float, lat0: float, lon0: float, alt0: float) -> np.ndarray:
    """East-North-Up offset of (lat, lon, alt) from the anchor point.

    Latitudes and longitudes are degrees, altitudes meters.
    """
    lat_rad, lon_rad = math.radians(lat), math.radians(lon)
    lat0_rad, lon0_rad = math.radians(lat0), math.radians(lon0)
    delta = _geodetic_to_ecef(lat_rad, lon_rad, alt) - _geodetic_to_ecef(lat0_rad, lon0_rad, alt0)
    sin_lat0, cos_lat0 = math.sin(lat0_rad), math.cos(lat0_rad)
    sin_lon0, cos_lon0 = math.sin(lon0_rad), math.cos(lon0_rad)
    east = -sin_lon0 * delta[0] + cos_lon0 * delta[1]
    north = (
        -sin_lat0 * cos_lon0 * delta[0]
        - sin_lat0 * sin_lon0 * delta[1]
        + cos_lat0 * delta[2]
    )
    up = (
        cos_lat0 * cos_lon0 * delta[0]
        + cos_lat0 * sin_lon0 * delta[1]
        + sin_lat0 * delta[2]
    )
    return np.array([east, north, up])


def _reject_constant(name: str):
    """`parse_constant` hook: JSON has no NaN or Infinity, so refuse them."""
    raise DataError(f"non-finite number {name}")


# One decoder for every line: json.loads with a hook builds a new one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _read_jsonl(path: str) -> Iterable[tuple[int, dict]]:
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: malformed JSON: {exc.msg}") from exc
            except DataError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
            if not isinstance(record, dict):
                raise DataError(f"{path}:{line_no}: expected a JSON object")
            yield line_no, record


def _require(record: dict, keys: tuple[str, ...], path: str, line_no: int) -> None:
    missing = [k for k in keys if k not in record]
    if missing:
        raise DataError(f"{path}:{line_no}: missing fields {missing}")


def read_poses(path: str, coord_mode: str = "local") -> list[CameraPose]:
    """Read camera poses; geodetic mode converts to ENU about the first pose.

    Local records carry x/y/z; geodetic ones carry lat/lon/alt (degrees,
    meters). Both carry frame_id and heading/pitch/roll in radians.
    """
    if coord_mode not in ("local", "geodetic"):
        raise DataError(f"unknown coordinate mode {coord_mode!r}")
    poses: list[CameraPose] = []
    anchor: tuple[float, float, float] | None = None
    frames: dict[int, int] = {}
    for line_no, record in _read_jsonl(path):
        _require(record, ("frame_id", "heading", "pitch", "roll"), path, line_no)
        try:
            frame_id = _id(record, "frame_id")
            if coord_mode == "geodetic":
                _require(record, ("lat", "lon", "alt"), path, line_no)
                lat, lon, alt = (_number(record, key) for key in ("lat", "lon", "alt"))
                if anchor is None:
                    anchor = (lat, lon, alt)
                position = geodetic_to_enu(lat, lon, alt, *anchor)
            else:
                _require(record, ("x", "y", "z"), path, line_no)
                position = np.array([_number(record, key) for key in ("x", "y", "z")])
            poses.append(
                CameraPose(
                    frame_id=frame_id,
                    position=position,
                    heading=_number(record, "heading"),
                    pitch=_number(record, "pitch"),
                    roll=_number(record, "roll"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        _claim(frames, frame_id, "frame {} already has a pose", path, line_no)
    return poses


def read_detections(path: str) -> list[Detection2D]:
    detections: list[Detection2D] = []
    fields = ("frame_id", "cx", "cy", "w", "h", "img_w", "img_h", "category")
    for line_no, record in _read_jsonl(path):
        _require(record, fields, path, line_no)
        try:
            detections.append(
                Detection2D(
                    frame_id=_id(record, "frame_id"),
                    center_x=_number(record, "cx"),
                    center_y=_number(record, "cy"),
                    box_w=_number(record, "w"),
                    box_h=_number(record, "h"),
                    image_w=_number(record, "img_w"),
                    image_h=_number(record, "img_h"),
                    category=_category(record),
                    confidence=_number(record, "confidence") if "confidence" in record else 1.0,
                )
            )
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    return detections


def ingest(poses_file: str, detections_file: str, coord_mode: str = "local") -> list[Observation]:
    """Join detections to poses by frame id and lift them to observations.

    Observation ids are assigned sequentially in detection file order.

    Raises:
        DataError: on malformed records or detections referencing frames
            with no pose (all offending frame ids are listed).
    """
    poses = read_poses(poses_file, coord_mode)
    detections = read_detections(detections_file)
    by_frame = {p.frame_id: p for p in poses}
    orphans = sorted({d.frame_id for d in detections if d.frame_id not in by_frame})
    if orphans:
        raise DataError(
            f"{detections_file}: detections reference frames with no pose: {orphans}"
        )
    return [
        build_observation(det, by_frame[det.frame_id], obs_id)
        for obs_id, det in enumerate(detections)
    ]


def read_score_triplets(path: str, obs_ids: Collection[int]) -> list[tuple[int, int, float]]:
    """Read external matcher scores of the observations `obs_ids`.

    Returns (obs_a, obs_b, score) triplets. Both ids must be in `obs_ids`
    and differ, the score must lie in [0, 1], and no unordered pair may be
    scored twice, in either order.
    """
    triplets = []
    lines: dict[tuple[int, int], int] = {}
    for line_no, record in _read_jsonl(path):
        _require(record, ("obs_a", "obs_b", "score"), path, line_no)
        try:
            a, b, s = _id(record, "obs_a"), _id(record, "obs_b"), _number(record, "score")
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        if not (0.0 <= s <= 1.0):
            raise DataError(f"{path}:{line_no}: score {s} outside [0, 1]")
        if a == b:
            raise DataError(f"{path}:{line_no}: self-pair ({a}, {b})")
        for obs_id in (a, b):
            if obs_id not in obs_ids:
                raise DataError(f"{path}:{line_no}: unknown observation {obs_id}")
        _claim(lines, (min(a, b), max(a, b)), "pair {} is already scored", path, line_no)
        triplets.append((a, b, s))
    return triplets


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` via a temp file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    text = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)
    atomic_write_text(path, text)


def observation_to_record(o: Observation) -> dict:
    return {
        "obs_id": o.obs_id,
        "frame_id": o.frame_id,
        "category": o.category,
        "px": o.exposure[0],
        "py": o.exposure[1],
        "pz": o.exposure[2],
        "dx": o.direction[0],
        "dy": o.direction[1],
        "dz": o.direction[2],
        "w_norm": o.box_w_norm,
        "h_norm": o.box_h_norm,
    }


def observation_from_record(record: dict) -> Observation:
    direction = np.array([_number(record, key) for key in ("dx", "dy", "dz")])
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("zero direction vector")
    return Observation(
        obs_id=_id(record, "obs_id"),
        frame_id=_id(record, "frame_id"),
        category=_category(record),
        exposure=np.array([_number(record, key) for key in ("px", "py", "pz")]),
        direction=direction / norm,
        box_w_norm=_number(record, "w_norm"),
        box_h_norm=_number(record, "h_norm"),
    )


def write_observations(path: str, observations: list[Observation]) -> None:
    write_jsonl(path, (observation_to_record(o) for o in observations))


def read_observations(path: str) -> list[Observation]:
    """Read observation records; no two may share an obs_id."""
    observations = []
    lines: dict[int, int] = {}
    for line_no, record in _read_jsonl(path):
        try:
            observations.append(observation_from_record(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        _claim(lines, observations[-1].obs_id, "obs_id {} is already used", path, line_no)
    return observations


def cluster_to_record(c: Cluster) -> dict:
    members = sorted(c.members)
    record: dict = {"cluster_id": c.cluster_id, "members": members}
    if c.center is not None:
        record["center"] = [c.center[0], c.center[1], c.center[2]]
        record["residuals"] = [c.residuals[m] for m in members]
    else:
        record["center"] = None
        record["residuals"] = None
    return record


def cluster_from_record(record: dict) -> Cluster:
    members = record["members"]
    center = record.get("center")
    residuals = record.get("residuals")
    if center is not None:
        residual_map = {m: float(r) for m, r in zip(members, residuals)}
        return Cluster(
            cluster_id=_id(record, "cluster_id"),
            members=set(members),
            center=np.asarray(center, dtype=float),
            residuals=residual_map,
        )
    return Cluster(cluster_id=_id(record, "cluster_id"), members=set(members))


def write_clusters(path: str, clusters: list[Cluster]) -> None:
    ordered = sorted(clusters, key=lambda c: c.cluster_id)
    write_jsonl(path, (cluster_to_record(c) for c in ordered))


def read_clusters(path: str, obs_ids: Collection[int]) -> list[Cluster]:
    """Read clusters of the observations `obs_ids`.

    Cluster ids must be unique integers. Members must be a non-empty list
    of integers from `obs_ids`, and no observation may be a member of two
    clusters. A center is null or 3 finite numbers; residuals are null
    with it and otherwise one finite number per member, in member order.
    """
    clusters = []
    owner: dict[int, int] = {}
    lines: dict[int, int] = {}
    for line_no, record in _read_jsonl(path):
        _require(record, ("cluster_id", "members"), path, line_no)
        _claim_members(owner, record["members"], path, line_no)
        unknown = [m for m in record["members"] if m not in obs_ids]
        if unknown:
            raise DataError(f"{path}:{line_no}: unknown observation {unknown[0]}")
        _check_fit(record, path, line_no)
        try:
            clusters.append(cluster_from_record(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        _claim(lines, clusters[-1].cluster_id, "cluster_id {} is already used", path, line_no)
    return clusters


def _claim(lines: dict, key, claim: str, path: str, line_no: int) -> None:
    """Record that `key` is claimed on `line_no`.

    A key claimed before is a DataError naming both lines; `claim` is its
    message, with `{}` standing for the key.
    """
    if key in lines:
        raise DataError(f"{path}:{line_no}: {claim.format(key)} on line {lines[key]}")
    lines[key] = line_no


def _claim_members(owner: dict[int, int], members, path: str, line_no: int) -> None:
    """Check that members are a non-empty list of integers and claim each one for `line_no`."""
    if not (isinstance(members, list) and members and all(map(_is_int, members))):
        raise DataError(f"{path}:{line_no}: members must be a non-empty list of integers")
    for obs_id in members:
        _claim(owner, obs_id, "observation {} is already a member", path, line_no)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _id(record: dict, key: str) -> int:
    """`record[key]` as an id, which must be a JSON integer.

    A float such as 3.7, or a string, is a TypeError: never truncated or
    parsed into some other record's id.
    """
    value = record[key]
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _category(record: dict) -> str:
    """`record["category"]`, which must be a JSON string: null or 7 is a
    TypeError, never the category "None" or "7"."""
    value = record["category"]
    if not isinstance(value, str):
        raise TypeError(f"category must be a string, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A finite JSON number: an int or a float, never a bool, finite as a float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _is_point(value) -> bool:
    return isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))


def _number(record: dict, key: str) -> float:
    """`record[key]` as a float, which must be a finite JSON number.

    A string such as "1.5", or a boolean, is a TypeError: never parsed or
    read as 1.
    """
    value = record[key]
    if not _is_number(value):
        raise TypeError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _point(record: dict, key: str) -> np.ndarray:
    """`record[key]`, which must be a list of 3 finite JSON numbers, as an array."""
    value = record[key]
    if not _is_point(value):
        raise TypeError(f"{key} must be 3 finite numbers, got {value!r}")
    return np.array(value, dtype=float)


def _check_center(center, path: str, line_no: int) -> None:
    if center is not None and not _is_point(center):
        raise DataError(f"{path}:{line_no}: center must be null or 3 finite numbers")


def _check_fit(record: dict, path: str, line_no: int) -> None:
    """A cluster's center is null or 3 finite numbers; its residuals are
    null with it and otherwise one finite number per member."""
    center, residuals = record.get("center"), record.get("residuals")
    _check_center(center, path, line_no)
    if center is None and residuals is not None:
        raise DataError(f"{path}:{line_no}: residuals must be null when center is null")
    if center is not None and not (
        isinstance(residuals, list)
        and len(residuals) == len(record["members"])
        and all(map(_is_number, residuals))
    ):
        raise DataError(f"{path}:{line_no}: residuals must be one finite number per member")


def read_inventory(path: str) -> list[dict]:
    """Read inventory records written by the run/evaluate pipeline.

    Each record needs a string category, a center that is null or three
    finite numbers, and a non-empty list of integer members; no
    observation may be a member of two records.
    """
    records = []
    owner: dict[int, int] = {}
    fields = ("object_id", "category", "center", "n_observations", "max_residual", "members")
    for line_no, record in _read_jsonl(path):
        _require(record, fields, path, line_no)
        if not isinstance(record["category"], str):
            raise DataError(f"{path}:{line_no}: category must be a string")
        _check_center(record["center"], path, line_no)
        _claim_members(owner, record["members"], path, line_no)
        records.append(record)
    return records


def write_truth(path: str, truth) -> None:
    """Serialize scene ground truth (objects plus per-observation ids)."""
    payload = {
        "objects": [
            {
                "object_id": i,
                "category": o.category,
                "center": [o.center[0], o.center[1], o.center[2]],
                "height": o.height,
            }
            for i, o in enumerate(truth.objects)
        ],
        "observations": [
            {"obs_id": obs_id, "object_id": truth.object_of[obs_id]}
            for obs_id in truth.obs_ids
        ],
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n")


def read_truth(path: str):
    from .simulator import GroundTruth, SceneObject

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc.msg}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    try:
        entries = sorted(payload["objects"], key=lambda r: _id(r, "object_id"))
        if [r["object_id"] for r in entries] != list(range(len(entries))):
            raise DataError(f"{path}: object ids must be 0..n-1")
        objects = [
            SceneObject(
                category=_category(r),
                center=_point(r, "center"),
                height=_number(r, "height"),
            )
            for r in entries
        ]
        obs_ids = []
        object_of = {}
        for r in payload["observations"]:
            obs_id = _id(r, "obs_id")
            if obs_id in object_of:
                raise DataError(f"{path}: duplicate observation id {obs_id}")
            object_id = None if r["object_id"] is None else _id(r, "object_id")
            if object_id is not None and not 0 <= object_id < len(objects):
                raise DataError(
                    f"{path}: observation {obs_id} names object {object_id}, "
                    f"outside 0..{len(objects) - 1}"
                )
            obs_ids.append(obs_id)
            object_of[obs_id] = object_id
        return GroundTruth(objects=objects, obs_ids=obs_ids, object_of=object_of)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse a flat key-value config: `key = value` lines, `#` comments."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{source}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise DataError(f"{source}:{line_no}: empty key")
        values[key] = value
    return values
