"""File formats and ingestion.

All record streams are JSON lines: one object per line, diffable and
streamable. Every file is UTF-8 text; a file that is not, or a non-blank
line that is not exactly one JSON object, is a DataError naming the file
and the line. A file is decoded once into its records. Detections, scores
and observations are then checked as columns, each rule one array test
over a field; only when a test fails do the per-record checks run, to
name the first bad line. `ingest` lifts every detection in one array pass.

Poses may carry either local metric coordinates (x, y, z) or geodetic ones
(lat, lon, alt in degrees/meters); geodetic input is converted to a local
East-North-Up frame anchored at the first pose. Writes go through a temp
file and an atomic rename so partial outputs never appear under the target
name.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Collection, Iterable

import numpy as np

from .association import Cluster
from .geometry import (
    CameraPose,
    Detection2D,
    DetectionTable,
    Observation,
    ObservationTable,
    lift_detections,
)
# build_observation is not called here; it stays importable from this module
# because bench/run.py wraps `io.build_observation` by name.
from .geometry import build_observation  # noqa: F401

__all__ = [
    "DataError",
    "geodetic_to_enu",
    "read_poses",
    "read_detections",
    "ingest",
    "ScoreTriplets",
    "read_score_triplets",
    "read_text",
    "write_jsonl",
    "atomic_write_text",
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
_SCAN = _DECODER.scan_once

# The range of an id column.
_INT64 = np.iinfo(np.int64)


def read_text(path: str) -> str:
    """The text of a UTF-8 file, its line ends read as by text-mode `open`.

    Raises:
        DataError: if the file cannot be opened, or is not UTF-8 (naming
            the line of the first bad byte).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line_no = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise DataError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _decode_line(line: str, path: str, line_no: int) -> dict:
    """One stripped line as a JSON object, or the DataError naming what it is instead."""
    try:
        record = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{line_no}: malformed JSON: {exc.msg}") from exc
    except DataError as exc:
        raise DataError(f"{path}:{line_no}: {exc}") from exc
    if not isinstance(record, dict):
        raise DataError(f"{path}:{line_no}: expected a JSON object")
    return record


def _read_jsonl(path: str) -> list[tuple[int, dict]]:
    """The (line number, record) pairs of a JSON-lines file; blank lines are skipped.

    Each other line must be exactly one JSON object: the scan of a line
    must end where the line ends, so no value spans two lines.
    """
    records = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record, end = _SCAN(line, 0)
        except (StopIteration, ValueError, DataError):
            end = None
        if end != len(line) or type(record) is not dict:
            record = _decode_line(line, path, line_no)
        records.append((line_no, record))
    return records


def _require(record: dict, keys: tuple[str, ...], path: str, line_no: int) -> None:
    missing = [k for k in keys if k not in record]
    if missing:
        raise DataError(f"{path}:{line_no}: missing fields {missing}")


# --- Array checks -----------------------------------------------------------
#
# A reader first checks a file's records as columns, every rule one array
# test over a field. If a test fails, it reads the records one at a time
# instead, checking each in file order, so the first bad record raises the
# DataError naming its line.


class _Refused(Exception):
    """An array check failed; the per-record checks name the first bad line."""


_REQUIRED = object()


def _column(records: list[tuple[int, dict]], key: str, default=_REQUIRED) -> list:
    if default is not _REQUIRED:
        return [r.get(key, default) for _, r in records]
    try:
        return [r[key] for _, r in records]
    except KeyError:
        raise _Refused from None


def _ids(records: list[tuple[int, dict]], key: str) -> np.ndarray:
    """Field `key` as int64 ids: JSON integers, never booleans, within 64 bits."""
    values = _column(records, key)
    if not set(map(type, values)) <= {int}:
        raise _Refused
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise _Refused from None


def _numbers(records: list[tuple[int, dict]], key: str, default=_REQUIRED) -> np.ndarray:
    """Field `key` as floats: finite JSON numbers, never booleans or strings."""
    values = _column(records, key, default)
    if not set(map(type, values)) <= {int, float}:
        raise _Refused
    try:
        column = np.array(values, dtype=float)
    except OverflowError:  # an integer too large for a float
        raise _Refused from None
    if not np.isfinite(column).all():
        raise _Refused
    return column


def _strings(records: list[tuple[int, dict]], key: str) -> np.ndarray:
    """Field `key` as an object array of JSON strings."""
    values = _column(records, key)
    if not set(map(type, values)) <= {str}:
        raise _Refused
    return np.array(values, dtype=object)


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


# Detection file field -> DetectionTable column.
_DETECTION_FIELDS = {
    "cx": "center_x", "cy": "center_y", "w": "box_w", "h": "box_h", "img_w": "image_w", "img_h": "image_h",
}


def read_detections(path: str) -> DetectionTable:
    """Read detections, one row per record; `confidence` defaults to 1.

    Every record must be a detection `Detection2D` accepts.
    """
    records = _read_jsonl(path)
    try:
        table = DetectionTable(
            frame_id=_ids(records, "frame_id"),
            category=_strings(records, "category"),
            confidence=_numbers(records, "confidence", 1.0),
            **{column: _numbers(records, key) for key, column in _DETECTION_FIELDS.items()},
        )
        if table.valid().all():
            return table
    except _Refused:
        pass

    detections = []
    for line_no, record in records:
        _require(record, ("frame_id", *_DETECTION_FIELDS, "category"), path, line_no)
        try:
            detections.append(
                Detection2D(
                    frame_id=_id64(record, "frame_id"),
                    **{column: _number(record, key) for key, column in _DETECTION_FIELDS.items()},
                    category=_category(record),
                    confidence=_number(record, "confidence") if "confidence" in record else 1.0,
                )
            )
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    return DetectionTable.from_detections(detections)


def ingest(poses_file: str, detections_file: str, coord_mode: str = "local") -> ObservationTable:
    """Join detections to poses by frame id and lift them to observations, as one table.

    Observation ids are assigned sequentially in detection file order.

    Raises:
        DataError: on malformed records or detections referencing frames
            with no pose (all offending frame ids are listed).
    """
    poses = read_poses(poses_file, coord_mode)
    detections = read_detections(detections_file)
    index_of = {p.frame_id: k for k, p in enumerate(poses)}
    pose_of = np.array([index_of.get(f, -1) for f in detections.frame_id.tolist()], dtype=np.intp)
    orphan = pose_of < 0
    if orphan.any():
        orphans = sorted(set(detections.frame_id[orphan].tolist()))
        raise DataError(
            f"{detections_file}: detections reference frames with no pose: {orphans}"
        )
    return lift_detections(detections, poses, pose_of)


@dataclass(frozen=True, eq=False)
class ScoreTriplets:
    """External matcher scores as three columns, one row per scored pair."""

    obs_a: np.ndarray
    obs_b: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)


def read_score_triplets(path: str, obs_ids: Collection[int]) -> ScoreTriplets:
    """Read external matcher scores of the observations `obs_ids`.

    Both ids of a score must be in `obs_ids` and differ, the score must lie
    in [0, 1], and no unordered pair may be scored twice, in either order.
    """
    records = _read_jsonl(path)
    known = np.fromiter(obs_ids, dtype=np.int64, count=len(obs_ids))
    try:
        a, b, score = _ids(records, "obs_a"), _ids(records, "obs_b"), _numbers(records, "score")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((hi, lo))
        repeated = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
        if (
            ((0.0 <= score) & (score <= 1.0)).all()
            and (a != b).all()
            and np.isin(a, known).all()
            and np.isin(b, known).all()
            and not repeated.any()
        ):
            return ScoreTriplets(a, b, score)
    except _Refused:
        pass

    known_set = set(known.tolist())
    triplets = []
    lines: dict[tuple[int, int], int] = {}
    for line_no, record in records:
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
            if obs_id not in known_set:
                raise DataError(f"{path}:{line_no}: unknown observation {obs_id}")
        _claim(lines, (min(a, b), max(a, b)), "pair {} is already scored", path, line_no)
        triplets.append((a, b, s))
    a, b, score = zip(*triplets) if triplets else ((), (), ())
    return ScoreTriplets(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), np.array(score, dtype=float))


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


def observation_from_record(record: dict) -> Observation:
    direction = np.array([_number(record, key) for key in ("dx", "dy", "dz")])
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("zero direction vector")
    return Observation(
        obs_id=_id64(record, "obs_id"),
        frame_id=_id64(record, "frame_id"),
        category=_category(record),
        exposure=np.array([_number(record, key) for key in ("px", "py", "pz")]),
        direction=direction / norm,
        box_w_norm=_number(record, "w_norm"),
        box_h_norm=_number(record, "h_norm"),
    )


def write_observations(path: str, table: ObservationTable) -> None:
    (px, py, pz), (dx, dy, dz) = table.exposure.T.tolist(), table.direction.T.tolist()
    columns = {
        "obs_id": table.obs_id.tolist(),
        "frame_id": table.frame_id.tolist(),
        "category": table.category.tolist(),
        "px": px, "py": py, "pz": pz,
        "dx": dx, "dy": dy, "dz": dz,
        "w_norm": table.box_w_norm.tolist(),
        "h_norm": table.box_h_norm.tolist(),
    }
    write_jsonl(path, (dict(zip(columns, row)) for row in zip(*columns.values())))


def read_observations(path: str) -> ObservationTable:
    """Read observation records as one table; no two may share an obs_id.

    Each record must be an observation `observation_from_record` accepts:
    its direction is normalized, and must then be a unit vector.
    """
    records = _read_jsonl(path)
    try:
        direction = np.stack([_numbers(records, key) for key in ("dx", "dy", "dz")], axis=-1)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(direction, axis=1)
        if not (norm > 0).all():
            raise _Refused
        table = ObservationTable(
            obs_id=_ids(records, "obs_id"),
            frame_id=_ids(records, "frame_id"),
            category=_strings(records, "category"),
            exposure=np.stack([_numbers(records, key) for key in ("px", "py", "pz")], axis=-1),
            direction=direction / norm[:, None],
            box_w_norm=_numbers(records, "w_norm"),
            box_h_norm=_numbers(records, "h_norm"),
        )
        w, h = table.box_w_norm, table.box_h_norm
        if (
            (np.abs(np.linalg.norm(table.direction, axis=1) - 1.0) <= 1e-9).all()
            and ((0.0 < w) & (w <= 1.0) & (0.0 < h) & (h <= 1.0)).all()
            and not table.repeated_ids().size
        ):
            return table
    except _Refused:
        pass

    observations = []
    lines: dict[int, int] = {}
    for line_no, record in records:
        try:
            observations.append(observation_from_record(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        _claim(lines, observations[-1].obs_id, "obs_id {} is already used", path, line_no)
    return ObservationTable.from_observations(observations)


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


def _id64(record: dict, key: str) -> int:
    """`_id(record, key)`, which must also fit the 64-bit column it is read into."""
    value = _id(record, key)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{key} {value} is outside the 64-bit integer range")
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

    text = read_text(path)
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
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
