"""File formats and ingestion.

All record streams are JSON lines: one object per line, diffable and
streamable. Every file is UTF-8 text; a file that is not, or a non-blank
line that is not exactly one JSON object, is a DataError naming the file
and the line. Every reader, of poses, detections, scores, observations,
clusters, inventory and truth, reads the records of its file as columns:
each rule a record must pass is one array test over the whole file (see
`_Rules`), and the error names the first bad line and the first rule it
fails. `truth.json` is one JSON object, and its errors name the file alone.
`ingest` lifts every detection in one array pass.

`orjson` is the one JSON decoder: one call per line, and one for
`truth.json`. A line, or `truth.json`, whose arrays and objects nest more
than `MAX_NESTING` (512) levels deep is refused as nested too deep before
orjson sees it; orjson 3.8 overflows the stack from about 150,000 levels.
A line orjson refuses is malformed JSON, worded as orjson words it. So:
an integer beyond 64 bits reads as a float, which an id field refuses as
not an integer and a number field takes; `1e999`, `NaN`, `Infinity` and
escaped lone surrogates are malformed JSON; and `read_inventory` returns
the fields it does not check as orjson reads them.

Poses may carry either local metric coordinates (x, y, z) or geodetic ones
(lat, lon, alt in degrees/meters); geodetic input is converted to a local
East-North-Up frame anchored at the first pose.

`write_jsonl` writes every JSON file, one `orjson.dumps` per record: keys
sorted, compact separators, UTF-8, each float in the fewest digits that
read back to it. A NaN or infinity anywhere in a record is a ValueError
before anything is written. Writes go through a temp file and an atomic
rename so partial outputs never appear under the target name.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import tempfile
from itertools import compress, count, repeat
from operator import countOf, itemgetter
from types import SimpleNamespace
from typing import Callable, Collection, Iterable

import numpy as np
import orjson

from .association import ClusterTable, ScoreTriplets
from .geometry import (
    DETECTION_RULES,
    OBSERVATION_RULES,
    CameraPose,
    Detection2D,
    DetectionTable,
    ObservationTable,
    lift_detections,
)
# build_observation is not called here; it stays importable from this module
# because bench/run.py wraps `io.build_observation` by name.
from .geometry import build_observation  # noqa: F401

__all__ = [
    "MAX_NESTING",
    "DataError",
    "OutputError",
    "geodetic_to_enu",
    "read_poses",
    "write_poses",
    "read_detections",
    "write_detections",
    "ingest",
    "read_score_triplets",
    "read_text",
    "write_jsonl",
    "atomic_write_text",
    "write_observations",
    "read_observations",
    "write_clusters",
    "read_clusters",
    "parse_config_text",
]


class DataError(Exception):
    """Malformed or inconsistent input data."""


class OutputError(Exception):
    """An output path that cannot be written; the message names it."""


# WGS-84 ellipsoid.
_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563
_WGS84_E2 = _WGS84_F * (2.0 - _WGS84_F)


def _enu(lat: np.ndarray, lon: np.ndarray, alt: np.ndarray) -> np.ndarray:
    """East-North-Up positions of geodetic points about the first, as (n, 3); row 0 is exactly zero.

    Latitudes and longitudes are degrees, altitudes meters, one array each.
    """
    lat, lon = np.radians(lat), np.radians(lon)
    sin_lat, cos_lat, sin_lon, cos_lon = np.sin(lat), np.cos(lat), np.sin(lon), np.cos(lon)
    n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * sin_lat * sin_lat)
    ecef = ((n + alt) * cos_lat * cos_lon, (n + alt) * cos_lat * sin_lon, (n * (1.0 - _WGS84_E2) + alt) * sin_lat)
    x, y, z = (c - c[:1] for c in ecef)
    # The first point's sines and cosines, as length-1 arrays: none of an empty array.
    sin_lat0, cos_lat0, sin_lon0, cos_lon0 = (v[:1] for v in (sin_lat, cos_lat, sin_lon, cos_lon))
    east = -sin_lon0 * x + cos_lon0 * y
    north = -sin_lat0 * cos_lon0 * x - sin_lat0 * sin_lon0 * y + cos_lat0 * z
    up = cos_lat0 * cos_lon0 * x + cos_lat0 * sin_lon0 * y + sin_lat0 * z
    return np.stack([east, north, up], axis=-1)


def geodetic_to_enu(lat: float, lon: float, alt: float, lat0: float, lon0: float, alt0: float) -> np.ndarray:
    """East-North-Up offset of (lat, lon, alt) from the anchor point.

    Latitudes and longitudes are degrees, altitudes meters.

    Raises:
        ValueError: if a latitude lies outside [-90, 90].
    """
    for value in (lat, lat0):
        if not -90.0 <= value <= 90.0:
            raise ValueError(f"latitude {value} outside [-90, 90]")
    return _enu(*(np.array(pair, dtype=float) for pair in ((lat0, lat), (lon0, lon), (alt0, alt))))[1]


# The deepest a line, or `truth.json`, may nest its arrays and objects.
# orjson recurses once per level: 3.8.3, on an 8 MB stack, reads about
# 150,000 levels, then crashes the process. A value this deep is well within
# the interpreter's recursion limit, so every rule's message can print it
# with `repr`.
MAX_NESTING = 512

# Quotes and brackets alone tell how deep JSON text nests, once its escapes
# are gone. `_UNSTRUCTURED` is every other byte, `_ESCAPE` a backslash and
# the byte it escapes, and `_STEP` the change of depth at each byte.
_UNSTRUCTURED = bytes(sorted(set(range(256)) - set(b'"[]{}')))
_ESCAPE = re.compile(rb"\\.", re.DOTALL)
_STEP = np.zeros(256, dtype=np.int64)
_STEP[list(b"[{")], _STEP[list(b"]}")] = 1, -1

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


def _too_deep(text: str) -> bool:
    """Whether the arrays and objects of the JSON text `text` nest more than
    `MAX_NESTING` deep: whether, at some point outside its strings, the `[`
    and `{` before it outnumber the `]` and `}` by more than that.

    A text with no more `[` and `{` than the limit cannot be that deep, so
    it is not scanned. A string never closed runs to the end of the text.
    """
    data = text.encode()
    if b"\\" in data:
        data = _ESCAPE.sub(b"", data)  # so that each quote left opens or closes a string
    structure = data.translate(None, _UNSTRUCTURED)
    if structure.count(b"[") + structure.count(b"{") <= MAX_NESTING:
        return False
    codes = np.frombuffer(structure, dtype=np.uint8)
    outside = np.cumsum(codes == ord('"')) % 2 == 0
    return int(np.cumsum(_STEP[codes] * outside).max()) > MAX_NESTING


def _json_objects(texts: list[str]) -> tuple[list[dict], str | None]:
    """The JSON objects orjson decodes from `texts`, one per text, up to the
    first text refused, and why that one is refused (None if none is).

    A text is refused if it nests too deep (it is never decoded), if orjson
    refuses it, or if it is not a JSON object.
    """
    # Only a text longer than the limit can nest deeper.
    long = compress(count(), map(MAX_NESTING.__lt__, map(len, texts)))
    deep = next((k for k in long if _too_deep(texts[k])), len(texts))
    records = []
    try:
        # `extend` keeps the records decoded before a refused text, so their count is its index.
        records.extend(map(orjson.loads, texts[:deep]))
    except orjson.JSONDecodeError as exc:
        refusal = f"malformed JSON: {exc.msg}"
    else:
        refusal = "JSON nested too deep" if deep < len(texts) else None
    if not set(map(type, records)) <= {dict}:
        first = next(k for k, record in enumerate(records) if type(record) is not dict)
        return records[:first], "expected a JSON object"
    return records, refusal


def _read_jsonl(path: str) -> _Rules:
    """The `_Rules` of the records of the non-blank lines of a JSON-lines file.

    Raises:
        DataError: naming the first line `_json_objects` refuses, and why.
    """
    lines = list(map(str.strip, read_text(path).split("\n")))
    texts, numbers = list(filter(None, lines)), list(compress(count(1), lines))
    records, refusal = _json_objects(texts)
    if refusal:
        raise DataError(f"{path}:{numbers[len(records)]}: {refusal}")
    return _Rules(path, records, numbers)


# --- Rules over columns ------------------------------------------------------
#
# Every reader reads its records as columns, and every rule is one row mask
# over a whole file, added in the order a record is checked: its fields are
# present, its ids are integers, its numbers finite numbers and its category
# a string; then the range rules, then the rules across rows. A row that
# fails a rule holds a stand-in value (0 or NaN), so the later tests run on
# every row; the error is the first rule of the first bad line. A column test
# first tries the whole column at once, so a file that passes pays one array
# test per rule. The member lists of clusters and inventory records are one
# column of their entries, each with its row, so one `unique` test finds an
# observation that is a member twice.

_MISSING = object()


class _Rules:
    """The rules the records of one file fail, in the order they are checked.

    `lines` holds each record's line number. The entries of `truth.json`
    have none (None), and their errors name the file alone.
    """

    def __init__(self, path: str, records: list[dict], lines: list[int] | None = None):
        self.path = path
        self.records = records
        self.lines = lines
        self.broken: list[tuple[np.ndarray, Callable[[int], str]]] = []

    def check(self, holds: np.ndarray, message: Callable[[int], str]) -> None:
        """Add a rule: `holds` is its row mask, `message(row)` the error of a row it fails."""
        if not holds.all():
            self.broken.append((~holds, message))

    def raise_first(self) -> None:
        """Raise the DataError of the first line that fails a rule, naming the first rule it fails."""
        if self.broken:
            row = min(int(bad.argmax()) for bad, _ in self.broken)
            message = next(message for bad, message in self.broken if bad[row])
            where = self.path if self.lines is None else f"{self.path}:{self.lines[row]}"
            raise DataError(f"{where}: {message(row)}")

    def fields(self, keys: tuple[str, ...]) -> dict[str, list]:
        """Each field of `keys` as the list of its values, one per record; a record missing any is refused."""
        values, present = {}, np.ones(len(self.records), dtype=bool)
        for key in keys:
            try:
                values[key] = list(map(itemgetter(key), self.records))
            except KeyError:
                values[key] = [r.get(key, _MISSING) for r in self.records]
                present &= np.array([v is not _MISSING for v in values[key]], dtype=bool)
        self.check(present, lambda k: f"missing fields {[key for key in keys if key not in self.records[k]]}")
        return values

    def ids(self, values: list, key: str, any_size: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Field `key` as int64 ids, and the mask of the rows whose id fits 64 bits.

        An id is a JSON integer, never a boolean. It must fit 64 bits too,
        unless `any_size`; the caller then refuses the rows that do not.
        """
        if set(map(type, values)) <= {int}:
            try:
                column = np.array(values, dtype=np.int64)
                return column, np.ones(len(column), dtype=bool)
            except OverflowError:
                pass
        is_int = list(map(_is_int, values))
        self.check(np.array(is_int, dtype=bool), lambda k: f"{key} must be an integer, got {values[k]!r}")
        fits = np.array([i and _INT64.min <= v <= _INT64.max for i, v in zip(is_int, values)], dtype=bool)
        if not any_size:
            self.check(fits, lambda k: f"{key} {values[k]} is outside the 64-bit integer range")
        return np.array([v if ok else 0 for v, ok in zip(values, fits)], dtype=np.int64), fits

    def numbers(self, values: list, key: str) -> np.ndarray:
        """Field `key` as floats: finite JSON numbers, never booleans or strings."""
        if set(map(type, values)) <= {int, float}:
            column = np.array(values, dtype=float)
            if np.isfinite(column).all():
                return column
        ok = list(map(_is_number, values))
        self.check(np.array(ok, dtype=bool), lambda k: f"{key} must be a finite number, got {values[k]!r}")
        return np.array([v if good else math.nan for v, good in zip(values, ok)], dtype=float)

    def strings(self, values: list, key: str) -> np.ndarray:
        """Field `key` as an object array of JSON strings."""
        if set(map(type, values)) <= {str}:
            return np.array(values, dtype=object)
        ok = [isinstance(v, str) for v in values]
        self.check(np.array(ok, dtype=bool), lambda k: f"{key} must be a string, got {values[k]!r}")
        return np.array([v if good else "" for v, good in zip(values, ok)], dtype=object)

    def points(self, values: list, key: str) -> np.ndarray:
        """Field `key` as (n, 3) floats: each value 3 finite JSON numbers, or null (a row of NaN)."""
        ok = [v is None or _is_point(v) for v in values]
        self.check(np.array(ok, dtype=bool), lambda k: f"{key} must be null or 3 finite numbers")
        nan = [math.nan] * 3
        return np.array([v if good and v is not None else nan for v, good in zip(values, ok)],
                        dtype=float).reshape(-1, 3)

    def members(self, values: list, key: str) -> list[list[int]]:
        """Field `key`: each value a non-empty list of integer observation ids, [] in a row that is not.

        No observation may be an entry twice, in one row or in two.
        """
        ok = [isinstance(v, list) and len(v) > 0 and all(map(_is_int, v)) for v in values]
        self.check(np.array(ok, dtype=bool), lambda k: f"{key} must be a non-empty list of integers")
        lists = [v if good else [] for v, good in zip(values, ok)]
        entries = [m for v in lists for m in v]
        try:
            column = np.array(entries, dtype=np.int64)
        except OverflowError:  # an entry of 2**63 or more: compare the entries as read
            column = np.unique(np.array(entries, dtype=object), return_inverse=True)[1]
        rows = np.repeat(np.arange(len(lists)), [len(v) for v in lists])
        self.unique([column], lambda i: f"observation {entries[i]} is already a member", rows)
        return lists

    def record_rules(self, rules, table) -> None:
        """Add a record kind's rules (see `geometry`), each tested on every row of `table`."""

        def row(k):
            return SimpleNamespace(**{f.name: getattr(table, f.name)[k] for f in dataclasses.fields(table)})

        # Rows holding stand-in values divide by 0 or NaN; quietly.
        with np.errstate(all="ignore"):
            for holds, message in rules:
                self.check(holds(table), lambda k, message=message: message(row(k)))

    def unique(self, keys: list[np.ndarray], claim: Callable[[int], str], rows: np.ndarray | None = None) -> None:
        """Refuse each row whose key, its values of `keys`, an earlier row holds.

        With `rows`, the keys are those of list entries, entry i in row
        `rows[i]`, and a row is refused if one of its entries repeats an
        earlier entry. `claim(i)` names the key of row or entry i; the error
        adds the line of its first holder.
        """
        order = np.lexsort(keys[::-1])  # stable: a key's entries stay in file order
        repeated = np.zeros(len(order), dtype=bool)
        repeated[order[1:][np.logical_and.reduce([np.diff(key[order]) == 0 for key in keys])]] = True
        rows = np.arange(len(order)) if rows is None else rows
        held = np.ones(len(self.records), dtype=bool)
        held[rows[repeated]] = False

        def message(k):
            i = np.flatnonzero(repeated & (rows == k))[0]
            first = np.flatnonzero(np.logical_and.reduce([key == key[i] for key in keys]))[0]
            return claim(i) if self.lines is None else f"{claim(i)} on line {self.lines[rows[first]]}"

        self.check(held, message)


def read_poses(path: str, coord_mode: str = "local") -> list[CameraPose]:
    """Read camera poses; geodetic mode converts to ENU about the first pose.

    Local records carry x/y/z; geodetic ones carry lat/lon/alt (degrees,
    meters). Both carry frame_id and heading/pitch/roll in radians. No two
    poses may share a frame_id.
    """
    if coord_mode not in ("local", "geodetic"):
        raise DataError(f"unknown coordinate mode {coord_mode!r}")
    return _poses(_read_jsonl(path), coord_mode)


def _poses(rules: _Rules, coord_mode: str) -> list[CameraPose]:
    values = rules.fields(("frame_id", "heading", "pitch", "roll"))
    frame_id, _ = rules.ids(values["frame_id"], "frame_id")
    if coord_mode == "geodetic":
        coords = rules.fields(("lat", "lon", "alt"))
        lat, lon, alt = (rules.numbers(coords[key], key) for key in ("lat", "lon", "alt"))
        rules.check((-90.0 <= lat) & (lat <= 90.0), lambda k: f"latitude {lat[k]} outside [-90, 90]")
        # Finite altitudes far apart overflow, quietly, and are refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            position = _enu(lat, lon, alt)
    else:
        coords = rules.fields(("x", "y", "z"))
        position = np.stack([rules.numbers(coords[key], key) for key in ("x", "y", "z")], axis=-1)
    angles = [rules.numbers(values[key], key) for key in ("heading", "pitch", "roll")]
    rules.check(np.isfinite(position).all(axis=1), lambda k: "position contains non-finite values")
    rules.unique([frame_id], lambda k: f"frame {frame_id[k]} already has a pose")
    rules.raise_first()
    poses = []
    for row in zip(frame_id.tolist(), position, *(a.tolist() for a in angles)):
        # Checked with the columns, so no __post_init__; assigned in field order, so
        # every record shares one attribute key table.
        pose = CameraPose.__new__(CameraPose)
        pose.frame_id, pose.position, pose.heading, pose.pitch, pose.roll = row
        poses.append(pose)
    return poses


def write_poses(path: str, poses: Iterable[CameraPose]) -> None:
    """Write poses in local coordinates (x/y/z), as `read_poses` reads them."""
    write_jsonl(path, (
        {"frame_id": p.frame_id, **dict(zip("xyz", p.position.tolist())), "heading": p.heading,
         "pitch": p.pitch, "roll": p.roll}
        for p in poses
    ))


# Detection file field -> DetectionTable column.
_DETECTION_FIELDS = {
    "cx": "center_x", "cy": "center_y", "w": "box_w", "h": "box_h", "img_w": "image_w", "img_h": "image_h",
}


def read_detections(path: str) -> DetectionTable:
    """Read detections, one row per record; `confidence` defaults to 1.

    Every record must be a detection `Detection2D` accepts.
    """
    return _detections(_read_jsonl(path))


def _detections(rules: _Rules) -> DetectionTable:
    values = rules.fields(("frame_id", *_DETECTION_FIELDS, "category"))
    frame_id, _ = rules.ids(values["frame_id"], "frame_id")
    numbers = {column: rules.numbers(values[key], key) for key, column in _DETECTION_FIELDS.items()}
    category = rules.strings(values["category"], "category")
    confidence = rules.numbers([r.get("confidence", 1.0) for r in rules.records], "confidence")
    table = DetectionTable(frame_id=frame_id, category=category, confidence=confidence, **numbers)
    rules.record_rules(DETECTION_RULES, table)
    rules.raise_first()
    return table


def write_detections(path: str, detections: Iterable[Detection2D]) -> None:
    """Write detections with the fields `read_detections` reads."""
    fields = {"frame_id": "frame_id", **_DETECTION_FIELDS, "category": "category", "confidence": "confidence"}
    write_jsonl(path, ({key: getattr(d, name) for key, name in fields.items()} for d in detections))


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


def read_score_triplets(path: str, obs_ids: Collection[int]) -> ScoreTriplets:
    """Read external matcher scores of the observations `obs_ids`.

    Both ids of a score must be in `obs_ids` and differ, the score must lie
    in [0, 1], and no unordered pair may be scored twice, in either order.
    """
    return _score_triplets(_read_jsonl(path), np.fromiter(obs_ids, dtype=np.int64, count=len(obs_ids)))


def _score_triplets(rules: _Rules, known: np.ndarray) -> ScoreTriplets:
    values = rules.fields(("obs_a", "obs_b", "score"))
    (a, a_fits), (b, b_fits) = (rules.ids(values[key], key, any_size=True) for key in ("obs_a", "obs_b"))
    score = rules.numbers(values["score"], "score")
    rules.check((0.0 <= score) & (score <= 1.0), lambda k: f"score {score[k]} outside [0, 1]")
    # An id of 2**63 or more holds 0 in its column, so compare it as read.
    same = a == b if (a_fits & b_fits).all() else np.array(
        [x == y for x, y in zip(values["obs_a"], values["obs_b"])], dtype=bool)
    rules.check(~same, lambda k: f"self-pair ({values['obs_a'][k]}, {values['obs_b'][k]})")
    for key, column, fits in (("obs_a", a, a_fits), ("obs_b", b, b_fits)):
        rules.check(fits & np.isin(column, known), lambda k, key=key: f"unknown observation {values[key][k]}")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    rules.unique([lo, hi], lambda k: f"pair {(int(lo[k]), int(hi[k]))} is already scored")
    rules.raise_first()
    return ScoreTriplets(a, b, score)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` as UTF-8, as `_atomic_write` writes bytes."""
    _atomic_write(path, text.encode("utf-8"))


def _atomic_write(path: str, data: bytes) -> None:
    """Write `data` to `path` via a temp file and atomic rename, making its directory if need be.

    Raises:
        OutputError: if it cannot be written, say because a directory on the path is a file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


# The options of every file written; see the module docstring.
_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


def _number(value):
    """orjson's `default`: a numpy scalar as the Python number it holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _refuse_non_finite(value) -> None:
    """Raise ValueError if a float in `value`, at any depth, is NaN or infinite."""
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    elif isinstance(value, dict):
        for item in value.values():
            _refuse_non_finite(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _refuse_non_finite(item)


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    """Write one JSON object per line. A file of one record is one JSON
    document, as `truth.json` and `report.json` are written.

    Raises:
        ValueError: if a record holds NaN or an infinity, before anything is written.
    """
    records = list(records)
    lines = [orjson.dumps(r, default=_number, option=_OPTIONS) for r in records]
    data = b"".join(lines)
    # orjson writes NaN and infinities as null. Each null written is a None, a
    # NaN or infinity, or part of a string; so records hold no NaN or infinity
    # if no more nulls are written than they have None values at their top
    # level, or if they equal what their lines read back as. Otherwise they
    # are searched.
    nulls = data.count(b"null")
    if (nulls and nulls > sum(map(countOf, map(dict.values, records), repeat(None)))
            and list(map(orjson.loads, lines)) != records):
        _refuse_non_finite(records)
    _atomic_write(path, data)


# The fields of an observation record: the columns of an `ObservationTable`,
# exposure and direction one field per coordinate.
_OBSERVATION_FIELDS = ("obs_id", "frame_id", "category", "px", "py", "pz", "dx", "dy", "dz", "w_norm", "h_norm")


def write_observations(path: str, table: ObservationTable) -> None:
    columns = [
        table.obs_id.tolist(), table.frame_id.tolist(), table.category.tolist(), *table.exposure.T.tolist(),
        *table.direction.T.tolist(), table.box_w_norm.tolist(), table.box_h_norm.tolist(),
    ]
    write_jsonl(path, (dict(zip(_OBSERVATION_FIELDS, row)) for row in zip(*columns)))


def read_observations(path: str) -> ObservationTable:
    """Read observation records as one table; no two may share an obs_id.

    A record's direction is normalized, and must then be a unit vector;
    every record must be an observation `Observation` accepts.
    """
    return _observations(_read_jsonl(path))


def _observations(rules: _Rules) -> ObservationTable:
    values = rules.fields(_OBSERVATION_FIELDS)
    direction = np.stack([rules.numbers(values[key], key) for key in ("dx", "dy", "dz")], axis=-1)
    # The squares of a direction whose norm lies outside [1e-100, 1e100] may
    # under- or overflow, so such a row is divided by its largest component
    # before it is normalized; every other row is normalized as it is. A
    # zero direction keeps its zero norm and is refused below.
    with np.errstate(all="ignore"):
        norm = np.linalg.norm(direction, axis=1)
        rescale = ~((1e-100 <= norm) & (norm <= 1e100)) & direction.any(axis=1)
        scaled = direction[rescale] / np.abs(direction[rescale]).max(axis=1, keepdims=True)
        direction[rescale], norm[rescale] = scaled, np.linalg.norm(scaled, axis=1)
        direction = direction / norm[:, None]
    rules.check(norm != 0, lambda k: "zero direction vector")
    obs_id, _ = rules.ids(values["obs_id"], "obs_id")
    frame_id, _ = rules.ids(values["frame_id"], "frame_id")
    table = ObservationTable(
        obs_id=obs_id,
        frame_id=frame_id,
        category=rules.strings(values["category"], "category"),
        exposure=np.stack([rules.numbers(values[key], key) for key in ("px", "py", "pz")], axis=-1),
        direction=direction,
        box_w_norm=rules.numbers(values["w_norm"], "w_norm"),
        box_h_norm=rules.numbers(values["h_norm"], "h_norm"),
    )
    rules.record_rules(OBSERVATION_RULES, table)
    rules.unique([obs_id], lambda k: f"obs_id {values['obs_id'][k]} is already used")
    rules.raise_first()
    return table


def write_clusters(path: str, clusters: ClusterTable) -> None:
    """Write one record per cluster, in id order, as `read_clusters` reads them.

    Members are in id order; center and residuals are null together.
    """
    columns = (clusters.cluster_id.tolist(), clusters.runs(clusters.member), clusters.center.tolist(),
               clusters.runs(clusters.residual), clusters.localized.tolist())
    write_jsonl(path, (
        {"cluster_id": cluster_id, "members": members, "center": center if localized else None,
         "residuals": residuals if localized else None}
        for cluster_id, members, center, residuals, localized in zip(*columns)
    ))


def read_clusters(path: str, obs_ids: Collection[int]) -> ClusterTable:
    """Read clusters of the observations `obs_ids`, as one table.

    Cluster ids must be unique integers that fit 64 bits. Members must be a
    non-empty list of integers from `obs_ids`, and no observation may be a
    member of two clusters. A center is null or 3 finite numbers; residuals
    are null with it and otherwise one finite number per member, in member
    order.
    """
    return _clusters(_read_jsonl(path), obs_ids)


def _clusters(rules: _Rules, obs_ids: Collection[int]) -> ClusterTable:
    values = rules.fields(("cluster_id", "members"))
    members = rules.members(values["members"], "members")
    rules.check(np.array([all(m in obs_ids for m in v) for v in members], dtype=bool),
                lambda k: f"unknown observation {next(m for m in members[k] if m not in obs_ids)}")
    residuals = [r.get("residuals") for r in rules.records]
    center = rules.points([r.get("center") for r in rules.records], "center")
    null = np.isnan(center[:, 0])
    rules.check(~null | np.array([r is None for r in residuals], dtype=bool),
                lambda k: "residuals must be null when center is null")
    rules.check(null | np.array([isinstance(r, list) and len(r) == len(v) and all(map(_is_number, r))
                                 for r, v in zip(residuals, members)], dtype=bool),
                lambda k: "residuals must be one finite number per member")
    cluster_id, _ = rules.ids(values["cluster_id"], "cluster_id")
    rules.unique([cluster_id], lambda k: f"cluster_id {cluster_id[k]} is already used")
    rules.raise_first()
    residual = [x for v, r in zip(members, residuals) for x in ([math.nan] * len(v) if r is None else r)]
    return ClusterTable.grouped(np.repeat(cluster_id, [len(v) for v in members]),
                                [m for v in members for m in v], residual, cluster_id, center)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: an int or a float, never a bool."""
    return type(value) in (int, float) and math.isfinite(value)


def _is_point(value) -> bool:
    return isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))


def read_inventory(path: str) -> list[dict]:
    """Read inventory records written by the run/evaluate pipeline.

    Each record needs a string category, a center that is null or three
    finite numbers, and a non-empty list of integer members; no
    observation may be a member of two records. The fields no rule reads
    are returned as orjson reads them.
    """
    rules = _read_jsonl(path)
    values = rules.fields(("object_id", "category", "center", "n_observations", "max_residual", "members"))
    rules.strings(values["category"], "category")
    rules.points(values["center"], "center")
    rules.members(values["members"], "members")
    rules.raise_first()
    return rules.records


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
    write_jsonl(path, [payload])


def read_truth(path: str):
    """Read scene ground truth: one JSON object holding `objects`, whose
    `object_id`s are 0..n-1, and `observations`, each naming its object's
    id, or null for clutter. No two observations may share an `obs_id`.

    The objects are checked in id order. Entries have no line, so an error
    names the file alone. The file is decoded as a JSON line is.
    """
    payload, refusal = _json_objects([read_text(path)])
    if refusal:
        raise DataError(f"{path}: {refusal}")
    return _truth(path, payload[0])


def _truth(path: str, document: dict):
    from .simulator import GroundTruth, SceneObject

    payload = _Rules(path, [document])
    lists = payload.fields(("objects", "observations"))
    for key, (value,) in lists.items():
        payload.check(np.array([isinstance(value, list) and set(map(type, value)) <= {dict}]),
                      lambda k, key=key: f"{key} must be a list of JSON objects")
    payload.raise_first()

    numbered = _Rules(path, lists["objects"][0])
    object_id, fits = numbered.ids(numbered.fields(("object_id",))["object_id"], "object_id", any_size=True)
    numbered.raise_first()
    if not (fits.all() and np.array_equal(np.sort(object_id), np.arange(len(object_id)))):
        raise DataError(f"{path}: object ids must be 0..n-1")
    objects = _Rules(path, [numbered.records[k] for k in np.argsort(object_id)])
    values = objects.fields(("category", "center", "height"))
    category = objects.strings(values["category"], "category")
    objects.check(np.array(list(map(_is_point, values["center"])), dtype=bool),
                  lambda k: f"center must be 3 finite numbers, got {values['center'][k]!r}")
    height = objects.numbers(values["height"], "height")
    objects.check((0.0 < height) & (height < math.inf), lambda k: "height must be positive and finite")
    objects.raise_first()
    center = np.array(values["center"], dtype=float).reshape(-1, 3)

    observations = _Rules(path, lists["observations"][0])
    obs_id, _ = observations.ids(observations.fields(("obs_id",))["obs_id"], "obs_id")
    observations.unique([obs_id], lambda k: f"duplicate observation id {obs_id[k]}")
    named = observations.fields(("object_id",))["object_id"]
    clutter = np.array([v is None for v in named], dtype=bool)
    object_of, fits = observations.ids([0 if v is None else v for v in named], "object_id", any_size=True)
    n = len(object_id)
    observations.check(clutter | (fits & (0 <= object_of) & (object_of < n)),
                       lambda k: f"observation {obs_id[k]} names object {named[k]}, outside 0..{n - 1}")
    observations.raise_first()
    objects = []
    for row in zip(category.tolist(), center, height.tolist()):
        # Checked with the columns, so no __post_init__.
        obj = SceneObject.__new__(SceneObject)
        obj.category, obj.center, obj.height = row
        objects.append(obj)
    return GroundTruth(
        objects=objects,
        obs_ids=obs_id.tolist(),
        object_of=dict(zip(obs_id.tolist(), named)),
    )


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
