"""File boundary: each reader's one rule path against the per-record oracle, and geodetic poses."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streetinv import ClusterTable
from streetinv import io as sio
from streetinv.cli import EXIT_DATA, main

from conftest import (
    oracle_geodetic_to_enu,
    oracle_read_clusters,
    oracle_read_detections,
    oracle_read_inventory,
    oracle_read_observations,
    oracle_read_poses,
    oracle_read_score_triplets,
    orjson_refusal,
)

# Written as the JSON number 1e999, which reads as infinity.
_OVERFLOW = "__1e999__"
# Values a mutation may set a field to, besides those of the other fields.
_ODD = [_OVERFLOW, "1.5", "x", True, False, None, 2**63, -(2**63) - 1, 10**400, -1, 0, -0.0,
        5e-324, 0.5, 1.0, 1.5, 1e200, 1e300, [1], {}]

_numbers = st.one_of(st.integers(0, 1000), st.floats(0, 1000))
_detections = st.lists(st.fixed_dictionaries(
    {"frame_id": st.integers(0, 3), "cx": _numbers, "cy": _numbers, "w": st.floats(1, 50),
     "h": st.integers(1, 50), "img_w": st.sampled_from([1000, 4096.0]), "img_h": st.just(1000.0),
     "category": st.sampled_from(["bollard", "sign"])},
    optional={"confidence": st.floats(0, 1)},
), max_size=5)
_observations = st.lists(st.fixed_dictionaries(
    {"frame_id": st.integers(0, 3), "category": st.sampled_from(["bollard", "sign"]),
     "px": st.floats(-100, 100), "py": st.floats(-100, 100), "pz": st.integers(0, 3),
     "direction": st.sampled_from([(1, 0, 0), (0, 0, 1.0), (0.6, 0.8, 0.0), (3, 4, 0), (-0.2, 0.9, 0.1)]),
     "w_norm": st.floats(0.001, 1), "h_norm": st.sampled_from([0.5, 1, 1.0])},
), max_size=5).map(lambda records: [
    {"obs_id": k, **{key: v for key, v in r.items() if key != "direction"},
     **dict(zip(("dx", "dy", "dz"), r["direction"]))}
    for k, r in enumerate(records)
])
_KNOWN = np.arange(6)
_scores = st.lists(st.fixed_dictionaries(
    {"obs_a": st.integers(0, 5), "obs_b": st.integers(0, 5), "score": st.one_of(st.floats(0, 1), st.just(1))}
).filter(lambda r: r["obs_a"] != r["obs_b"]), max_size=5, unique_by=lambda r: frozenset((r["obs_a"], r["obs_b"])))
_angles = {"heading": st.floats(-3.2, 3.2), "pitch": st.sampled_from([0, 0.0, -0.1]), "roll": st.floats(-0.1, 0.1)}
_local_poses = st.lists(st.fixed_dictionaries(
    {"x": st.floats(-1e3, 1e3), "y": _numbers, "z": st.integers(0, 3), **_angles}
), max_size=5).map(lambda records: [{"frame_id": k, **r} for k, r in enumerate(records)])
_geodetic_poses = st.lists(st.fixed_dictionaries(
    {"lat": st.one_of(st.floats(-90, 90), st.sampled_from([90, -90.0, 48.1])), "lon": st.floats(-180, 180),
     "alt": st.one_of(st.floats(-100, 3000), st.integers(0, 600)), **_angles}
), max_size=5).map(lambda records: [{"frame_id": k, **r} for k, r in enumerate(records)])
# An observation outside `_KNOWN`, or beyond 64 bits, that a member list sometimes holds.
_STRAY = st.sampled_from([6, 2**63, 2**64, -(2**63) - 1])


@st.composite
def _groups(draw):
    """Disjoint member lists of `_KNOWN` ids, now and then with a stray or repeated entry."""
    ids = draw(st.permutations(_KNOWN.tolist()))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), max_size=3)))
    groups = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(ids)])]
    groups = groups[draw(st.integers(0, len(groups))):]
    for members in groups:
        if draw(st.integers(0, 5)) == 0:
            members.insert(draw(st.integers(0, len(members))), draw(st.one_of(_STRAY, st.sampled_from(members))))
    return groups


@st.composite
def _clusters(draw):
    records = []
    for k, members in enumerate(draw(_groups())):
        record = {"cluster_id": k, "members": members}
        fit = draw(st.sampled_from(["none", "null", "center"]))
        if fit == "null":
            record.update(center=None, residuals=None)
        elif fit == "center":
            record["center"] = draw(st.lists(_numbers, min_size=3, max_size=3))
            record["residuals"] = draw(st.lists(st.floats(0, 1), min_size=len(members), max_size=len(members)))
        records.append(record)
    return records


@st.composite
def _inventory(draw):
    return [
        {"object_id": k, "category": draw(st.sampled_from(["bollard", "sign"])),
         "center": draw(st.one_of(st.none(), st.lists(st.floats(-50, 50), min_size=3, max_size=3))),
         "n_observations": len(members), "max_residual": draw(st.one_of(st.none(), st.floats(0, 1))),
         "members": members}
        for k, members in enumerate(draw(_groups()))
    ]


@st.composite
def _file(draw, records):
    """The text of a JSON lines file of valid `records`, some mutated, with blank lines among them.

    A mutated record has each field dropped, set to an odd value or set to a
    value of any field of any record (another id, so a repeat or self-pair),
    each with some chance, so one record often breaks several rules.
    """
    records = draw(records)
    taken = [v for r in records for v in r.values()]
    keys = sorted({k for r in records for k in r})
    for record in records:
        if draw(st.integers(0, 2)) == 0:
            for key in keys:
                kind = draw(st.integers(0, 29))
                if kind == 0:
                    record.pop(key, None)
                elif kind <= 6:
                    record[key] = draw(st.sampled_from(_ODD if kind <= 4 else taken))
    lines = [json.dumps(r) for r in records]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   "])))
    return "\n".join(lines).replace(json.dumps(_OVERFLOW), "1e999") + "\n"


def _text(*records):
    """A JSON lines file of `records`, one per line."""
    return "".join(json.dumps(r) + "\n" for r in records)


# Records that break several rules at once: the first rule must win.
_DETECTION = {"frame_id": 0, "cx": 5, "cy": 5.0, "w": 2, "h": 2, "img_w": 10, "img_h": 10.0, "category": "a"}
_OBSERVATION = {"obs_id": 0, "frame_id": 0, "category": "a", "px": 0, "py": 0.0, "pz": 0, "dx": 0, "dy": 0,
                "dz": 1, "w_norm": 0.5, "h_norm": 0.5}
_SCORE = {"obs_a": 0, "obs_b": 1, "score": 0.5}
_POSE = {"frame_id": 0, "x": 1.5, "y": 0, "z": 2.5, "heading": 0.1, "pitch": 0, "roll": 0.0}
_GEODETIC = {"frame_id": 0, "lat": 48.1, "lon": 11.5, "alt": 500, "heading": 0.1, "pitch": 0, "roll": 0.0}
_CLUSTER = {"cluster_id": 0, "members": [0, 1], "center": [1.0, 2, -3.5], "residuals": [0.5, 0]}
_RECORD = {"object_id": 0, "category": "a", "center": None, "n_observations": 2, "max_residual": None,
           "members": [0, 1]}


def _outcome(read, *args):
    """What a reader returns, or its DataError's text."""
    try:
        return read(*args)
    except sio.DataError as exc:
        return str(exc)


def _table_columns(table):
    return [getattr(table, f.name) for f in dataclasses.fields(table)]


# The repr of a value names its type and holds every bit of a float.
def _pose_columns(poses):
    return [np.array([repr((p.frame_id, p.heading, p.pitch, p.roll)) for p in poses], dtype=object),
            np.array([p.position for p in poses], dtype=float).reshape(-1, 3)]


def _record_columns(records):
    return [np.array([repr(r) for r in records], dtype=object)]


def _oracle_read_clusters(path, obs_ids):
    # The oracle's records become a table at the boundary.
    return ClusterTable.from_records(oracle_read_clusters(path, obs_ids))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("files") / "records.jsonl")


def _assert_same(path, text, read, oracle, columns, *args):
    """`read` and `oracle` of the file `text` raise the same DataError text, or return the same columns."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    new = _outcome(read, path, *args)
    # The per-record norm of a huge direction overflows, with a warning.
    with np.errstate(all="ignore"):
        old = _outcome(oracle, path, *args)
    if type(new) is str or type(old) is str:
        assert new == old
        return
    for column, expected in zip(columns(new), old if type(old) is tuple else columns(old), strict=True):
        assert column.dtype == expected.dtype and column.shape == expected.shape
        if column.dtype == object:
            assert column.tolist() == expected.tolist()
        else:
            assert column.tobytes() == expected.tobytes()


class TestReadersMatchPerRecordOracle:
    """Each reader refuses exactly what the per-record checks refused, with the same
    message, and reads what they accepted into the same columns, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(text=_file(_detections))
    @example(text=_text(dict(_DETECTION, cx=-1, cy=-1)))
    @example(text=_text(dict(_DETECTION, img_w=0, cx=20)))
    @example(text=_text(dict(_DETECTION, w=20, confidence=2)))
    @example(text=_text(dict(_DETECTION, frame_id=2**63, cx="5")))
    @example(text=_text(_DETECTION, dict(_DETECTION, category=None, cy=20)))
    def test_detections(self, path, text):
        _assert_same(path, text, sio.read_detections, oracle_read_detections, _table_columns)

    @settings(max_examples=300, deadline=None)
    @given(text=_file(_observations))
    @example(text=_text(dict(_OBSERVATION, dz=0, obs_id="x")))
    @example(text=_text(dict(_OBSERVATION, dx=1e200, dy=1e200, w_norm=1.5)))
    @example(text=_text(dict(_OBSERVATION, obs_id=2**63, frame_id="x")))
    @example(text=_text(_OBSERVATION, dict(_OBSERVATION, h_norm=0)))
    @example(text=_text(_OBSERVATION, dict(_OBSERVATION, obs_id=1), _OBSERVATION))
    @example(text=_text(dict(_OBSERVATION, category=7, px="x")))
    def test_observations(self, path, text):
        _assert_same(path, text, sio.read_observations, oracle_read_observations, _table_columns)

    @settings(max_examples=300, deadline=None)
    @given(text=_file(_scores))
    @example(text=_text(dict(_SCORE, obs_b=0, score=1.5)))
    @example(text=_text(dict(_SCORE, obs_a=9, obs_b=9)))
    @example(text=_text(dict(_SCORE, obs_a=2**63, obs_b=2**63)))
    @example(text=_text(dict(_SCORE, obs_a=2**64, obs_b=2**63)))
    @example(text=_text(dict(_SCORE, obs_a=7, score=-1)))
    @example(text=_text(_SCORE, dict(_SCORE, obs_a=1, obs_b=0, score="x")))
    @example(text=_text(_SCORE, dict(_SCORE, obs_b=2), dict(_SCORE, obs_a=1, obs_b=0)))
    def test_scores(self, path, text):
        _assert_same(path, text, sio.read_score_triplets, oracle_read_score_triplets,
                     lambda scores: [scores.obs_a, scores.obs_b, scores.score], _KNOWN)

    @settings(max_examples=300, deadline=None)
    @given(text=_file(_local_poses))
    @example(text=_text(dict(_POSE, frame_id=2**63, x="1")))
    @example(text=_text(_POSE, dict(_POSE, heading=None), dict(_POSE, y=0.5)))
    @example(text=_text(dict(_POSE, lat=48.0), {"frame_id": 1}))
    def test_local_poses(self, path, text):
        _assert_same(path, text, sio.read_poses, oracle_read_poses, _pose_columns)

    @settings(max_examples=300, deadline=None)
    @given(text=_file(_geodetic_poses))
    @example(text=_text(dict(_GEODETIC, lat=91), dict(_GEODETIC, frame_id=1, roll="x")))
    @example(text=_text(_GEODETIC, dict(_GEODETIC, frame_id=1, lat=-90.5, heading=True)))
    @example(text=_text(dict(_GEODETIC, x=0, alt=None), dict(_GEODETIC, frame_id="1")))
    # Finite altitudes whose conversion overflows, before a later record's missing field.
    @example(text=_text(dict(_GEODETIC, alt=-1.7e308), dict(_GEODETIC, frame_id=1, alt=1.7e308),
                        {"frame_id": 2, "lat": 0}))
    def test_geodetic_poses(self, path, text):
        _assert_same(path, text, sio.read_poses, oracle_read_poses, _pose_columns, "geodetic")

    @settings(max_examples=300, deadline=None)
    @given(text=_file(_clusters()))
    @example(text=_text(dict(_CLUSTER, cluster_id=2**63)))
    @example(text=_text(dict(_CLUSTER, cluster_id=1.5, members=[0, 9], center=[1, 2])))
    @example(text=_text(dict(_CLUSTER, members=[0]), dict(_CLUSTER, cluster_id=1, members=[2**64, 0])))
    @example(text=_text(dict(_CLUSTER, members=[2**64]), dict(_CLUSTER, cluster_id=1, members=[0, 1])))
    @example(text=_text(dict(_CLUSTER, members=[3, 3])))
    @example(text=_text(dict(_CLUSTER, members=[0, 7, 2**64])))
    @example(text=_text(_CLUSTER, dict(_CLUSTER, cluster_id=1, members=[2, 1, 0])))
    @example(text=_text(dict(_CLUSTER, center=None), dict(_CLUSTER, cluster_id=0, members=[2, 3])))
    @example(text=_text(dict(_CLUSTER, residuals=[0.5]), {"cluster_id": 1, "members": [2], "residuals": None}))
    def test_clusters(self, path, text):
        _assert_same(path, text, sio.read_clusters, _oracle_read_clusters, _table_columns, set(_KNOWN.tolist()))

    @settings(max_examples=300, deadline=None)
    @given(text=_file(_inventory()))
    @example(text=_text(dict(_RECORD, category=7, center="x")))
    @example(text=_text(dict(_RECORD, center=[1, 2, "3"], members=[])))
    @example(text=_text(_RECORD, dict(_RECORD, members=[5, 2**64, 1])))
    @example(text=_text(dict(_RECORD, members=[2**64]), dict(_RECORD, members=[0, 2**64])))
    def test_inventory(self, path, text):
        _assert_same(path, text, sio.read_inventory, oracle_read_inventory, _record_columns)


# JSON text that orjson reads otherwise than Python's own decoder would:
# integers beyond 64 bits, which it reads as floats, and overflowing exponents
# and escaped lone surrogates, which it refuses as malformed. Then arrays
# nested to the limit, in a record one level deeper, and past it, and
# brackets in a string, which do not nest.
_TOKENS = ["18446744073709551616", "-9223372036854775809", "-18446744073709551617", "1e400", "-1e400",
           '"\\ud800"', '"x\\udc00"', "[" * 511 + "]" * 511, "[" * 600 + "]" * 600, json.dumps("[" * 600)]


@st.composite
def _raw_file(draw, records):
    """The text of a JSON lines file of valid `records`, written key by key.

    In some records a value is swapped for one of `_TOKENS` or another value
    of the record, or a key is given twice, its last value winning. Blank
    lines fall among the records, and lines end in LF or CRLF.
    """
    lines = []
    for record in draw(records):
        pairs = [[json.dumps(key), json.dumps(value)] for key, value in record.items()]
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            at = draw(st.integers(0, len(pairs) - 1))
            value = draw(st.sampled_from(_TOKENS + [v for _, v in pairs]))
            if draw(st.booleans()):
                pairs[at][1] = value
            else:
                pairs.insert(draw(st.integers(0, len(pairs))), [pairs[at][0], value])
        lines.append("{" + ", ".join(f"{key}: {value}" for key, value in pairs) + "}")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


class TestRawTokensReadAsTheOracle:
    """Each reader refuses a file of raw tokens, or reads it, as the per-record oracle,
    which decodes each line with orjson on its own, does."""

    @settings(max_examples=200, deadline=None)
    @given(text=_raw_file(_detections))
    @example(text='{"frame_id": 18446744073709551616, "cx": 1e400}\n')
    def test_detections(self, path, text):
        _assert_same(path, text, sio.read_detections, oracle_read_detections, _table_columns)

    @settings(max_examples=200, deadline=None)
    @given(text=_raw_file(_scores))
    @example(text='{"obs_a": 0, "obs_b": 18446744073709551617, "score": 0.5}\r\n')
    def test_scores(self, path, text):
        _assert_same(path, text, sio.read_score_triplets, oracle_read_score_triplets,
                     lambda scores: [scores.obs_a, scores.obs_b, scores.score], _KNOWN)

    @settings(max_examples=200, deadline=None)
    @given(text=_raw_file(_local_poses))
    # A coordinate beyond 64 bits is a finite number: orjson's float.
    @example(text=_text(dict(_POSE, x=2**64 + 1, y=-(2**70)), dict(_POSE, frame_id=1, z=3**50)))
    @example(text=_text(dict(_POSE, heading=0.25, frame_id=1)).replace("0.25", '"\\ud800"'))
    def test_poses(self, path, text):
        _assert_same(path, text, sio.read_poses, oracle_read_poses, _pose_columns)

    @settings(max_examples=200, deadline=None)
    @given(text=_raw_file(_clusters()))
    @example(text=_text(dict(_CLUSTER, center=[2**64, 0, 1], residuals=[0, 2**65])))
    def test_clusters(self, path, text):
        _assert_same(path, text, sio.read_clusters, _oracle_read_clusters, _table_columns, set(_KNOWN.tolist()))


# 2**63 fits an unsigned 64-bit integer, so orjson reads it as an integer, outside
# the range of an id; the others it reads as floats, which are not integers.
_WIDE = [2**63, 2**64, -(2**63) - 1]


class TestIdsBeyond64Bits:
    """An id of 2**63 is worded as the integer it is; one beyond 64 bits, which orjson
    reads as a float, is refused as not an integer."""

    @staticmethod
    def _refusal(path, text, read, *args):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with pytest.raises(sio.DataError) as refused:
            read(path, *args)
        return str(refused.value)

    @pytest.mark.parametrize("wide", _WIDE)
    @pytest.mark.parametrize("read, record, field, args", [
        (sio.read_poses, _POSE, "frame_id", ()),
        (sio.read_detections, _DETECTION, "frame_id", ()),
        (sio.read_observations, _OBSERVATION, "obs_id", ()),
        (sio.read_observations, _OBSERVATION, "frame_id", ()),
        (sio.read_clusters, _CLUSTER, "cluster_id", ({0, 1},)),
    ], ids=["poses-frame_id", "detections-frame_id", "observations-obs_id", "observations-frame_id",
            "clusters-cluster_id"])
    def test_id_outside_the_range(self, path, read, record, field, args, wide):
        text = "\n" + _text(dict(record, **{field: wide}))
        assert self._refusal(path, text, read, *args) == f"{path}:2: " + (
            f"{field} {wide} is outside the 64-bit integer range" if wide == 2**63 else
            f"{field} must be an integer, got {float(wide)!r}")

    @pytest.mark.parametrize("wide", _WIDE)
    @pytest.mark.parametrize("read, record, field, args", [
        (sio.read_score_triplets, _SCORE, "obs_a", (_KNOWN,)),
        (sio.read_score_triplets, _SCORE, "obs_b", (_KNOWN,)),
        (sio.read_clusters, _CLUSTER, "members", ({0, 1},)),
    ], ids=["scores-obs_a", "scores-obs_b", "clusters-members"])
    def test_observation_id_is_unknown(self, path, read, record, field, args, wide):
        text = _text(dict(record, **{field: [0, wide] if field == "members" else wide}))
        assert self._refusal(path, text, read, *args) == f"{path}:1: " + (
            f"unknown observation {wide}" if wide == 2**63 else
            "members must be a non-empty list of integers" if field == "members" else
            f"{field} must be an integer, got {float(wide)!r}")

    @pytest.mark.parametrize("wide", _WIDE)
    @pytest.mark.parametrize("entries, entry, message", [
        ("objects", {"object_id": "wide"}, "object ids must be 0..n-1"),
        ("observations", {"obs_id": "wide"}, "obs_id {wide} is outside the 64-bit integer range"),
        ("observations", {"object_id": "wide"}, "observation 0 names object {wide}, outside 0..0"),
    ], ids=["object_id", "obs_id", "observation-object_id"])
    def test_truth(self, path, entries, entry, message, wide):
        truth = {"objects": [{"object_id": 0, "category": "a", "center": [0, 0, 0], "height": 1.0}],
                 "observations": [{"obs_id": 0, "object_id": 0}]}
        truth[entries][0].update({key: wide for key in entry})
        if wide != 2**63:
            message = f"{next(iter(entry))} must be an integer, got {float(wide)!r}"
        assert self._refusal(path, json.dumps(truth), sio.read_truth) == f"{path}: {message.format(wide=wide)}"

    @pytest.mark.parametrize("wide", _WIDE)
    def test_inventory_returns_unchecked_fields_as_orjson_reads_them(self, path, wide):
        # An inventory record is returned whole, unchecked fields too: an
        # integer beyond 64 bits among them reads as a float.
        record = dict(_RECORD, object_id=wide, max_residual=[wide, 0.5])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_text(_RECORD | {"members": [2]}, record))
        read = wide if wide == 2**63 else float(wide)
        assert repr(sio.read_inventory(path)) == repr(
            [_RECORD | {"members": [2]}, dict(record, object_id=read, max_residual=[read, 0.5])])


def _nested(depth):
    """The JSON text of a list nested `depth` levels deep."""
    return "[" * depth + "]" * depth


class TestDeepValues:
    """A line nested deeper than `MAX_NESTING` is refused before it is decoded; one
    within it is decoded, and a rule's message prints its deepest value."""

    def _write(self, path, cx):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_text(_DETECTION) + json.dumps(_DETECTION).replace('"cx": 5', '"cx": ' + cx))

    def test_checked_field_at_the_limit(self, path):
        # The record is one level, so the line nests exactly as deep as the limit.
        self._write(path, _nested(sio.MAX_NESTING - 1))
        with pytest.raises(sio.DataError) as refused:
            sio.read_detections(path)
        assert str(refused.value) == f"{path}:2: cx must be a finite number, got {_nested(sio.MAX_NESTING - 1)}"

    @pytest.mark.parametrize("depth", [sio.MAX_NESTING, 1010, 100_000])
    def test_line_deeper_than_the_limit(self, path, depth):
        self._write(path, _nested(depth))
        with pytest.raises(sio.DataError) as refused:
            sio.read_detections(path)
        assert str(refused.value) == f"{path}:2: JSON nested too deep"

    @pytest.mark.parametrize("text", [
        '"' + "[" * 2000 + '"',
        '"\\"' + "{" * 2000 + '"',
        '["\\\\", "' + "[" * 2000 + '"]',
    ], ids=["brackets-in-a-string", "after-an-escaped-quote", "after-an-escaped-backslash"])
    def test_brackets_in_strings_do_not_count(self, path, text):
        # Its strings left out, each line nests at most three levels deep.
        self._write(path, text)
        with pytest.raises(sio.DataError) as refused:
            sio.read_detections(path)
        assert str(refused.value).startswith(f"{path}:2: cx must be a finite number, got ")

    def test_unclosed_string_hides_its_brackets(self, path):
        self._write(path, '"' + "[" * 2000)
        with pytest.raises(sio.DataError) as refused:
            sio.read_detections(path)
        assert str(refused.value).startswith(f"{path}:2: malformed JSON: ")

    def test_unclosed_brackets_count(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_text(_DETECTION) + '{"cx": ' + "[" * (sio.MAX_NESTING + 1))
        with pytest.raises(sio.DataError) as refused:
            sio.read_detections(path)
        assert str(refused.value) == f"{path}:2: JSON nested too deep"

    def test_first_bad_line_is_named(self, path):
        # A malformed line before a deep one is named; so is a deep line before a malformed one.
        deep = json.dumps(_DETECTION).replace('"cx": 5', '"cx": ' + _nested(1010))
        for lines, line in ((["{", deep], 1), ([deep, "{"], 1), (["[1]", deep], 1)):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            with pytest.raises(sio.DataError) as refused:
                sio.read_detections(path)
            assert str(refused.value).startswith(f"{path}:{line}: ")

    def test_truth_deeper_than_the_limit(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"objects": [], "observations": [], "note": ' + _nested(sio.MAX_NESTING) + "}")
        with pytest.raises(sio.DataError) as refused:
            sio.read_truth(path)
        assert str(refused.value) == f"{path}: JSON nested too deep"

    def test_run_exits_2(self, tmp_path, capsys):
        poses, detections, out = (str(tmp_path / name) for name in ("poses.jsonl", "detections.jsonl", "out"))
        _write_poses(poses, [_POSE])
        self._write(detections, _nested(1010))
        assert main(["run", "--poses", poses, "--detections", detections, "--out", out]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {detections}:2: JSON nested too deep\n"


class TestLongIntegers:
    """An integer literal too long for a float, which orjson refuses, is malformed JSON naming its line."""

    _DIGITS = "1" * 5000

    def _write(self, path):
        line = json.dumps(_DETECTION).replace('"frame_id": 0', '"frame_id": ' + self._DIGITS)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_text(_DETECTION) + line)

    def test_refused_naming_the_line(self, path):
        self._write(path)
        with pytest.raises(sio.DataError) as refused:
            sio.read_detections(path)
        assert str(refused.value) == f"{path}:2: malformed JSON: {orjson_refusal(self._DIGITS)}"

    def test_run_exits_2(self, tmp_path, capsys):
        poses, detections, out = (str(tmp_path / name) for name in ("poses.jsonl", "detections.jsonl", "out"))
        _write_poses(poses, [_POSE])
        self._write(detections)
        assert main(["run", "--poses", poses, "--detections", detections, "--out", out]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {detections}:2: malformed JSON: {orjson_refusal(self._DIGITS)}\n")


class TestDirectionNorms:
    """A direction whose squares under- or overflow reads as the direction it scales to."""

    @staticmethod
    def _direction(tmp_path, dx, dy, dz):
        path = str(tmp_path / "observations.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_text(dict(_OBSERVATION, dx=dx, dy=dy, dz=dz)))
        return sio.read_observations(path).direction[0]

    @pytest.mark.parametrize("tiny_or_huge, plain", [
        ((1e-160, 1e-160, 0), (1, 1, 0)),  # |d| was read as 1.0000055...
        ((5e-324, 0, 0), (1, 0, 0)),  # was "zero direction vector"
        ((1e200, 1e200, 0), (1, 1, 0)),  # |d| was read as 0.0
        ((-3e-101, 0, 3e-101), (-1, 0, 1)),
    ])
    def test_read_as_its_scaled_direction(self, tmp_path, tiny_or_huge, plain):
        direction = self._direction(tmp_path, *tiny_or_huge)
        assert direction.tobytes() == self._direction(tmp_path, *plain).tobytes()

    def test_a_zero_direction_is_still_refused(self, tmp_path):
        with pytest.raises(sio.DataError, match="zero direction vector$"):
            self._direction(tmp_path, 0, -0.0, 0)

    def test_normal_rows_keep_their_bits(self, tmp_path):
        direction = np.array([0.1, -0.7, 0.3])
        assert self._direction(tmp_path, *direction.tolist()).tobytes() == (
            direction / np.linalg.norm(direction[None], axis=1)).tobytes()


def _write_poses(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps({"heading": 0.1, "pitch": 0.0, "roll": 0.0, **record}) + "\n")


class TestGeodetic:
    @given(lat0=st.floats(-89.0, 89.0), lon0=st.floats(-180.0, 180.0), alt0=st.floats(-100.0, 3000.0),
           dlat=st.floats(-0.01, 0.01), dlon=st.floats(-0.01, 0.01), dalt=st.floats(-50.0, 50.0))
    def test_enu_matches_oracle(self, lat0, lon0, alt0, dlat, dlon, dalt):
        point = (lat0 + dlat, lon0 + dlon, alt0 + dalt)
        np.testing.assert_allclose(sio.geodetic_to_enu(*point, lat0, lon0, alt0),
                                   oracle_geodetic_to_enu(*point, lat0, lon0, alt0), rtol=0, atol=1e-6)

    def test_read_poses_is_enu_about_the_first_pose(self, tmp_path):
        points = [(48.137, 11.575, 520.0), (48.1371, 11.5752, 521.5), (48.1365, 11.5749, 519.0)]
        path = str(tmp_path / "poses.jsonl")
        _write_poses(path, [{"frame_id": k, "lat": lat, "lon": lon, "alt": alt}
                            for k, (lat, lon, alt) in enumerate(points)])
        poses = sio.read_poses(path, "geodetic")
        assert [p.frame_id for p in poses] == [0, 1, 2]
        np.testing.assert_array_equal(poses[0].position, np.zeros(3))
        for pose, point in zip(poses[1:], points[1:]):
            np.testing.assert_allclose(pose.position, oracle_geodetic_to_enu(*point, *points[0]),
                                       rtol=0, atol=1e-6)
            assert 1.0 < np.linalg.norm(pose.position) < 100.0

    @pytest.mark.parametrize("lat", [90, -90.0])
    def test_poles_accepted(self, tmp_path, lat):
        path = str(tmp_path / "poses.jsonl")
        _write_poses(path, [{"frame_id": 0, "lat": lat, "lon": 0, "alt": 0},
                            {"frame_id": 1, "lat": lat, "lon": 1.0, "alt": 0}])
        assert len(sio.read_poses(path, "geodetic")) == 2

    @pytest.mark.parametrize("line, lat", [(1, 91), (2, 91), (2, -90.5), (2, 1e300)])
    def test_latitude_outside_range_is_a_data_error(self, tmp_path, line, lat):
        path = str(tmp_path / "poses.jsonl")
        records = [{"frame_id": k, "lat": 48.0, "lon": 11.0, "alt": 500.0} for k in range(3)]
        records[line - 1]["lat"] = lat
        _write_poses(path, records)
        with pytest.raises(sio.DataError) as refused:
            sio.read_poses(path, "geodetic")
        assert str(refused.value) == f"{path}:{line}: latitude {float(lat)} outside [-90, 90]"

    def test_run_refuses_latitude_91_with_exit_2(self, tmp_path, capsys):
        poses, detections, out = (str(tmp_path / name) for name in ("poses.jsonl", "detections.jsonl", "out"))
        _write_poses(poses, [{"frame_id": 0, "lat": 48.0, "lon": 11.0, "alt": 500.0},
                             {"frame_id": 1, "lat": 91, "lon": 11.0, "alt": 500.0}])
        with open(detections, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"frame_id": 0, "cx": 10, "cy": 10, "w": 5, "h": 5, "img_w": 100,
                                     "img_h": 50, "category": "sign"}) + "\n")
        code = main(["run", "--poses", poses, "--detections", detections, "--out", out,
                     "--coord-mode", "geodetic"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {poses}:2: latitude 91.0 outside [-90, 90]"]
        assert not os.path.exists(out)
