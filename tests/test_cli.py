"""CLI and file boundary: exit codes, rejection of bad input, strict JSON out."""

import json
import os

import numpy as np
import pytest

from streetinv import io as sio
from streetinv.cli import EXIT_DATA, EXIT_OK, main


def _strict_load(text: str):
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _write_lines(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("scene"))
    code = main(["simulate", "--out", out, "--seed", "0", "--n-objects", "6", "--length", "60"])
    assert code == EXIT_OK
    return out


def _run_args(scene_dir, out, detections=None):
    return [
        "run",
        "--poses", os.path.join(scene_dir, "poses.jsonl"),
        "--detections", detections or os.path.join(scene_dir, "detections.jsonl"),
        "--truth", os.path.join(scene_dir, "truth.json"),
        "--out", out,
    ]


class TestRun:
    def test_outputs_are_strict_json(self, scene_dir, tmp_path):
        out = str(tmp_path / "run")
        assert main(_run_args(scene_dir, out)) == EXIT_OK
        records = [_strict_load(line) for line in _read_lines(os.path.join(out, "inventory.jsonl"))]
        assert records and any(r["center"] is not None for r in records)
        with open(os.path.join(out, "report.json"), encoding="utf-8") as handle:
            _strict_load(handle.read())

    def test_box_wider_than_image_is_a_data_error(self, scene_dir, tmp_path, capsys):
        records = [json.loads(line) for line in _read_lines(os.path.join(scene_dir, "detections.jsonl"))]
        records[0]["w"] = records[0]["img_w"] + 10
        bad = str(tmp_path / "detections.jsonl")
        _write_lines(bad, records)
        out = str(tmp_path / "run")
        assert main(_run_args(scene_dir, out, detections=bad)) == EXIT_DATA
        assert f"{bad}:1:" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "inventory.jsonl"))


class TestLocalize:
    def test_nan_direction_is_a_data_error(self, scene_dir, tmp_path, capsys):
        records = [json.loads(line) for line in _read_lines(os.path.join(scene_dir, "observations.jsonl"))]
        records[0]["dx"] = float("nan")
        observations = str(tmp_path / "observations.jsonl")
        _write_lines(observations, records)
        clusters = str(tmp_path / "clusters.jsonl")
        _write_lines(clusters, [{"cluster_id": 0, "members": [records[0]["obs_id"], records[1]["obs_id"]]}])
        out = str(tmp_path / "localized.jsonl")
        code = main(["localize", "--observations", observations, "--clusters", clusters, "--out", out])
        assert code == EXIT_DATA
        assert f"{observations}:1:" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestReaders:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens_rejected_with_line(self, tmp_path, token):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"obs_a": 0, "obs_b": 1, "score": 0.5}\n'
                        f'{{"obs_a": 0, "obs_b": 2, "score": {token}}}\n')
        with pytest.raises(sio.DataError, match=rf"scores.jsonl:2: non-finite number {token}"):
            sio.read_score_triplets(str(path))

    def test_truth_with_nan_rejected(self, scene_dir, tmp_path):
        with open(os.path.join(scene_dir, "truth.json"), encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["objects"][0]["center"][0] = float("nan")
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(sio.DataError, match="non-finite number NaN"):
            sio.read_truth(str(path))

    def test_truth_with_overflowing_number_rejected(self, scene_dir, tmp_path):
        # 1e999 is valid JSON that parses to infinity without a NaN token.
        with open(os.path.join(scene_dir, "truth.json"), encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["objects"][0]["height"] = "HEIGHT"
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload).replace('"HEIGHT"', "1e999"))
        with pytest.raises(sio.DataError, match="finite"):
            sio.read_truth(str(path))

    def test_write_jsonl_refuses_nan(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError):
            sio.write_jsonl(str(path), [{"center": [np.nan, 0.0, 0.0]}])
        assert not path.exists()
