"""CLI and file boundary: exit codes, rejection of bad input, strict JSON out."""

import argparse
import json
import os

import numpy as np
import pytest

from streetinv import io as sio
from streetinv.cli import _CONFIG_KEYS, _SCENE_KEYS, EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main


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

    @pytest.mark.parametrize("flags, config, message", [
        (["--window", "1"], None, "window must be at least 2"),
        (["--tau", "0"], None, "tau must lie in (0, 1]"),
        (["--tau", "1.5"], None, "tau must lie in (0, 1]"),
        (["--sigma-g", "0"], None, "sigma_g must be positive"),
        (["--sigma-g", "-1"], None, "sigma_g must be positive"),
        (["--tau-split", "-1"], None, "tau_split must be positive"),
        (["--no-refine", "--tau-split", "-1"], None, "tau_split must be positive"),
        ([], "tau_merge.bollard = 0\n", "tau_merge.bollard must be positive"),
    ], ids=["window-1", "tau-0", "tau-1.5", "sigma-g-0", "sigma-g-minus-1", "tau-split-minus-1",
            "no-refine-tau-split-minus-1", "config-tau-merge-bollard-0"])
    def test_setting_run_config_rejects_is_a_usage_error(self, scene_dir, tmp_path, capsys, flags,
                                                         config, message):
        out = str(tmp_path / "run")
        args = _run_args(scene_dir, out) + flags
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            args = ["--config", str(path)] + args
        _assert_usage_error(main(args), capsys, message, out)


def _assert_usage_error(code, capsys, message, out):
    """Exit 1 with one `usage error:` line holding `message`, no traceback and no `out`."""
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("usage error:") and message in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


class TestSettings:
    """Every setting is checked once, where it is built, and comes from one declaration."""

    def test_refine_tau_scale_not_above_one_is_a_usage_error(self, scene_dir, tmp_path, capsys):
        clusters = str(tmp_path / "clusters.jsonl")
        _write_lines(clusters, [{"cluster_id": 0, "members": [0, 1]}])
        out = str(tmp_path / "out.jsonl")
        code = main(["refine", "--observations", os.path.join(scene_dir, "observations.jsonl"),
                     "--clusters", clusters, "--out", out, "--tau-scale", "0.5"])
        _assert_usage_error(code, capsys, "tau_scale must be greater than 1", out)

    @pytest.mark.parametrize("flags, message", [
        (["--spacing", "0"], "frame_spacing must be positive"),
        (["--n-objects", "0"], "n_objects must be at least 1"),
        (["--length", "-5"], "street_length must be positive"),
        (["--drop-prob", "2"], "drop_prob must lie in [0, 1]"),
        (["--sigma-dir-deg", "nan"], "noise sigmas must be nonnegative"),
        (["--n-objects", "40", "--length", "5"], "could not place 40 objects"),
        (["--seed", "-1"], "seed must be 0 or more, got -1"),
    ], ids=["spacing-0", "n-objects-0", "length-minus-5", "drop-prob-2", "sigma-dir-deg-nan",
            "too-many-objects", "seed-minus-1"])
    def test_bad_scene_option_is_a_usage_error(self, tmp_path, capsys, flags, message):
        out = str(tmp_path / "scene")
        _assert_usage_error(main(["simulate", "--out", out] + flags), capsys, message, out)

    def test_flags_are_the_settings(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        files = {"help", "out", "poses", "detections", "truth", "observations", "clusters", "inventory"}

        def flags(command):
            return {a.dest: a.option_strings for a in commands[command]._actions if a.dest not in files}

        for command, keys in [("ingest", _CONFIG_KEYS), ("associate", _CONFIG_KEYS),
                              ("refine", _CONFIG_KEYS), ("evaluate", _CONFIG_KEYS),
                              ("run", _CONFIG_KEYS), ("simulate", _SCENE_KEYS), ("localize", {})]:
            assert flags(command) == {k: ["--" + k.replace("_", "-")] for k in keys}, command


def _cross_category_scores(scene_dir, path):
    """Scores that link adjacent frames' observations of different categories."""
    table = sio.read_observations(os.path.join(scene_dir, "observations.jsonl"))
    ids, categories = table.obs_id.tolist(), table.category.tolist()
    _, rank = np.unique(table.frame_id, return_inverse=True)
    rows = range(len(table))
    _write_lines(path, [
        {"obs_a": ids[a], "obs_b": ids[b], "score": 0.9 if categories[a] != categories[b] else 0.1}
        for a in rows
        for b in rows
        if rank[b] - rank[a] == 1
    ])
    return dict(zip(ids, categories))


class TestEvaluate:
    @pytest.fixture(scope="class")
    def mixed_scene(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("mixed"))
        assert main(["simulate", "--out", out, "--seed", "3", "--n-objects", "12"]) == EXIT_OK
        return out

    @pytest.mark.parametrize("cross_category", [False, True])
    def test_reproduces_run_report(self, mixed_scene, tmp_path, cross_category):
        run_out, eval_out = str(tmp_path / "run"), str(tmp_path / "eval")
        args = _run_args(mixed_scene, run_out)
        if cross_category:
            scores = str(tmp_path / "scores.jsonl")
            category_of = _cross_category_scores(mixed_scene, scores)
            args += ["--scorer", "file:" + scores, "--no-refine"]
        assert main(args) == EXIT_OK
        inventory = os.path.join(run_out, "inventory.jsonl")
        if cross_category:
            records = [json.loads(line) for line in _read_lines(inventory)]
            assert any(len({category_of[m] for m in r["members"]}) > 1 for r in records)
        assert main(["evaluate", "--inventory", inventory,
                     "--truth", os.path.join(mixed_scene, "truth.json"), "--out", eval_out]) == EXIT_OK
        assert _read_lines(os.path.join(eval_out, "report.json")) == _read_lines(
            os.path.join(run_out, "report.json"))

    @pytest.fixture(scope="class")
    def inventory(self, scene_dir, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("inventory"))
        assert main(_run_args(scene_dir, out)) == EXIT_OK
        records = [json.loads(line) for line in _read_lines(os.path.join(out, "inventory.jsonl"))]
        assert len(records) >= 2
        return records

    def _evaluate(self, scene_dir, tmp_path, records=None, truth=None):
        inventory = str(tmp_path / "inventory.jsonl")
        _write_lines(inventory, records)
        truth_path = os.path.join(scene_dir, "truth.json")
        if truth is not None:
            truth_path = str(tmp_path / "truth.json")
            with open(truth_path, "w", encoding="utf-8") as handle:
                json.dump(truth, handle)
        return main(["evaluate", "--inventory", inventory, "--truth", truth_path,
                     "--out", str(tmp_path / "eval")])

    @pytest.mark.parametrize("field, value", [
        ("center", "abc"),
        ("center", [1, 2]),
        ("members", ["x"]),
        ("members", 5),
        ("members", []),
        ("category", 7),
    ])
    def test_malformed_record_is_a_data_error(self, scene_dir, inventory, tmp_path, capsys,
                                              field, value):
        records = [dict(r) for r in inventory]
        records[0][field] = value
        assert self._evaluate(scene_dir, tmp_path, records) == EXIT_DATA
        assert "inventory.jsonl:1:" in capsys.readouterr().err

    def test_observation_in_two_records_is_a_data_error(self, scene_dir, inventory, tmp_path):
        records = [dict(r) for r in inventory]
        records[1]["members"] = records[1]["members"] + records[0]["members"][:1]
        assert self._evaluate(scene_dir, tmp_path, records) == EXIT_DATA

    def _truth(self, scene_dir):
        with open(os.path.join(scene_dir, "truth.json"), encoding="utf-8") as handle:
            return json.load(handle)

    def test_duplicate_truth_observation_is_a_data_error(self, scene_dir, inventory, tmp_path):
        truth = self._truth(scene_dir)
        truth["observations"].append(dict(truth["observations"][0]))
        assert self._evaluate(scene_dir, tmp_path, inventory, truth) == EXIT_DATA

    def test_truth_object_id_out_of_range_is_a_data_error(self, scene_dir, inventory, tmp_path):
        truth = self._truth(scene_dir)
        truth["observations"][0]["object_id"] = len(truth["objects"])
        assert self._evaluate(scene_dir, tmp_path, inventory, truth) == EXIT_DATA


class TestSeed:
    def test_simulate_reads_scene_seed_from_config(self, tmp_path):
        config = tmp_path / "scene.cfg"
        config.write_text("scene.seed = 4\nscene.n_objects = 6\nscene.length = 60\n")
        by_config, by_flag = str(tmp_path / "config"), str(tmp_path / "flag")
        assert main(["--config", str(config), "simulate", "--out", by_config]) == EXIT_OK
        assert main(["simulate", "--out", by_flag, "--seed", "4", "--n-objects", "6",
                     "--length", "60"]) == EXIT_OK
        assert _read_lines(os.path.join(by_config, "truth.json")) == _read_lines(
            os.path.join(by_flag, "truth.json"))

    def test_pipeline_commands_take_no_seed(self, scene_dir, tmp_path):
        assert main(_run_args(scene_dir, str(tmp_path / "run")) + ["--seed", "1"]) == EXIT_USAGE


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


class TestClusterFiles:
    def _run(self, scene_dir, tmp_path, command, second, fit=None):
        observations = os.path.join(scene_dir, "observations.jsonl")
        ids = [json.loads(line)["obs_id"] for line in _read_lines(observations)]
        clusters = str(tmp_path / "clusters.jsonl")
        _write_lines(clusters, [{"cluster_id": 0, "members": ids[:2]},
                                {"cluster_id": 1, "members": second(ids), **(fit or {})}])
        out = str(tmp_path / "out.jsonl")
        code = main([command, "--observations", observations, "--clusters", clusters, "--out", out])
        return code, clusters, out

    @pytest.mark.parametrize("command", ["localize", "refine"])
    def test_disjoint_known_members_accepted(self, scene_dir, tmp_path, command):
        code, _, out = self._run(scene_dir, tmp_path, command, lambda ids: ids[2:4])
        assert code == EXIT_OK and os.path.exists(out)

    @pytest.mark.parametrize("command", ["localize", "refine"])
    @pytest.mark.parametrize("second, message", [
        (lambda ids: ids[1:3], "already a member on line 1"),
        (lambda ids: [max(ids) + 1], "unknown observation"),
        (lambda ids: [ids[2] + 0.5], "members must be a non-empty list of integers"),
        (lambda ids: [str(ids[2])], "members must be a non-empty list of integers"),
    ], ids=["overlap", "unknown-member", "fractional-member", "string-member"])
    def test_bad_cluster_file_is_a_data_error(self, scene_dir, tmp_path, capsys, command, second,
                                              message):
        code, clusters, out = self._run(scene_dir, tmp_path, command, second)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{clusters}:2:" in err and message in err
        assert not os.path.exists(out)


    @pytest.mark.parametrize("command", ["localize", "refine"])
    @pytest.mark.parametrize("fit", [
        {"center": None, "residuals": None},
        {"center": [1.0, 2, -3.5], "residuals": [0, 0.25]},
    ], ids=["unlocalized", "localized"])
    def test_center_with_one_residual_per_member_accepted(self, scene_dir, tmp_path, command, fit):
        code, _, out = self._run(scene_dir, tmp_path, command, lambda ids: ids[2:4], fit)
        assert code == EXIT_OK and os.path.exists(out)

    @pytest.mark.parametrize("command", ["localize", "refine"])
    @pytest.mark.parametrize("fit, message", [
        ({"center": [1.0, 2.0], "residuals": [0.1, 0.2]}, "center must be null or 3 finite numbers"),
        ({"center": [1.0, 2.0, "3"], "residuals": [0.1, 0.2]}, "center must be null or 3 finite numbers"),
        ({"center": [1.0, 2.0, 3.0], "residuals": [0.1, 0.2, "x"]}, "one finite number per member"),
        ({"center": [1.0, 2.0, 3.0], "residuals": [0.1]}, "one finite number per member"),
        ({"center": [1.0, 2.0, 3.0], "residuals": ["0.25", 0.2]}, "one finite number per member"),
        ({"center": [1.0, 2.0, 3.0], "residuals": None}, "one finite number per member"),
        ({"center": None, "residuals": [0.1, 0.2]}, "residuals must be null when center is null"),
    ], ids=["short-center", "string-coordinate", "extra-residual", "missing-residual",
            "string-residual", "null-residuals", "residuals-without-center"])
    def test_bad_center_or_residuals_is_a_data_error(self, scene_dir, tmp_path, capsys, command,
                                                     fit, message):
        code, clusters, out = self._run(scene_dir, tmp_path, command, lambda ids: ids[2:4], fit)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{clusters}:2:" in err and message in err
        assert not os.path.exists(out)


def _score(a="0", b="1", score="0.5") -> str:
    """One score line, its values given as JSON text."""
    return f'{{"obs_a": {a}, "obs_b": {b}, "score": {score}}}'


class TestReaders:
    @pytest.mark.parametrize("text, line, message", [
        (_score() + '\n{"obs_a": 0, "obs_b": 2,\n "score": 0.5}\n', 2,
         "malformed JSON: Expecting property name enclosed in double quotes"),
        (_score() + '\n{"q": [[\n]]}\n', 2, "malformed JSON: Expecting value"),
        (_score() + "\n" + _score(b="2") + " " + _score(a="1", b="2") + "\n", 2,
         "malformed JSON: Extra data"),
        (_score() + "\n[0, 2, 0.5]\n", 2, "expected a JSON object"),
        (_score() + "\r\n" + _score(b="2") + "\r\n" + _score(a="1") + "\r\n", 3, "self-pair (1, 1)"),
        (_score() + "\r" + _score() + "\r", 2, "pair (0, 1) is already scored on line 1"),
        ("\n" + _score() + "\n   \n\n" + _score() + "\n", 5, "pair (0, 1) is already scored on line 2"),
        (_score() + "\n" + _score(a="true"), 2, "obs_a must be an integer, got True"),
        (_score() + "\n" + _score(score="1e999"), 2, "score must be a finite number, got inf"),
        (_score() + "\n" + _score(b="1" + "0" * 399), 2, "unknown observation 1" + "0" * 399),
    ], ids=["object-over-two-lines", "array-over-two-lines", "two-objects-on-a-line", "not-an-object",
            "crlf", "cr", "blank-lines", "true-id", "overflowing-score", "400-digit-id"])
    def test_each_line_is_one_record(self, tmp_path, text, line, message):
        # A line that is not exactly one JSON object, or a bad record among
        # good ones, is refused naming its line as the file counts lines.
        path = tmp_path / "scores.jsonl"
        path.write_bytes(text.encode())
        with pytest.raises(sio.DataError) as refused:
            sio.read_score_triplets(str(path), {0, 1, 2})
        assert str(refused.value) == f"{path}:{line}: {message}"

    def test_crlf_and_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_bytes(("\r\n" + _score() + "\r\n  \r\n" + _score(b="2", score="1") + "\r\n").encode())
        scores = sio.read_score_triplets(str(path), np.array([0, 1, 2]))
        assert len(scores) == 2
        assert (scores.obs_a.tolist(), scores.obs_b.tolist(), scores.score.tolist()) == (
            [0, 0], [1, 2], [0.5, 1.0])

    @pytest.mark.parametrize("kind, field", [("detections", "frame_id"), ("observations", "obs_id"),
                                             ("observations", "frame_id")])
    def test_id_beyond_64_bits_is_refused_with_its_line(self, scene_dir, tmp_path, kind, field):
        path = _copy_records(scene_dir, tmp_path, f"{kind}.jsonl", lambda records: records[:1] + [
            dict(records[1], **{field: 2**63})] + records[2:])
        read = sio.read_detections if kind == "detections" else sio.read_observations
        with pytest.raises(sio.DataError) as refused:
            read(path)
        assert str(refused.value) == f"{path}:2: {field} {2**63} is outside the 64-bit integer range"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens_rejected_with_line(self, tmp_path, token):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"obs_a": 0, "obs_b": 1, "score": 0.5}\n'
                        f'{{"obs_a": 0, "obs_b": 2, "score": {token}}}\n')
        with pytest.raises(sio.DataError, match=rf"scores.jsonl:2: non-finite number {token}"):
            sio.read_score_triplets(str(path), {0, 1, 2})

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

    def test_ingest_rebuilds_exported_observations(self, scene_dir):
        # export_scene's contract: its poses and detections, written out and
        # ingested, rebuild its observations up to float round trip.
        exported = sio.read_observations(os.path.join(scene_dir, "observations.jsonl"))
        ingested = sio.ingest(os.path.join(scene_dir, "poses.jsonl"),
                              os.path.join(scene_dir, "detections.jsonl"))
        assert len(ingested) == len(exported) > 0
        for column in ("obs_id", "frame_id", "category"):
            assert getattr(ingested, column).tolist() == getattr(exported, column).tolist()
        np.testing.assert_allclose(ingested.exposure, exported.exposure, atol=1e-9)
        np.testing.assert_allclose(ingested.direction, exported.direction, atol=1e-9)
        np.testing.assert_allclose(ingested.box_w_norm, exported.box_w_norm, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ingested.box_h_norm, exported.box_h_norm, rtol=0, atol=1e-12)

    def test_write_jsonl_refuses_nan(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError):
            sio.write_jsonl(str(path), [{"center": [np.nan, 0.0, 0.0]}])
        assert not path.exists()


class TestEncoding:
    """A file that is not UTF-8 is a data error naming it, never a traceback."""

    @pytest.mark.parametrize("kind", ["poses", "detections", "scores", "observations", "clusters",
                                      "inventory", "truth", "config"])
    def test_non_utf8_file_is_a_data_error(self, scene_dir, tmp_path, capsys, kind):
        observations = os.path.join(scene_dir, "observations.jsonl")
        truth = os.path.join(scene_dir, "truth.json")
        scores, clusters, inventory = (str(tmp_path / f"{k}.jsonl") for k in ("scores", "clusters", "inventory"))
        _write_lines(scores, [{"obs_a": 0, "obs_b": 1, "score": 0.5}, {"obs_a": 0, "obs_b": 2, "score": 0.5}])
        _write_lines(clusters, [{"cluster_id": 0, "members": [0, 1]}, {"cluster_id": 1, "members": [2]}])
        _write_lines(inventory, [
            {"object_id": k, "category": "bollard", "center": None, "n_observations": 1,
             "max_residual": None, "members": [k]} for k in range(2)])
        out, bad = str(tmp_path / "out"), str(tmp_path / f"bad-{kind}")

        def run(**files):
            args = _run_args(scene_dir, out)
            for flag, path in files.items():
                args[args.index("--" + flag) + 1] = path
            return args

        source, args = {
            "poses": (os.path.join(scene_dir, "poses.jsonl"), run(poses=bad)),
            "detections": (os.path.join(scene_dir, "detections.jsonl"), run(detections=bad)),
            "scores": (scores, run() + ["--scorer", "file:" + bad]),
            "observations": (observations, ["associate", "--observations", bad, "--out", out]),
            "clusters": (clusters, ["localize", "--observations", observations, "--clusters", bad,
                                    "--out", out]),
            "inventory": (inventory, ["evaluate", "--inventory", bad, "--truth", truth, "--out", out]),
            "truth": (truth, run(truth=bad)),
            "config": (None, ["--config", bad] + run()),
        }[kind]
        if source is None:
            data = b"window = 3\n# caf\xe9\n"
        else:
            # A Latin-1 byte at the first quote of line 2.
            with open(source, "rb") as handle:
                first, rest = handle.read().split(b"\n", 1)
            data = first + b"\n" + rest.replace(b'"', b'"\xe9', 1)
        with open(bad, "wb") as handle:
            handle.write(data)
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [f"data error: {bad}:2: not UTF-8 text (invalid continuation byte)"]
        assert "Traceback" not in err
        assert not os.path.exists(out)


def _copy_records(scene_dir, tmp_path, name, edit):
    """Write `edit(records)` of scene file `name` (JSON lines) under tmp_path; return its path."""
    records = [json.loads(line) for line in _read_lines(os.path.join(scene_dir, name))]
    path = str(tmp_path / name)
    _write_lines(path, edit(records))
    return path


def _set_first(field, value):
    def edit(records):
        records[0][field] = value(records[0][field])
        return records

    return edit


class TestIds:
    """Every id a reader takes must be a JSON integer: 0.7 is refused, never truncated to 0."""

    def _command(self, scene_dir, tmp_path, kind, field):
        fractional = _set_first(field, lambda v: v + 0.7)
        observations = os.path.join(scene_dir, "observations.jsonl")
        out = str(tmp_path / "out")
        if kind in ("poses", "detections"):
            path = _copy_records(scene_dir, tmp_path, f"{kind}.jsonl", fractional)
            args = _run_args(scene_dir, out)
            args[args.index("--" + kind) + 1] = path
            return args, f"{path}:1:"
        if kind == "observations":
            path = _copy_records(scene_dir, tmp_path, "observations.jsonl", fractional)
            return ["associate", "--observations", path, "--out", out], f"{path}:1:"
        if kind == "scores":
            path = str(tmp_path / "scores.jsonl")
            _write_lines(path, [{"obs_a": 0.7 if field == "obs_a" else 0,
                                 "obs_b": 1.7 if field == "obs_b" else 1, "score": 0.5}])
            return _run_args(scene_dir, out) + ["--scorer", "file:" + path], f"{path}:1:"
        if kind == "clusters":
            path = str(tmp_path / "clusters.jsonl")
            _write_lines(path, [{"cluster_id": 0.7, "members": [0, 1]}])
            return ["localize", "--observations", observations, "--clusters", path,
                    "--out", out], f"{path}:1:"
        with open(os.path.join(scene_dir, "truth.json"), encoding="utf-8") as handle:
            truth = json.load(handle)
        entry = truth["objects" if kind == "truth-objects" else "observations"][0]
        entry[field] += 0.7
        path = str(tmp_path / "truth.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(truth, handle)
        args = _run_args(scene_dir, out)
        args[args.index("--truth") + 1] = path
        return args, f"{path}: "

    @pytest.mark.parametrize("kind, field", [
        ("poses", "frame_id"),
        ("detections", "frame_id"),
        ("observations", "obs_id"),
        ("observations", "frame_id"),
        ("scores", "obs_a"),
        ("scores", "obs_b"),
        ("clusters", "cluster_id"),
        ("truth-objects", "object_id"),
        ("truth-observations", "obs_id"),
        ("truth-observations", "object_id"),
    ])
    def test_fractional_id_is_a_data_error(self, scene_dir, tmp_path, capsys, kind, field):
        args, where = self._command(scene_dir, tmp_path, kind, field)
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert where in err and f"{field} must be an integer" in err


class TestUniqueKeys:
    """A key that names a record may appear once; a second one names both lines."""

    def test_second_pose_of_a_frame_is_a_data_error(self, scene_dir, tmp_path, capsys):
        def repeat_moved(records):
            moved = dict(records[0], x=records[0]["x"] + 50.0)
            return records + [moved]

        poses = _copy_records(scene_dir, tmp_path, "poses.jsonl", repeat_moved)
        n = len(_read_lines(poses))
        args = _run_args(scene_dir, str(tmp_path / "run"))
        args[args.index("--poses") + 1] = poses
        assert main(args) == EXIT_DATA
        assert f"{poses}:{n}: frame 0 already has a pose on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["associate", "localize", "refine"])
    def test_second_observation_with_an_id_is_a_data_error(self, scene_dir, tmp_path, capsys,
                                                           command):
        observations = _copy_records(scene_dir, tmp_path, "observations.jsonl",
                                     _set_first("obs_id", lambda v: v + 1))
        clusters = str(tmp_path / "clusters.jsonl")
        _write_lines(clusters, [{"cluster_id": 0, "members": [1, 2]}])
        args = [command, "--observations", observations, "--out", str(tmp_path / "out.jsonl")]
        if command != "associate":
            args += ["--clusters", clusters]
        assert main(args) == EXIT_DATA
        assert f"{observations}:2: obs_id 1 is already used on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("second", [(0, 1), (1, 0)])
    def test_second_score_of_a_pair_is_a_data_error(self, scene_dir, tmp_path, capsys, second):
        scores = str(tmp_path / "scores.jsonl")
        _write_lines(scores, [{"obs_a": 0, "obs_b": 1, "score": 0.5},
                              {"obs_a": second[0], "obs_b": second[1], "score": 0.7}])
        out = str(tmp_path / "run")
        assert main(_run_args(scene_dir, out) + ["--scorer", "file:" + scores]) == EXIT_DATA
        assert f"{scores}:2: pair (0, 1) is already scored on line 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_second_cluster_with_an_id_is_a_data_error(self, scene_dir, tmp_path, capsys):
        clusters = str(tmp_path / "clusters.jsonl")
        _write_lines(clusters, [{"cluster_id": 5, "members": [0, 1]},
                                {"cluster_id": 5, "members": [2, 3]}])
        out = str(tmp_path / "out.jsonl")
        assert main(["refine", "--observations", os.path.join(scene_dir, "observations.jsonl"),
                     "--clusters", clusters, "--out", out]) == EXIT_DATA
        assert f"{clusters}:2: cluster_id 5 is already used on line 1" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestReferences:
    """A record may name only what the other input files define."""

    def test_score_of_an_unknown_observation_is_a_data_error(self, scene_dir, tmp_path, capsys):
        scores = str(tmp_path / "scores.jsonl")
        _write_lines(scores, [{"obs_a": 0, "obs_b": 1, "score": 0.5},
                              {"obs_a": 0, "obs_b": 10**6, "score": 0.5}])
        out = str(tmp_path / "run")
        assert main(_run_args(scene_dir, out) + ["--scorer", "file:" + scores]) == EXIT_DATA
        assert f"{scores}:2: unknown observation 1000000" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestCategories:
    """A category is a JSON string: null or 7 is refused, never read as "None" or "7"."""

    @pytest.mark.parametrize("value", [None, 7])
    @pytest.mark.parametrize("kind", ["detections", "observations", "truth"])
    def test_non_string_category_is_a_data_error(self, scene_dir, tmp_path, capsys, kind, value):
        out = str(tmp_path / "out")
        if kind == "truth":
            with open(os.path.join(scene_dir, "truth.json"), encoding="utf-8") as handle:
                truth = json.load(handle)
            truth["objects"][0]["category"] = value
            path = str(tmp_path / "truth.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(truth, handle)
            args = _run_args(scene_dir, out)
            args[args.index("--truth") + 1] = path
            where = f"{path}: "
        else:
            path = _copy_records(scene_dir, tmp_path, f"{kind}.jsonl",
                                 _set_first("category", lambda v: value))
            if kind == "detections":
                args = _run_args(scene_dir, out, detections=path)
            else:
                args = ["associate", "--observations", path, "--out", out]
            where = f"{path}:1: "
        assert main(args) == EXIT_DATA
        assert f"{where}category must be a string, got {value!r}" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestNumbers:
    """A numeric field is a finite JSON number: "1.5" or true is refused, never read as one."""

    @pytest.mark.parametrize("kind, field, value", [
        ("poses", "x", "0"),
        ("poses", "heading", False),
        ("detections", "cx", "2000"),
        ("detections", "h", True),
        ("detections", "confidence", "0.9"),
        ("detections", "cx", 10**400),
        ("observations", "px", "1.5"),
        ("observations", "h_norm", True),
        ("scores", "score", "0.5"),
        ("scores", "score", True),
        ("truth", "height", "1.0"),
        ("truth", "height", True),
        ("truth", "center", ["1", 2, 3]),
    ], ids=lambda v: "huge" if v == 10**400 else None)
    def test_non_number_is_a_data_error(self, scene_dir, tmp_path, capsys, kind, field, value):
        out = str(tmp_path / "out")
        if kind == "truth":
            with open(os.path.join(scene_dir, "truth.json"), encoding="utf-8") as handle:
                truth = json.load(handle)
            truth["objects"][0][field] = value
            path = str(tmp_path / "truth.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(truth, handle)
            args = _run_args(scene_dir, out)
            args[args.index("--truth") + 1] = path
            where = f"{path}: "
        elif kind == "scores":
            path = str(tmp_path / "scores.jsonl")
            _write_lines(path, [{"obs_a": 0, "obs_b": 1, "score": value}])
            args, where = _run_args(scene_dir, out) + ["--scorer", "file:" + path], f"{path}:1: "
        else:
            path = _copy_records(scene_dir, tmp_path, f"{kind}.jsonl", _set_first(field, lambda v: value))
            if kind == "observations":
                args = ["associate", "--observations", path, "--out", out]
            else:
                args = _run_args(scene_dir, out)
                args[args.index("--" + kind) + 1] = path
            where = f"{path}:1: "
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        expected = "3 finite numbers" if field == "center" else "a finite number"
        assert f"{where}{field} must be {expected}" in err
        assert not os.path.exists(out)
