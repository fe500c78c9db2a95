"""Command-line interface.

Subcommands mirror the pipeline stages (simulate, ingest, associate,
localize, refine, evaluate) plus `run` for the whole chain. Every command
that builds a RunConfig takes one flag per scalar RunConfig field, and
`simulate` one per default_scene_spec option; any of them can also come
from a flat key-value config file, and flags override config values.
Exit codes: 0 success; 1 usage error (bad flags, or settings RunConfig or
the scene rejects); 2 data error (malformed or inconsistent input or
config files).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import typing

from . import io as sio
from .geometry import ObservationTable
from .io import DataError
from .metrics import EvaluationReport, build_report
from .pipeline import (
    RunConfig,
    associate,
    inventory_records,
    localize_clusters,
    run_pipeline,
)
from .refinement import refine
from .simulator import default_scene_spec, export_scene

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via UsageError."""

    def error(self, message):
        raise UsageError(message)


# Flat config keys and pipeline flags: every scalar RunConfig field, typed by its annotation.
_FIELD_TYPES = typing.get_type_hints(RunConfig)
_CONFIG_KEYS = {
    f.name: _FIELD_TYPES[f.name]
    for f in dataclasses.fields(RunConfig)
    if _FIELD_TYPES[f.name] in (int, float, bool, str)
}


def degrees(text: str) -> float:
    """An angle given in degrees, as radians; argparse names it "degrees" in errors."""
    return math.radians(float(text))


# simulate's options and scene.* keys: option -> (default_scene_spec parameter, parser).
_SCENE_KEYS = {
    "seed": ("seed", int),
    "n_objects": ("n_objects", int),
    "length": ("street_length", float),
    "spacing": ("frame_spacing", float),
    "sigma_dir_deg": ("direction_noise", degrees),
    "sigma_pose": ("pose_noise", float),
    "drop_prob": ("drop_prob", float),
    "clutter_rate": ("clutter_rate", float),
}


def _parse_bool(value: str) -> bool:
    if value.lower() in ("1", "true", "yes", "on"):
        return True
    if value.lower() in ("0", "false", "no", "off"):
        return False
    raise DataError(f"expected a boolean, got {value!r}")


def _load_config(path: str | None) -> dict:
    """Read the flat config file into typed values."""
    if path is None:
        return {}
    raw = sio.parse_config_text(sio.read_text(path), source=path)
    values: dict = {"tau_split_per_category": {}, "tau_merge_per_category": {}, "scene": {}}
    for key, text in raw.items():
        try:
            if key.startswith("tau_split."):
                values["tau_split_per_category"][key[len("tau_split."):]] = float(text)
            elif key.startswith("tau_merge."):
                values["tau_merge_per_category"][key[len("tau_merge."):]] = float(text)
            elif key.startswith("scene."):
                option = key[len("scene."):]
                if option not in _SCENE_KEYS:
                    raise DataError(f"{path}: unknown scene key {key!r}")
                parameter, parse = _SCENE_KEYS[option]
                values["scene"][parameter] = parse(text)
            elif key in _CONFIG_KEYS:
                caster = _CONFIG_KEYS[key]
                values[key] = _parse_bool(text) if caster is bool else caster(text)
            else:
                raise DataError(f"{path}: unknown config key {key!r}")
        except ValueError as exc:
            raise DataError(f"{path}: bad value for {key!r}: {exc}") from exc
    return values


def _run_config(args, config: dict) -> RunConfig:
    """Merge config-file values and CLI flags (flags win)."""
    kwargs = {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            value = config.get(f.name)
        if value is not None:
            kwargs[f.name] = value
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per config key, `--name-with-dashes`; a bool is a switch."""
    helps = {f.name: f.metadata.get("help") for f in dataclasses.fields(RunConfig)}
    for name, kind in _CONFIG_KEYS.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="store_true", default=None, help=helps[name])
        else:
            parser.add_argument(flag, type=kind, help=helps[name])


def _write_report(out_dir: str, report: EvaluationReport) -> None:
    sio.atomic_write_text(
        os.path.join(out_dir, "report.json"),
        json.dumps(report.to_dict(), sort_keys=True, indent=1, allow_nan=False) + "\n",
    )
    sio.atomic_write_text(os.path.join(out_dir, "report.txt"), report.to_text())


def _cmd_simulate(args, config: dict) -> int:
    scene = dict(config.get("scene", {}))
    for option, (parameter, _) in _SCENE_KEYS.items():
        if getattr(args, option) is not None:
            scene[parameter] = getattr(args, option)
    try:
        spec = default_scene_spec(**scene)
        poses, detections, observations, truth = export_scene(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    sio.write_jsonl(
        os.path.join(args.out, "poses.jsonl"),
        (
            {
                "frame_id": p.frame_id,
                "x": p.position[0],
                "y": p.position[1],
                "z": p.position[2],
                "heading": p.heading,
                "pitch": p.pitch,
                "roll": p.roll,
            }
            for p in poses
        ),
    )
    sio.write_jsonl(
        os.path.join(args.out, "detections.jsonl"),
        (
            {
                "frame_id": d.frame_id,
                "cx": d.center_x,
                "cy": d.center_y,
                "w": d.box_w,
                "h": d.box_h,
                "img_w": d.image_w,
                "img_h": d.image_h,
                "category": d.category,
                "confidence": d.confidence,
            }
            for d in detections
        ),
    )
    sio.write_observations(
        os.path.join(args.out, "observations.jsonl"), ObservationTable.from_observations(observations)
    )
    sio.write_truth(os.path.join(args.out, "truth.json"), truth)
    print(
        f"simulated {len(spec.objects)} objects, {len(observations)} observations "
        f"over {len(spec.trajectory)} frames -> {args.out}"
    )
    return EXIT_OK


def _cmd_ingest(args, config: dict) -> int:
    cfg = _run_config(args, config)
    table = sio.ingest(args.poses, args.detections, cfg.coord_mode)
    sio.write_observations(args.out, table)
    print(f"ingested {len(table)} observations -> {args.out}")
    return EXIT_OK


def _cmd_associate(args, config: dict) -> int:
    cfg = _run_config(args, config)
    _, clusters = associate(sio.read_observations(args.observations), cfg)
    sio.write_clusters(args.out, clusters)
    print(f"{len(clusters)} initial clusters -> {args.out}")
    return EXIT_OK


def _cmd_localize(args, config: dict) -> int:
    table = sio.read_observations(args.observations)
    clusters = sio.read_clusters(args.clusters, set(table.obs_id.tolist()))
    localized = localize_clusters(clusters, table)
    sio.write_clusters(args.out, localized)
    n = sum(1 for c in localized if c.center is not None)
    print(f"localized {n} of {len(localized)} clusters -> {args.out}")
    return EXIT_OK


def _cmd_refine(args, config: dict) -> int:
    cfg = _run_config(args, config)
    table = sio.read_observations(args.observations)
    clusters = sio.read_clusters(args.clusters, set(table.obs_id.tolist()))
    refined = refine(clusters, table, cfg)
    sio.write_clusters(args.out, refined)
    print(f"{len(clusters)} clusters in, {len(refined)} out -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args, config: dict) -> int:
    cfg = _run_config(args, config)
    truth = sio.read_truth(args.truth)
    inventory = sio.read_inventory(args.inventory)
    report = build_report(inventory, truth, cfg.identification_tol)
    os.makedirs(args.out, exist_ok=True)
    _write_report(args.out, report)
    print(report.to_text(), end="")
    return EXIT_OK


def _cmd_run(args, config: dict) -> int:
    cfg = _run_config(args, config)
    table = sio.ingest(args.poses, args.detections, cfg.coord_mode)
    truth = sio.read_truth(args.truth) if args.truth else None
    if not len(table):
        print("warning: no detections; writing empty inventory", file=sys.stderr)
    result = run_pipeline(cfg, table, truth)
    os.makedirs(args.out, exist_ok=True)
    sio.write_jsonl(os.path.join(args.out, "inventory.jsonl"), result.inventory)
    if result.report is not None:
        _write_report(args.out, result.report)
    localized = sum(1 for r in result.inventory if r["center"] is not None)
    print(
        f"{len(table)} observations -> {len(result.inventory)} objects "
        f"({localized} localized) -> {args.out}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="streetinv", description=__doc__)
    parser.add_argument("--config", help="flat key-value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scene")
    p.add_argument("--out", required=True, help="output directory")
    for option, (parameter, parse) in _SCENE_KEYS.items():
        p.add_argument("--" + option.replace("_", "-"), type=parse, help=f"scene {parameter}")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ingest", help="join poses and detections into observations")
    p.add_argument("--poses", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True, help="observations.jsonl path")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("associate", help="match observations into initial clusters")
    p.add_argument("--observations", required=True)
    p.add_argument("--out", required=True, help="clusters.jsonl path")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_associate)

    p = sub.add_parser("localize", help="triangulate cluster centers")
    p.add_argument("--observations", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--out", required=True, help="clusters.jsonl path")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("refine", help="split/merge refinement of clusters")
    p.add_argument("--observations", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--out", required=True, help="clusters.jsonl path")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("evaluate", help="score an inventory against ground truth")
    p.add_argument("--inventory", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="report output directory")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline: ingest, associate, localize, refine")
    p.add_argument("--poses", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--truth", help="optional ground truth for evaluation")
    p.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
