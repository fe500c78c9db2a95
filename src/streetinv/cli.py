"""Command-line interface.

Subcommands mirror the pipeline stages (simulate, ingest, associate,
localize, refine, evaluate) plus `run` for the whole chain. Every tunable
can come from a flat key-value config file; command-line flags override
config values. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import io as sio
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
from .triangulation import DegenerateClusterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via UsageError."""

    def error(self, message):
        raise UsageError(message)


_CONFIG_KEYS = {
    "window": int,
    "tau": float,
    "sigma_g": float,
    "tau_split": float,
    "tau_merge": float,
    "tau_scale": float,
    "no_refine": bool,
    "scorer": str,
    "coord_mode": str,
    "seed": int,
    "identification_tol": float,
}

_SCENE_KEYS = {
    "n_objects": int,
    "length": float,
    "spacing": float,
    "sigma_dir_deg": float,
    "sigma_pose": float,
    "drop_prob": float,
    "clutter_rate": float,
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
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = sio.parse_config_text(handle.read(), source=path)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    values: dict = {"tau_split_per_category": {}, "tau_merge_per_category": {}, "scene": {}}
    for key, text in raw.items():
        try:
            if key.startswith("tau_split."):
                values["tau_split_per_category"][key[len("tau_split."):]] = float(text)
            elif key.startswith("tau_merge."):
                values["tau_merge_per_category"][key[len("tau_merge."):]] = float(text)
            elif key.startswith("scene."):
                scene_key = key[len("scene."):]
                if scene_key not in _SCENE_KEYS:
                    raise DataError(f"{path}: unknown scene key {key!r}")
                values["scene"][scene_key] = _SCENE_KEYS[scene_key](text)
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

    def pick(name, flag_value):
        return flag_value if flag_value is not None else config.get(name)

    kwargs = {}
    for name in (
        "window",
        "tau",
        "sigma_g",
        "tau_split",
        "tau_merge",
        "tau_scale",
        "scorer",
        "coord_mode",
        "seed",
        "identification_tol",
    ):
        value = pick(name, getattr(args, name, None))
        if value is not None:
            kwargs[name] = value
    no_refine = getattr(args, "no_refine", False) or config.get("no_refine", False)
    kwargs["no_refine"] = bool(no_refine)
    kwargs["tau_split_per_category"] = config.get("tau_split_per_category", {})
    kwargs["tau_merge_per_category"] = config.get("tau_merge_per_category", {})
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, help="association window size K (frames)")
    parser.add_argument("--tau", type=float, help="match confidence threshold")
    parser.add_argument("--sigma-g", dest="sigma_g", type=float, help="geometric score decay (m)")
    parser.add_argument("--tau-split", dest="tau_split", type=float, help="split threshold (m)")
    parser.add_argument("--tau-merge", dest="tau_merge", type=float, help="merge threshold (m)")
    parser.add_argument("--tau-scale", dest="tau_scale", type=float, help="size-ratio bound")
    parser.add_argument("--no-refine", dest="no_refine", action="store_true", default=None,
                        help="skip refinement (transitive-chaining baseline)")
    parser.add_argument("--scorer", help="'geometric' or 'file:PATH' with score triplets")
    parser.add_argument("--coord-mode", dest="coord_mode", choices=("local", "geodetic"),
                        help="pose coordinate interpretation")
    parser.add_argument("--seed", type=int, help="seed (simulation)")


def _write_inventory(path: str, inventory: list[dict]) -> None:
    sio.write_jsonl(path, inventory)


def _write_report(out_dir: str, report: EvaluationReport) -> None:
    sio.atomic_write_text(
        os.path.join(out_dir, "report.json"),
        json.dumps(report.to_dict(), sort_keys=True, indent=1, allow_nan=False) + "\n",
    )
    sio.atomic_write_text(os.path.join(out_dir, "report.txt"), report.to_text())


def _cmd_simulate(args, config: dict) -> int:
    scene_cfg = dict(config.get("scene", {}))
    for name in _SCENE_KEYS:
        value = getattr(args, name, None)
        if value is not None:
            scene_cfg[name] = value
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    spec = default_scene_spec(
        seed=seed,
        n_objects=scene_cfg.get("n_objects"),
        street_length=scene_cfg.get("length", 200.0),
        frame_spacing=scene_cfg.get("spacing", 10.0),
        direction_noise=math.radians(scene_cfg.get("sigma_dir_deg", 0.2)),
        pose_noise=scene_cfg.get("sigma_pose", 0.02),
        drop_prob=scene_cfg.get("drop_prob", 0.0),
        clutter_rate=scene_cfg.get("clutter_rate", 0.0),
    )
    poses, detections, observations, truth = export_scene(spec)
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
    sio.write_observations(os.path.join(args.out, "observations.jsonl"), observations)
    sio.write_truth(os.path.join(args.out, "truth.json"), truth)
    print(
        f"simulated {len(spec.objects)} objects, {len(observations)} observations "
        f"over {len(spec.trajectory)} frames -> {args.out}"
    )
    return EXIT_OK


def _cmd_ingest(args, config: dict) -> int:
    cfg = _run_config(args, config)
    observations = sio.ingest(args.poses, args.detections, cfg.coord_mode)
    sio.write_observations(args.out, observations)
    print(f"ingested {len(observations)} observations -> {args.out}")
    return EXIT_OK


def _cmd_associate(args, config: dict) -> int:
    cfg = _run_config(args, config)
    observations = sio.read_observations(args.observations)
    _, clusters = associate(observations, cfg)
    sio.write_clusters(args.out, clusters)
    print(f"{len(clusters)} initial clusters -> {args.out}")
    return EXIT_OK


def _cmd_localize(args, config: dict) -> int:
    observations = sio.read_observations(args.observations)
    clusters = sio.read_clusters(args.clusters)
    obs = {o.obs_id: o for o in observations}
    localized = localize_clusters(clusters, obs)
    sio.write_clusters(args.out, localized)
    n = sum(1 for c in localized if c.center is not None)
    print(f"localized {n} of {len(localized)} clusters -> {args.out}")
    return EXIT_OK


def _cmd_refine(args, config: dict) -> int:
    cfg = _run_config(args, config)
    observations = sio.read_observations(args.observations)
    clusters = sio.read_clusters(args.clusters)
    obs = {o.obs_id: o for o in observations}
    refined = refine(clusters, obs, cfg.refine_config())
    sio.write_clusters(args.out, refined)
    print(f"{len(clusters)} clusters in, {len(refined)} out -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args, config: dict) -> int:
    cfg = _run_config(args, config)
    truth = sio.read_truth(args.truth)
    inventory = sio.read_inventory(args.inventory)
    import numpy as np

    cluster_of = {}
    categories_of = {}
    for record in inventory:
        for m in record["members"]:
            cluster_of[int(m)] = record["object_id"]
            categories_of[int(m)] = record["category"]
    keep = [
        i
        for i, obs_id in enumerate(truth.obs_ids)
        if truth.object_of[obs_id] is not None and obs_id in cluster_of
    ]
    kept_ids = [truth.obs_ids[i] for i in keep]
    lab = np.array([cluster_of[i] for i in kept_ids])
    y_pred = (lab[:, None] == lab[None, :]).astype(np.int8) if len(lab) else np.zeros((0, 0), np.int8)
    if len(lab):
        np.fill_diagonal(y_pred, 0)
    report = build_report(
        [categories_of[i] for i in kept_ids],
        truth.pair_matrix[np.ix_(keep, keep)],
        y_pred,
        [truth.object_of[i] for i in kept_ids],
        [cluster_of[i] for i in kept_ids],
        [
            (np.asarray(r["center"], dtype=float), r["category"])
            for r in inventory
            if r.get("center") is not None
        ],
        [(o.center, o.category) for o in truth.objects],
        cfg.identification_tol,
    )
    os.makedirs(args.out, exist_ok=True)
    _write_report(args.out, report)
    print(report.to_text(), end="")
    return EXIT_OK


def _cmd_run(args, config: dict) -> int:
    cfg = _run_config(args, config)
    observations = sio.ingest(args.poses, args.detections, cfg.coord_mode)
    truth = sio.read_truth(args.truth) if args.truth else None
    if not observations:
        print("warning: no detections; writing empty inventory", file=sys.stderr)
    result = run_pipeline(cfg, observations, truth)
    os.makedirs(args.out, exist_ok=True)
    _write_inventory(os.path.join(args.out, "inventory.jsonl"), result.inventory)
    if result.report is not None:
        _write_report(args.out, result.report)
    localized = sum(1 for r in result.inventory if r["center"] is not None)
    print(
        f"{len(observations)} observations -> {len(result.inventory)} objects "
        f"({localized} localized) -> {args.out}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="streetinv", description=__doc__)
    parser.add_argument("--config", help="flat key-value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-objects", dest="n_objects", type=int)
    p.add_argument("--length", type=float, help="street length (m)")
    p.add_argument("--spacing", type=float, help="frame spacing (m)")
    p.add_argument("--sigma-dir-deg", dest="sigma_dir_deg", type=float)
    p.add_argument("--sigma-pose", dest="sigma_pose", type=float)
    p.add_argument("--drop-prob", dest="drop_prob", type=float)
    p.add_argument("--clutter-rate", dest="clutter_rate", type=float)
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
    p.add_argument("--identification-tol", dest="identification_tol", type=float)
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
    except (DegenerateClusterError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
