"""Command-line interface.

Subcommands mirror the pipeline stages (simulate, ingest, associate,
localize, refine, evaluate) plus `run` for the whole chain. Every command
that builds a RunConfig takes one flag per scalar RunConfig field, and
`simulate` one per default_scene_spec option; any of them can also come
from a flat key-value config file, and flags override config values.
Exit codes: 0 success; 1 usage error (bad flags, settings RunConfig or
the scene rejects, or an output that cannot be written: every file a
command writes is checked before any input is read); 2 data error
(malformed or inconsistent input or config files).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import typing

from . import io as sio
from .geometry import ObservationTable
from .io import DataError
from .metrics import EvaluationReport, build_report, check_members
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


def _write_report(out_dir: str, report: EvaluationReport) -> None:
    sio.write_jsonl(os.path.join(out_dir, "report.json"), [report.to_dict()])
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
    sio.write_poses(os.path.join(args.out, "poses.jsonl"), poses)
    sio.write_detections(os.path.join(args.out, "detections.jsonl"), detections)
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
    located = localize_clusters(clusters, table)
    sio.write_clusters(args.out, located)
    print(f"localized {located.localized.sum()} of {len(located)} clusters -> {args.out}")
    return EXIT_OK


def _cmd_refine(args, config: dict) -> int:
    cfg = _run_config(args, config)
    table = sio.read_observations(args.observations)
    clusters = sio.read_clusters(args.clusters, set(table.obs_id.tolist()))
    try:
        refined = refine(clusters, table, cfg)
    except OverflowError as exc:  # the fresh ids of split and merge
        raise DataError(f"{args.clusters}: {exc}") from None
    sio.write_clusters(args.out, refined)
    print(f"{len(clusters)} clusters in, {len(refined)} out -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args, config: dict) -> int:
    cfg = _run_config(args, config)
    truth = sio.read_truth(args.truth)
    inventory = sio.read_inventory(args.inventory)
    report = build_report(inventory, truth, cfg.identification_tol)
    _write_report(args.out, report)
    print(report.to_text(), end="")
    return EXIT_OK


def _cmd_run(args, config: dict) -> int:
    cfg = _run_config(args, config)
    table = sio.ingest(args.poses, args.detections, cfg.coord_mode)
    truth = sio.read_truth(args.truth) if args.truth else None
    if truth is not None:
        # Every observation is an inventory member: refuse one truth lacks now, not after the run.
        check_members(table.obs_id.tolist(), truth)
    if not len(table):
        print("warning: no detections; writing empty inventory", file=sys.stderr)
    result = run_pipeline(cfg, table, truth)
    sio.write_jsonl(os.path.join(args.out, "inventory.jsonl"), result.inventory)
    if result.report is not None:
        _write_report(args.out, result.report)
    localized = sum(1 for r in result.inventory if r["center"] is not None)
    print(
        f"{len(table)} observations -> {len(result.inventory)} objects "
        f"({localized} localized) -> {args.out}"
    )
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class _Command:
    """A subcommand: help, required input flags, `--out` help, whether it takes the pipeline flags,
    and the files it writes into the directory `--out` (none: `--out` is the one file it writes).
    A command with `with_truth` files takes an optional `--truth` and writes them only with it."""

    help: str
    func: typing.Callable
    inputs: tuple[str, ...]
    out_help: str
    pipeline: bool = True
    writes: tuple[str, ...] = ()
    with_truth: tuple[str, ...] = ()


# Every command, what it reads and what it writes: the one place a command or an output is added.
_COMMANDS = {
    "simulate": _Command("generate a synthetic scene", _cmd_simulate, (), "output directory", pipeline=False,
                         writes=("poses.jsonl", "detections.jsonl", "observations.jsonl", "truth.json")),
    "ingest": _Command("join poses and detections into observations", _cmd_ingest, ("poses", "detections"),
                       "observations.jsonl path"),
    "associate": _Command("match observations into initial clusters", _cmd_associate, ("observations",),
                          "clusters.jsonl path"),
    "localize": _Command("triangulate cluster centers", _cmd_localize, ("observations", "clusters"),
                         "clusters.jsonl path", pipeline=False),
    "refine": _Command("split/merge refinement of clusters", _cmd_refine, ("observations", "clusters"),
                       "clusters.jsonl path"),
    "evaluate": _Command("score an inventory against ground truth", _cmd_evaluate, ("inventory", "truth"),
                         "report output directory", writes=("report.json", "report.txt")),
    "run": _Command("full pipeline: ingest, associate, localize, refine", _cmd_run, ("poses", "detections"),
                    "output directory", writes=("inventory.jsonl",), with_truth=("report.json", "report.txt")),
}


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="streetinv", description=__doc__)
    parser.add_argument("--config", help="flat key-value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {f.name: f.metadata.get("help") for f in dataclasses.fields(RunConfig)}
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.inputs:
            p.add_argument("--" + flag, required=True)
        if command.with_truth:
            p.add_argument("--truth", help="optional ground truth for evaluation")
        p.add_argument("--out", required=True, help=command.out_help)
        if command.pipeline:  # one flag per config key, `--name-with-dashes`; a bool is a switch
            for key, kind in _CONFIG_KEYS.items():
                flag = "--" + key.replace("_", "-")
                if kind is bool:
                    p.add_argument(flag, action="store_true", default=None, help=helps[key])
                else:
                    p.add_argument(flag, type=kind, help=helps[key])
    simulate = sub.choices["simulate"]
    for option, (parameter, parse) in _SCENE_KEYS.items():
        simulate.add_argument("--" + option.replace("_", "-"), type=parse, help=f"scene {parameter}")
    return parser


def _check_out(args) -> None:
    """Refuse, creating nothing, any path the command would write that cannot be written:
    a directory where a file must be, or an existing non-directory where a directory must."""
    command = _COMMANDS[args.command]
    names = command.writes + (command.with_truth if getattr(args, "truth", None) else ())
    paths = [os.path.join(args.out, name) for name in names] or [args.out]
    for path in paths:
        if os.path.isdir(path):
            raise sio.OutputError(f"cannot write {path}: it is a directory")
    # The nearest existing path of the output directory and its parents; "" is the working directory.
    blocker = os.path.dirname(paths[0])
    while blocker and not os.path.lexists(blocker):
        blocker = os.path.dirname(blocker)
    if blocker and not os.path.isdir(blocker):
        raise sio.OutputError(f"cannot write {args.out}: {blocker} is not a directory")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args)
        config = _load_config(args.config)
        return _COMMANDS[args.command].func(args, config)
    except (UsageError, sio.OutputError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
