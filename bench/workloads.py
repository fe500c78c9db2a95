"""The benchmark's workloads: how their inputs are made and run.

Every input is a function of the workload seed. A workload is a list of
scenes run one after another by a single caller (a closed loop). Each
scene keeps the benchmark's own copy of its inputs and ground truth, which
the checks use instead of anything the program returns.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

# Named afresh in every call so the tracer's wrappers are picked up.
import streetinv.cli
import streetinv.io
import streetinv.pipeline
import streetinv.simulator

# Every workload runs the program's default configuration; the window and
# thresholds the checks and the simulated matcher need are read from it.
DEFAULTS = streetinv.pipeline.RunConfig()

# street_cli_matcher: streets of 500 m at the density of a 2 km street with
# 300 objects. One street's cost swings up to 2.5x with its seed; 24 streets
# a round average that out and, with the set-ups, fill a 55 s run.
CLI_STREETS = 24
CLI_STREET_LENGTH_M = 500.0
CLI_STREET_OBJECTS = 75

# Simulated learned matcher: a same-object pair scores in [0.55, 1] unless
# missed into [0, 0.45], and a different-object pair the other way round.
# The paper reports no precision or recall for its matcher, so these rates
# are not taken from it; false matches are frequent enough to chain
# distinct objects, which refinement then has to split.
MATCHER_MISS = 0.3
MATCHER_FALSE = 0.02


@dataclass
class Scene:
    """One scene: generated inputs, truth, and how the program is run."""

    name: str
    obs_ids: np.ndarray
    categories: list[str]
    origins: np.ndarray
    dirs: np.ndarray
    object_of: dict[int, int | None]
    gt_objects: list[tuple[np.ndarray, str]]
    program_inputs: tuple = ()
    files: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_generated(cls, name, observations, truth, **extra) -> "Scene":
        return cls(
            name=name,
            obs_ids=np.array([o.obs_id for o in observations]),
            categories=[o.category for o in observations],
            origins=np.array([o.exposure for o in observations]).reshape(-1, 3),
            dirs=np.array([o.direction for o in observations]).reshape(-1, 3),
            object_of=dict(truth.object_of),
            gt_objects=[(o.center.copy(), o.category) for o in truth.objects],
            **extra,
        )


def scene_seed(seed: int, index: int) -> int:
    """Scene seeds of one workload seed never overlap those of another."""
    return seed * 1000 + index


# --- district_5km: in memory -------------------------------------------------


def _in_memory_scene(name, spec) -> Scene:
    observations, truth = streetinv.simulator.generate_scene(spec)
    return Scene.from_generated(name, observations, truth, program_inputs=(observations, truth))


def setup_district(seed: int, workdir: str) -> list[Scene]:
    spec = streetinv.simulator.default_scene_spec(
        seed=scene_seed(seed, 0), n_objects=750, street_length=5000.0
    )
    return [_in_memory_scene("district-5km", spec)]


def run_in_memory(scene: Scene, no_refine: bool = False):
    """Run the pipeline in process; returns its PipelineResult."""
    observations, truth = scene.program_inputs
    cfg = streetinv.pipeline.RunConfig(no_refine=no_refine)
    return streetinv.pipeline.run_pipeline(cfg, observations, truth)


def read_in_memory(scene: Scene, result):
    """(inventory records, aggregate report) of a PipelineResult."""
    return result.inventory, result.report.to_dict()["aggregate"]


# --- street_cli_matcher: files on disk, external scores, the CLI ----------


def matcher_scores(scene: Scene, frames: np.ndarray, rng: np.random.Generator):
    """Simulated learned-matcher scores as (obs_a, obs_b, score) triplets.

    Scores cover every same-category pair from frames fewer than `window`
    apart in the order of frames that have observations: every pair the
    association window consults.
    """
    ranked = {f: r for r, f in enumerate(sorted(set(frames.tolist())))}
    rank = np.array([ranked[f] for f in frames.tolist()])
    labels = np.array([-1 - k if scene.object_of[int(i)] is None else scene.object_of[int(i)]
                       for k, i in enumerate(scene.obs_ids)])
    cats = np.array(scene.categories)
    by_rank = [np.flatnonzero(rank == r) for r in range(len(ranked))]
    triplets = []
    for r in range(len(ranked)):
        for gap in range(1, DEFAULTS.window):
            if r + gap >= len(ranked):
                break
            a, b = by_rank[r], by_rank[r + gap]
            ia, ib = np.meshgrid(a, b, indexing="ij")
            ia, ib = ia.ravel(), ib.ravel()
            same_cat = cats[ia] == cats[ib]
            ia, ib = ia[same_cat], ib[same_cat]
            positive = labels[ia] == labels[ib]
            confused = rng.random(len(ia)) < np.where(positive, MATCHER_MISS, MATCHER_FALSE)
            high = positive != confused
            score = np.where(high, rng.uniform(0.55, 1.0, len(ia)), rng.uniform(0.0, 0.45, len(ia)))
            for x, y, s in zip(scene.obs_ids[ia].tolist(), scene.obs_ids[ib].tolist(), score.tolist()):
                triplets.append((x, y, s))
    return triplets


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, allow_nan=False) + "\n")


def setup_street_cli(seed: int, workdir: str) -> list[Scene]:
    return [_cli_street(seed, k, os.path.join(workdir, f"street{k}")) for k in range(CLI_STREETS)]


def _cli_street(seed: int, index: int, workdir: str) -> Scene:
    spec = streetinv.simulator.default_scene_spec(
        seed=scene_seed(seed, index), n_objects=CLI_STREET_OBJECTS,
        street_length=CLI_STREET_LENGTH_M, clutter_rate=1.0, drop_prob=0.1,
    )
    poses, detections, observations, truth = streetinv.simulator.export_scene(spec)
    scene = Scene.from_generated(f"street-cli-{index}", observations, truth)
    frames = np.array([o.frame_id for o in observations])
    rng = np.random.default_rng([seed, index, 1])
    os.makedirs(workdir)
    files = {k: os.path.join(workdir, f"{k}.jsonl") for k in ("poses", "detections", "scores")}
    files["truth"] = os.path.join(workdir, "truth.json")
    files["out"] = os.path.join(workdir, "out")
    _write_jsonl(files["poses"], (
        {"frame_id": p.frame_id, "x": float(p.position[0]), "y": float(p.position[1]),
         "z": float(p.position[2]), "heading": p.heading, "pitch": p.pitch, "roll": p.roll}
        for p in poses
    ))
    _write_jsonl(files["detections"], (
        {"frame_id": d.frame_id, "cx": d.center_x, "cy": d.center_y, "w": d.box_w,
         "h": d.box_h, "img_w": d.image_w, "img_h": d.image_h, "category": d.category,
         "confidence": d.confidence}
        for d in detections
    ))
    _write_jsonl(files["scores"], (
        {"obs_a": a, "obs_b": b, "score": s} for a, b, s in matcher_scores(scene, frames, rng)
    ))
    truth_payload = {
        "objects": [
            {"object_id": k, "category": c, "center": [float(v) for v in x],
             "height": float(truth.objects[k].height)}
            for k, (x, c) in enumerate(scene.gt_objects)
        ],
        "observations": [
            {"obs_id": int(i), "object_id": scene.object_of[int(i)]} for i in scene.obs_ids
        ],
    }
    with open(files["truth"], "w", encoding="utf-8") as handle:
        json.dump(truth_payload, handle, allow_nan=False)
    scene.files = files
    return scene


def run_cli(scene: Scene, no_refine: bool = False) -> None:
    """`streetinv run` through cli.main; a nonzero exit code raises."""
    f = scene.files
    argv = ["run", "--poses", f["poses"], "--detections", f["detections"],
            "--truth", f["truth"], "--scorer", "file:" + f["scores"], "--out", f["out"]]
    if no_refine:
        argv.append("--no-refine")
    with contextlib.redirect_stdout(io.StringIO()):
        code = streetinv.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"streetinv run exited {code}")


def read_cli(scene: Scene, _=None):
    """(inventory records, aggregate report) from the files the run wrote."""
    out_dir = scene.files["out"]
    with open(os.path.join(out_dir, "inventory.jsonl"), encoding="utf-8") as handle:
        records = [checks.strict_json(line) for line in handle if line.strip()]
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as handle:
        report = checks.strict_json(handle.read())
    return records, report["aggregate"]


def associate_inputs(scene: Scene):
    """The observations and config `pipeline.associate` gets for a scene."""
    if scene.files:
        f = scene.files
        observations = streetinv.io.ingest(f["poses"], f["detections"])
        return observations, streetinv.pipeline.RunConfig(scorer="file:" + f["scores"])
    return scene.program_inputs[0], streetinv.pipeline.RunConfig()


def warm_up(workdir: str) -> None:
    """Run the whole program once on a tiny scene, files and CLI included."""
    spec = streetinv.simulator.default_scene_spec(seed=0, n_objects=6, street_length=60.0)
    observations, truth = streetinv.simulator.generate_scene(spec)
    streetinv.pipeline.run_pipeline(streetinv.pipeline.RunConfig(), observations, truth)
    out = os.path.join(workdir, "warmup")
    with contextlib.redirect_stdout(io.StringIO()):
        code = streetinv.cli.main(["simulate", "--out", out, "--seed", "0", "--n-objects", "6",
                                   "--length", "60"])
        if code == 0:
            code = streetinv.cli.main(["run", "--poses", os.path.join(out, "poses.jsonl"),
                                       "--detections", os.path.join(out, "detections.jsonl"),
                                       "--truth", os.path.join(out, "truth.json"),
                                       "--out", os.path.join(out, "run")])
    if code != 0:
        raise RuntimeError(f"warm-up run exited {code}")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # (seed, workdir) -> list[Scene]
    run: object  # (scene, no_refine=False) -> raw output; the timed call
    read: object  # (scene, raw output) -> (records, aggregate report)


WORKLOADS = {
    "district_5km": Workload("district_5km", setup_district, run_in_memory, read_in_memory),
    "street_cli_matcher": Workload("street_cli_matcher", setup_street_cli, run_cli, read_cli),
}


def check_scene(scene: Scene, records, report, refined: bool = True) -> dict:
    """Check one scene's outputs; returns the recomputed quality figures."""
    checks.check_inventory(records, scene.obs_ids, scene.categories, scene.origins, scene.dirs,
                           DEFAULTS.tau_split if refined else None)
    recomputed = checks.recompute_report(records, scene.object_of, scene.gt_objects,
                                         DEFAULTS.identification_tol)
    checks.check_report(report, recomputed)
    return recomputed
