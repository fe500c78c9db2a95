"""End-to-end pipeline: association, triangulation, refinement, reporting.

The run configuration collects every tunable in one place so a run is
reproducible from a config file plus input files alone. Association reads
the observations as table rows sorted by frame and matches within a
sliding window of frames; refinement is skippable to get the plain
transitive-chaining baseline.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import io as sio
from .association import (
    Cluster,
    ScoreTriplets,
    assign_pairs,
    build_score_matrix,
    score_window,
    transitive_cluster,
    window_blocks,
    window_pairs,
)
from .geometry import Observation, ObservationTable
from .metrics import EvaluationReport, build_report
from .refinement import refine
from .simulator import GroundTruth
# estimate_center is not called here; it stays importable from this module
# because bench/run.py wraps `pipeline.estimate_center` by name.
from .triangulation import estimate_center, estimate_centers  # noqa: F401

__all__ = ["RunConfig", "PipelineResult", "run_pipeline", "localize_clusters", "inventory_records"]


@dataclass
class RunConfig:
    """All tunables of one pipeline run, checked when the config is built.

    Each scalar field's metadata "help" is the help text of its flag.
    tau_split and tau_merge may be overridden per category.
    """

    window: int = field(default=3, metadata={"help": "association window size K (frames), at least 2"})
    tau: float = field(default=0.5, metadata={"help": "match confidence threshold, in (0, 1]"})
    sigma_g: float = field(default=0.5, metadata={"help": "geometric score decay (m), positive"})
    tau_split: float = field(default=0.5, metadata={"help": "split threshold (m), positive"})
    tau_merge: float = field(default=0.5, metadata={"help": "merge threshold (m), positive"})
    tau_scale: float = field(
        default=1.5, metadata={"help": "bound on the ratio of implied physical sizes in a merge, above 1"}
    )
    tau_split_per_category: dict[str, float] = field(default_factory=dict)
    tau_merge_per_category: dict[str, float] = field(default_factory=dict)
    no_refine: bool = field(default=False, metadata={"help": "skip refinement (transitive-chaining baseline)"})
    scorer: str = field(default="geometric", metadata={"help": "'geometric' or 'file:PATH' (score triplets)"})
    coord_mode: str = field(default="local", metadata={"help": "pose coordinates: 'local' or 'geodetic'"})
    identification_tol: float = field(
        default=1.0, metadata={"help": "identification distance tolerance (m), positive"}
    )

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if not 0 < self.tau <= 1:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        positive = {
            "sigma_g": self.sigma_g,
            "tau_split": self.tau_split,
            "tau_merge": self.tau_merge,
            "identification_tol": self.identification_tol,
            **{f"tau_split.{c}": v for c, v in self.tau_split_per_category.items()},
            **{f"tau_merge.{c}": v for c, v in self.tau_merge_per_category.items()},
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.tau_scale > 1:
            raise ValueError(f"tau_scale must be greater than 1, got {self.tau_scale}")
        if self.scorer != "geometric" and not self.scorer.startswith("file:"):
            raise ValueError(f"scorer must be 'geometric' or 'file:PATH', got {self.scorer!r}")
        if self.coord_mode not in ("local", "geodetic"):
            raise ValueError(f"coord_mode must be 'local' or 'geodetic', got {self.coord_mode!r}")

    def split_threshold(self, category: str) -> float:
        return self.tau_split_per_category.get(category, self.tau_split)

    def merge_threshold(self, category: str) -> float:
        return self.tau_merge_per_category.get(category, self.tau_merge)


@dataclass
class PipelineResult:
    matches: ScoreTriplets
    clusters: list[Cluster]
    inventory: list[dict]
    report: EvaluationReport | None = None


def _file_scores(path: str, table: ObservationTable, pairs: list[tuple[slice, slice]]) -> np.ndarray:
    """Scores from a triplet file, laid out by `score_window`; a row pair the file leaves out scores 0."""
    scores = sio.read_score_triplets(path, table.obs_id)
    rows = table.rows(np.stack([scores.obs_a, scores.obs_b], axis=-1).ravel()).reshape(-1, 2)
    n = len(table)
    # A pair's key is (earlier row) * n + (later row); the last, n * n, is above every row pair's.
    key = np.append(rows.min(axis=1) * n + rows.max(axis=1), n * n)
    order = np.argsort(key)
    key, value = key[order], np.append(scores.score, 0.0)[order]

    def lookup(i, j):
        wanted = i * n + j
        k = np.searchsorted(key, wanted)
        return np.where(key[k] == wanted, value[k], 0.0)

    return score_window(pairs, lookup)


def associate(
    observations: ObservationTable | list[Observation], cfg: RunConfig
) -> tuple[ScoreTriplets, list[Cluster]]:
    """Score, assign per frame pair within the window, and chain clusters.

    Works on the observations as table rows sorted by (frame_id, obs_id).
    The matches are the kept assignments with obs_a < obs_b, frame pair
    by frame pair in window order, each pair's in order of its earlier
    frame's rows.
    """
    table = ObservationTable.of(observations)
    table = table.take(np.lexsort((table.obs_id, table.frame_id)))
    pairs = window_pairs(table.frame_id, cfg.window)
    if cfg.scorer.startswith("file:"):
        scores = _file_scores(cfg.scorer[len("file:"):], table, pairs)
    else:
        scores = build_score_matrix(table, cfg.sigma_g, pairs)
    matched = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
    for (a, b), block in zip(pairs, window_blocks(scores, pairs)):
        rows, cols = assign_pairs(block, cfg.tau)
        matched.append((rows + a.start, cols + b.start, block[rows, cols]))
    row_a, row_b, score = (np.concatenate(column) for column in zip(*matched))
    id_a, id_b = table.obs_id[row_a], table.obs_id[row_b]
    matches = ScoreTriplets(np.minimum(id_a, id_b), np.maximum(id_a, id_b), score)
    return matches, transitive_cluster(row_a, row_b, table.obs_id)


def localize_clusters(clusters: list[Cluster], table: ObservationTable) -> list[Cluster]:
    """Estimate a center for every cluster with at least two rays, in one batched solve.

    Degenerate bundles and singletons pass through unlocalized.
    """
    ordered = sorted(clusters, key=lambda c: c.cluster_id)
    member_lists = [sorted(c.members) for c in ordered]
    rows = table.rows([m for ms in member_lists for m in ms])
    group = np.repeat(np.arange(len(ordered)), [len(ms) for ms in member_lists])
    fit = estimate_centers(table.exposure[rows], table.direction[rows], group, len(ordered))
    residuals = iter(fit.residuals.tolist())
    result = []
    for k, (cluster, members) in enumerate(zip(ordered, member_lists)):
        spread = dict(zip(members, itertools.islice(residuals, len(members))))
        if fit.degenerate[k]:
            result.append(Cluster(cluster.cluster_id, set(members)))
        else:
            result.append(Cluster(cluster.cluster_id, set(members), fit.centers[k], spread))
    return result


def inventory_records(clusters: list[Cluster], table: ObservationTable) -> list[dict]:
    """Flatten final clusters into inventory records.

    Records are ordered and numbered by their smallest member observation
    id; the category is the members' majority vote (ties alphabetical).
    """
    ordered = sorted(clusters, key=lambda c: min(c.members))
    member_lists = [sorted(c.members) for c in ordered]
    categories = iter(table.category[table.rows([m for ms in member_lists for m in ms])])
    records = []
    for object_id, (cluster, members) in enumerate(zip(ordered, member_lists)):
        votes = Counter(itertools.islice(categories, len(members)))
        category = min(votes, key=lambda name: (-votes[name], name))
        localized = cluster.center is not None
        records.append(
            {
                "object_id": object_id,
                "category": category,
                "center": [float(v) for v in cluster.center] if localized else None,
                "n_observations": len(members),
                "max_residual": max(cluster.residuals.values()) if localized else None,
                "members": members,
            }
        )
    return records


def run_pipeline(
    cfg: RunConfig,
    observations: ObservationTable | list[Observation],
    truth: GroundTruth | None = None,
) -> PipelineResult:
    """Run association, localization, and (unless disabled) refinement.

    Deterministic for fixed config and inputs. With ground truth supplied
    the result carries an evaluation report.
    """
    table = ObservationTable.of(observations)
    matches, initial = associate(table, cfg)
    if cfg.no_refine:
        final = localize_clusters(initial, table)
    else:
        final = refine(initial, table, cfg)
    inventory = inventory_records(final, table)
    report = None
    if truth is not None:
        report = build_report(inventory, truth, cfg.identification_tol)
    return PipelineResult(
        matches=matches,
        clusters=final,
        inventory=inventory,
        report=report,
    )
