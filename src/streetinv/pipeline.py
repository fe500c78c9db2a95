"""End-to-end pipeline: association, triangulation, refinement, reporting.

The run configuration collects every tunable in one place so a run is
reproducible from a config file plus input files alone. Association reads
the observations as table rows sorted by frame and matches within a
sliding window of frames; refinement is skippable to get the plain
transitive-chaining baseline. The clusters pass from chaining through
localization or refinement to the inventory as one `ClusterTable`, and
each stage works on its columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import io as sio
from .association import (
    ClusterTable,
    ScoredPairs,
    ScoreTriplets,
    assign_pairs,
    build_score_matrix,
    transitive_cluster,
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
    clusters: ClusterTable
    inventory: list[dict]
    report: EvaluationReport | None = None


def _file_scores(path: str, table: ObservationTable) -> ScoredPairs:
    """The scored row pairs of a triplet file, each pair's rows in the file's order."""
    scores = sio.read_score_triplets(path, table.obs_id)
    return table.rows(scores.obs_a), table.rows(scores.obs_b), scores.score


def associate(
    observations: ObservationTable | list[Observation], cfg: RunConfig
) -> tuple[ScoreTriplets, ClusterTable]:
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
        scored = _file_scores(cfg.scorer[len("file:"):], table)
    else:
        scored = build_score_matrix(table, cfg.sigma_g, pairs)
    row_a, row_b, score = assign_pairs(scored, pairs, cfg.tau)
    id_a, id_b = table.obs_id[row_a], table.obs_id[row_b]
    matches = ScoreTriplets(np.minimum(id_a, id_b), np.maximum(id_a, id_b), score)
    return matches, transitive_cluster(row_a, row_b, table.obs_id)


def localize_clusters(clusters: ClusterTable, table: ObservationTable) -> ClusterTable:
    """Estimate a center for every cluster with at least two rays, in one batched solve.

    Degenerate bundles and singletons come out unlocalized.
    """
    rows = table.rows(clusters.member)
    fit = estimate_centers(table.exposure[rows], table.direction[rows], clusters.group, len(clusters))
    return replace(clusters, center=fit.centers, residual=fit.residuals)


def inventory_records(clusters: ClusterTable, table: ObservationTable) -> list[dict]:
    """Flatten final clusters into inventory records.

    Records are ordered and numbered by their smallest member observation
    id; the category is the members' majority vote (ties alphabetical).
    """
    if not len(clusters):
        return []
    names, codes = table.category_codes
    votes = np.bincount(clusters.group * len(names) + codes[table.rows(clusters.member)],
                        minlength=len(clusters) * len(names)).reshape(len(clusters), len(names))
    # The names are sorted, so the first of the most votes is the alphabetical tie-break.
    category = names[votes.argmax(axis=1)].tolist()
    max_residual = np.maximum.reduceat(clusters.residual, clusters.start).tolist()
    members, centers, localized = clusters.runs(clusters.member), clusters.center.tolist(), clusters.localized.tolist()
    # Each cluster's members are in id order, so its first is its smallest.
    order = np.argsort(clusters.member[clusters.start]).tolist()
    return [
        {
            "object_id": object_id,
            "category": category[g],
            "center": centers[g] if localized[g] else None,
            "n_observations": len(members[g]),
            "max_residual": max_residual[g] if localized[g] else None,
            "members": members[g],
        }
        for object_id, g in enumerate(order)
    ]


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
