"""End-to-end pipeline: association, triangulation, refinement, reporting.

The run configuration collects every tunable in one place so a run is
reproducible from a config file plus input files alone. Association works
on a sliding window of adjacent frames; refinement is skippable to get the
plain transitive-chaining baseline.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .association import (
    Cluster,
    MatchMatrix,
    PairMatch,
    assign_pairs,
    build_score_matrix,
    transitive_cluster,
)
from .geometry import Observation, ObservationTable
from .io import DataError
from .metrics import EvaluationReport, build_report
from .refinement import RefineConfig, refine
from .simulator import GroundTruth
from .triangulation import DegenerateClusterError, estimate_center

__all__ = ["RunConfig", "PipelineResult", "run_pipeline", "localize_clusters", "inventory_records"]


@dataclass
class RunConfig:
    """All tunables of one pipeline run."""

    window: int = 3
    tau: float = 0.5
    sigma_g: float = 0.5
    tau_split: float = 0.5
    tau_merge: float = 0.5
    tau_scale: float = 1.5
    tau_split_per_category: dict[str, float] = field(default_factory=dict)
    tau_merge_per_category: dict[str, float] = field(default_factory=dict)
    no_refine: bool = False
    scorer: str = "geometric"  # "geometric" or "file:PATH"
    coord_mode: str = "local"  # "local" or "geodetic"
    identification_tol: float = 1.0

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if self.scorer != "geometric" and not self.scorer.startswith("file:"):
            raise ValueError(f"scorer must be 'geometric' or 'file:PATH', got {self.scorer!r}")
        if self.coord_mode not in ("local", "geodetic"):
            raise ValueError(f"coord_mode must be 'local' or 'geodetic', got {self.coord_mode!r}")
        if self.identification_tol <= 0:
            raise ValueError("identification_tol must be positive")

    def refine_config(self) -> RefineConfig:
        return RefineConfig(
            tau_split=self.tau_split,
            tau_merge=self.tau_merge,
            tau_scale=self.tau_scale,
            tau_split_per_category=dict(self.tau_split_per_category),
            tau_merge_per_category=dict(self.tau_merge_per_category),
        )


@dataclass
class PipelineResult:
    observations: list[Observation]
    matches: list[PairMatch]
    clusters: list[Cluster]
    inventory: list[dict]
    report: EvaluationReport | None = None


def _score_matrix_from_file(path: str, observations: list[Observation]) -> MatchMatrix:
    from .io import read_score_triplets

    index = {o.obs_id: i for i, o in enumerate(observations)}
    rows, cols, values = [], [], []
    seen: set[tuple[int, int]] = set()
    for a, b, s in read_score_triplets(path):
        if a not in index or b not in index:
            raise DataError(f"{path}: score references unknown observation ({a}, {b})")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DataError(f"{path}: duplicate score for pair {key}")
        seen.add(key)
        rows.append(index[a])
        cols.append(index[b])
        values.append(s)
    return MatchMatrix.from_pairs([o.obs_id for o in observations], rows, cols, values)


def _window_frame_pairs(frames: list[int], window: int) -> list[tuple[int, int]]:
    """Unordered frame pairs covered by a size-`window` sliding window."""
    pairs = []
    for i in range(len(frames)):
        for j in range(i + 1, min(i + window, len(frames))):
            pairs.append((frames[i], frames[j]))
    return pairs


def associate(observations: list[Observation], cfg: RunConfig) -> tuple[list[PairMatch], list[Cluster]]:
    """Score, assign per frame pair within the window, and chain clusters."""
    if cfg.scorer.startswith("file:"):
        matrix = _score_matrix_from_file(cfg.scorer[len("file:"):], observations)
    else:
        matrix = build_score_matrix(observations, cfg.sigma_g, max_frame_gap=cfg.window - 1)
    by_frame: dict[int, list[int]] = {}
    for o in sorted(observations, key=lambda o: o.obs_id):
        by_frame.setdefault(o.frame_id, []).append(o.obs_id)
    matches: list[PairMatch] = []
    for fa, fb in _window_frame_pairs(sorted(by_frame), cfg.window):
        matches.extend(assign_pairs(matrix, by_frame[fa], by_frame[fb], cfg.tau))
    clusters = transitive_cluster(matches, [o.obs_id for o in observations])
    return matches, clusters


def localize_clusters(clusters: list[Cluster], table: ObservationTable) -> list[Cluster]:
    """Estimate a center for every cluster with at least two rays.

    Degenerate bundles and singletons pass through unlocalized.
    """
    result = []
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        members = sorted(cluster.members)
        center = residuals = None
        if len(members) >= 2:
            rows = table.rows(members)
            try:
                estimate = estimate_center(table.exposure[rows], table.direction[rows])
            except DegenerateClusterError:
                pass
            else:
                center, residuals = estimate.center, dict(zip(members, estimate.residuals))
        result.append(Cluster(cluster.cluster_id, set(members), center, residuals))
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
    observations: list[Observation],
    truth: GroundTruth | None = None,
) -> PipelineResult:
    """Run association, localization, and (unless disabled) refinement.

    Deterministic for fixed config and inputs. With ground truth supplied
    the result carries an evaluation report.
    """
    table = ObservationTable.from_observations(observations)
    matches, initial = associate(observations, cfg)
    if cfg.no_refine:
        final = localize_clusters(initial, table)
    else:
        final = refine(initial, table, cfg.refine_config())
    inventory = inventory_records(final, table)
    report = None
    if truth is not None:
        report = build_report(inventory, truth, cfg.identification_tol)
    return PipelineResult(
        observations=observations,
        matches=matches,
        clusters=final,
        inventory=inventory,
        report=report,
    )
