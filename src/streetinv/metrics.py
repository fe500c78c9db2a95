"""Evaluation metrics: pairwise matching, clustering quality, and 3D
identification / localization accuracy.

Observation-level metrics are read off the contingency table between
predicted clusters and true objects, built from two label sequences.
Pairwise precision/recall/F1 count unordered observation pairs: a pair is
predicted when both observations share a cluster and true when they share
an object, so true positives are Σ C(n_km, 2) over the table's cells and
the predicted and true pair totals are the same sum over its margins
(Hubert & Arabie 1985, "Comparing partitions"). Clustering quality uses
the entropy-based homogeneity / completeness / V-measure family of the
same table.

The 3D level is one matcher over every category at once: of the pairs of
a predicted and a true center of one category closer than the tolerance,
the closest remaining pair is taken first, one-to-one. Ties go to the
smaller category code (names sorted), then the smaller predicted index,
then the smaller true index, so the matched distances come in category
order and, within a category, in matching order; the mean localization
error sums them in that order. `build_report` evaluates an inventory
against ground truth in one pass over its members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial import cKDTree

from .association import greedy_pairs
from .io import DataError

if TYPE_CHECKING:
    from .simulator import GroundTruth

__all__ = [
    "ContingencyTable",
    "MatchCounts",
    "CategoryMetrics",
    "EvaluationReport",
    "pairwise_metrics",
    "clustering_metrics",
    "identification_metrics",
    "check_members",
    "build_report",
]


@dataclass
class MatchCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass
class ContingencyTable:
    """Joint counts between predicted clusters and ground-truth objects.

    Only the nonzero cells are kept: cell i counts the `counts[i]`
    observations of cluster `cell_cluster[i]` that belong to object
    `cell_object[i]`, indices into `cluster_totals` and `object_totals`.
    """

    counts: np.ndarray
    cell_cluster: np.ndarray
    cell_object: np.ndarray
    cluster_totals: np.ndarray
    object_totals: np.ndarray
    total: int

    @classmethod
    def from_labels(cls, y, c) -> "ContingencyTable":
        """Build the table from true labels `y` and cluster assignments `c`.

        Labels of one sequence must be mutually comparable (e.g. all ints).
        """
        y, c = np.asarray(y), np.asarray(c)
        if y.ndim != 1 or y.shape != c.shape or len(y) == 0:
            raise ValueError("label sequences must be nonempty and of equal length")
        _, obj, object_totals = np.unique(y, return_inverse=True, return_counts=True)
        _, clu, cluster_totals = np.unique(c, return_inverse=True, return_counts=True)
        cells, counts = np.unique(
            clu.astype(np.int64) * len(object_totals) + obj, return_counts=True
        )
        return cls(
            counts=counts,
            cell_cluster=cells // len(object_totals),
            cell_object=cells % len(object_totals),
            cluster_totals=cluster_totals,
            object_totals=object_totals,
            total=len(y),
        )

    def pair_counts(self) -> MatchCounts:
        """TP/FP/FN over unordered pairs of observations."""
        tp = _pairs(self.counts)
        return MatchCounts(
            tp=tp, fp=_pairs(self.cluster_totals) - tp, fn=_pairs(self.object_totals) - tp
        )


def _pairs(counts: np.ndarray) -> int:
    """Σ C(n, 2): unordered pairs inside groups of the given sizes."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _entropy(totals: np.ndarray, n: int) -> float:
    p = totals[totals > 0] / n
    return float(-(p * np.log(p)).sum())


def _rate(hits: int, denominator: int, complementary_errors: int) -> float:
    """Precision/recall with the zero-denominator convention.

    An empty denominator scores 0 when the complementary error count is
    positive (there was something to get wrong) and 1 otherwise.
    """
    if denominator == 0:
        return 0.0 if complementary_errors > 0 else 1.0
    return hits / denominator


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _precision_recall_f1(counts: MatchCounts) -> tuple[float, float, float]:
    precision = _rate(counts.tp, counts.tp + counts.fp, counts.fn)
    recall = _rate(counts.tp, counts.tp + counts.fn, counts.fp)
    return precision, recall, _f1(precision, recall)


def pairwise_metrics(y, c) -> tuple[float, float, float]:
    """Precision, recall, and F1 over unordered observation pairs.

    `y` holds each observation's true object, `c` its predicted cluster; a
    pair counts as predicted when it shares a cluster and as true when it
    shares an object.
    """
    return _precision_recall_f1(ContingencyTable.from_labels(y, c).pair_counts())


def _clustering_scores(table: ContingencyTable) -> tuple[float, float, float]:
    n = table.total
    share = table.counts / n
    return _homogeneity_completeness_v(
        _entropy(table.object_totals, n),
        _entropy(table.cluster_totals, n),
        -float((share * np.log(table.counts / table.cluster_totals[table.cell_cluster])).sum()),
        -float((share * np.log(table.counts / table.object_totals[table.cell_object])).sum()),
    )


def _homogeneity_completeness_v(h_y: float, h_c: float, h_y_given_c: float,
                                h_c_given_y: float) -> tuple[float, float, float]:
    """The scores of a table from its entropies: of the objects, of the clusters, and of each given the other."""
    homogeneity = 1.0 - h_y_given_c / h_y if h_y > 0.0 else 1.0
    completeness = 1.0 - h_c_given_y / h_c if h_c > 0.0 else 1.0
    if homogeneity + completeness == 0.0:
        v_measure = 0.0
    else:
        v_measure = 2.0 * homogeneity * completeness / (homogeneity + completeness)
    return homogeneity, completeness, v_measure


def clustering_metrics(y, c) -> tuple[float, float, float]:
    """Homogeneity, completeness, and V-measure of a cluster assignment.

    Entropies use the natural logarithm. Homogeneity is 1 when the true
    labeling carries no entropy, completeness is 1 when the clustering
    carries none, and V is 0 when both scores are 0.
    """
    return _clustering_scores(ContingencyTable.from_labels(y, c))


def _identify(pred, pred_code, gt, gt_code, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy one-to-one matching of predicted to true centers of the same category.

    `pred` and `gt` are n x 3 centers, `pred_code` and `gt_code` their
    integer category codes. The pairs of one category closer than `tol` are
    walked by (category code, distance, predicted index, true index) in
    `greedy_pairs`: a pair is taken when neither of its centers is taken
    yet. The closest remaining pair is always mutually nearest, so within a
    category this is mutual-nearest pairing. Returns the category codes and distances of the
    taken pairs, in walking order.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    near = cKDTree(pred).sparse_distance_matrix(cKDTree(gt), tol, output_type="ndarray")
    i, j, v = near["i"], near["j"], near["v"]
    same = (v < tol) & (pred_code[i] == gt_code[j])
    i, j, v = i[same], j[same], v[same]
    order = np.lexsort((j, i, v, pred_code[i]))
    i, j, v = i[order], j[order], v[order]
    # True centers are numbered after the predicted ones.
    hit = greedy_pairs(i, j + len(pred))
    return pred_code[i[hit]], v[hit]


def _centers(centers) -> np.ndarray:
    return np.array(list(centers), dtype=float).reshape(-1, 3)


def identification_metrics(
    pred: list[tuple[np.ndarray, str]],
    gt: list[tuple[np.ndarray, str]],
    tol: float = 1.0,
) -> tuple[float, float, float, float | None]:
    """Identification precision/recall/F1 and mean localization error.

    Predictions and ground truths are (center, category) tuples; matching
    is one-to-one within each category under the distance tolerance. The
    localization error averages distances over matched pairs and is None
    when nothing matched.
    """
    _, codes = np.unique(np.array([c for _, c in pred + gt], dtype=object), return_inverse=True)
    pred_centers, gt_centers = _centers(x for x, _ in pred), _centers(x for x, _ in gt)
    _, distances = _identify(pred_centers, codes[: len(pred)], gt_centers, codes[len(pred):], tol)
    m = _category_metrics(np.empty(0), np.empty(0), len(pred), len(gt), distances)
    return m.pre_idf, m.rec_idf, m.f1_idf, m.loc_err


@dataclass
class CategoryMetrics:
    """All metric values for one category (or the aggregate)."""

    pre_mat: float = 0.0
    rec_mat: float = 0.0
    f1_mat: float = 0.0
    homogeneity: float = 0.0
    completeness: float = 0.0
    v_measure: float = 0.0
    pre_idf: float = 0.0
    rec_idf: float = 0.0
    f1_idf: float = 0.0
    loc_err: float | None = None
    counts_mat: MatchCounts = field(default_factory=MatchCounts)
    counts_idf: MatchCounts = field(default_factory=MatchCounts)


def _as_dict(m: CategoryMetrics) -> dict:
    return {**vars(m), "counts_mat": vars(m.counts_mat).copy(), "counts_idf": vars(m.counts_idf).copy()}


@dataclass
class EvaluationReport:
    """Per-category and aggregate metrics for one pipeline run."""

    aggregate: CategoryMetrics
    per_category: dict[str, CategoryMetrics] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field as nested plain dicts, for JSON: `dataclasses.asdict` without its deep copies."""
        return {"aggregate": _as_dict(self.aggregate),
                "per_category": {name: _as_dict(m) for name, m in self.per_category.items()}}

    def to_text(self) -> str:
        header = (
            f"{'category':<20} {'pre_mat':>8} {'rec_mat':>8} {'f1_mat':>8} "
            f"{'homo':>8} {'comp':>8} {'v_meas':>8} "
            f"{'pre_idf':>8} {'rec_idf':>8} {'f1_idf':>8} {'loc_err':>8}"
        )
        lines = [header, "-" * len(header)]

        def row(name: str, m: CategoryMetrics) -> str:
            loc = f"{m.loc_err:.4f}" if m.loc_err is not None else "-"
            return (
                f"{name:<20} {m.pre_mat:>8.4f} {m.rec_mat:>8.4f} {m.f1_mat:>8.4f} "
                f"{m.homogeneity:>8.4f} {m.completeness:>8.4f} {m.v_measure:>8.4f} "
                f"{m.pre_idf:>8.4f} {m.rec_idf:>8.4f} {m.f1_idf:>8.4f} {loc:>8}"
            )

        for name in sorted(self.per_category):
            lines.append(row(name, self.per_category[name]))
        lines.append("-" * len(header))
        lines.append(row("ALL", self.aggregate))
        return "\n".join(lines) + "\n"


def _metrics(mat: tuple[MatchCounts, tuple[float, float, float]] | None, n_pred: int, n_gt: int, tp: int,
             loc_err: float | None) -> CategoryMetrics:
    """The metrics of a category, or the aggregate: `mat` holds its pair counts and clustering
    scores (None: it has no observation), and `tp` of its `n_pred` predicted and `n_gt` true
    objects are matched, at a mean distance `loc_err`."""
    m = CategoryMetrics(loc_err=loc_err)
    if mat is not None:
        m.counts_mat, (m.homogeneity, m.completeness, m.v_measure) = mat
        m.pre_mat, m.rec_mat, m.f1_mat = _precision_recall_f1(m.counts_mat)
    m.counts_idf = MatchCounts(tp=tp, fp=n_pred - tp, fn=n_gt - tp)
    m.pre_idf, m.rec_idf, m.f1_idf = _precision_recall_f1(m.counts_idf)
    return m


def _category_metrics(
    true_labels: np.ndarray,
    pred_labels: np.ndarray,
    n_pred: int,
    n_gt: int,
    distances: np.ndarray,
) -> CategoryMetrics:
    """The metrics of observations labelled `true_labels` and clustered as
    `pred_labels`, and of `n_pred` predicted and `n_gt` true objects matched
    at `distances`."""
    mat = None
    if len(true_labels) > 0:
        table = ContingencyTable.from_labels(true_labels, pred_labels)
        mat = table.pair_counts(), _clustering_scores(table)
    tp = len(distances)
    return _metrics(mat, n_pred, n_gt, tp, float(np.mean(distances)) if tp else None)


def check_members(obs_ids, truth: GroundTruth) -> None:
    """Refuse observation ids that name no truth observation.

    Raises:
        DataError: naming the first of `obs_ids` that truth does not hold.
    """
    unknown = next((obs_id for obs_id in obs_ids if obs_id not in truth.object_of), None)
    if unknown is not None:
        raise DataError(f"inventory member {unknown} names no truth observation")


def _category_tables(true_labels: np.ndarray, pred_labels: np.ndarray, record_code: np.ndarray,
                     n_codes: int) -> list[tuple[MatchCounts, tuple[float, float, float]] | None]:
    """Each category's pair counts and (homogeneity, completeness, V), from one contingency table.

    `true_labels` and `pred_labels` are each observation's object and
    record, `record_code` each record's category code. Every cell lies in
    its record's category, so a category's table is its cells, with the
    cluster margins of its records and object margins of its own. Sums are
    taken per category by `bincount`, exact for the pair counts, which fall
    far below 2**53. A category with no observation has None.
    """
    if not len(true_labels):
        return [None] * n_codes
    n_objects = int(true_labels.max()) + 1
    cells, counts = np.unique(pred_labels * n_objects + true_labels, return_counts=True)
    cell_cluster, cell_object = np.divmod(cells, n_objects)
    cell_code = record_code[cell_cluster]
    # Indexed by record: 0 for a record with no cell.
    by_record = np.bincount(cell_cluster, counts)
    clusters = np.flatnonzero(by_record)
    # An object may have observations in records of two categories: a margin per (category, object).
    margins, margin_of = np.unique(cell_code * n_objects + cell_object, return_inverse=True)
    by_margin = np.bincount(margin_of, counts)

    def total(code: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.bincount(code, values, minlength=n_codes)

    n = total(cell_code, counts)

    def pairs(code: np.ndarray, sizes: np.ndarray) -> list[int]:
        return total(code, sizes * (sizes - 1) / 2).astype(np.int64).tolist()

    def entropy(code: np.ndarray, sizes: np.ndarray) -> list[float]:
        p = sizes / n[code]
        return (-total(code, p * np.log(p))).tolist()

    def conditional_entropy(margin: np.ndarray) -> list[float]:
        return (-total(cell_code, counts / n[cell_code] * np.log(counts / margin))).tolist()

    object_code, cluster_code = margins // n_objects, record_code[clusters]
    entropies = zip(entropy(object_code, by_margin), entropy(cluster_code, by_record[clusters]),
                    conditional_entropy(by_record[cell_cluster]), conditional_entropy(by_margin[margin_of]))
    counted = zip(pairs(cell_code, counts), pairs(cluster_code, by_record[clusters]), pairs(object_code, by_margin))
    return [(MatchCounts(tp=tp, fp=predicted - tp, fn=true - tp), _homogeneity_completeness_v(*h)) if n_c else None
            for n_c, (tp, predicted, true), h in zip(n.tolist(), counted, entropies)]


def build_report(inventory: list[dict], truth: GroundTruth, tol: float = 1.0) -> EvaluationReport:
    """Evaluate inventory records against ground truth, per category and overall.

    Pairwise and clustering metrics cover the true-object observations
    that some record lists as a member; clutter has no identity to recover,
    and truth observations no record lists were never ingested (their
    objects still count as missed targets). Every record is one predicted
    cluster, and its category places its members in a per-category slice;
    every slice is read off one table (`_category_tables`). Identification
    matches each category's localized records to its true objects once; the
    aggregate sums the categories.

    Raises:
        DataError: naming the first member that is no truth observation.
    """
    members = [record["members"] for record in inventory]
    flat = list(chain.from_iterable(members))
    check_members(flat, truth)
    true_labels = np.array([truth.object_of[obs_id] for obs_id in flat], dtype=float)
    pred_labels = np.repeat(np.arange(len(inventory)), list(map(len, members)))
    # Clutter (None, read as NaN) has no identity to recover.
    kept = ~np.isnan(true_labels)
    true_labels, pred_labels = true_labels[kept].astype(np.int64), pred_labels[kept]

    categories = [record["category"] for record in inventory] + [o.category for o in truth.objects]
    names, codes = np.unique(np.array(categories, dtype=object), return_inverse=True)
    record_code, gt_code = codes[: len(inventory)], codes[len(inventory):]
    centers = [record["center"] for record in inventory]
    pred_code = record_code[[center is not None for center in centers]]
    pred = _centers(center for center in centers if center is not None)
    hit_code, distances = _identify(pred, pred_code, _centers(o.center for o in truth.objects), gt_code, tol)

    def tally(code: np.ndarray, weights: np.ndarray | None = None) -> list:
        return np.bincount(code, weights, minlength=len(names)).tolist()

    n_pred, n_gt, n_hit, hit_sum = tally(pred_code), tally(gt_code), tally(hit_code), tally(hit_code, distances)
    tables = _category_tables(true_labels, pred_labels, record_code, len(names))
    per_category = {
        name: _metrics(tables[c], n_pred[c], n_gt[c], n_hit[c], hit_sum[c] / n_hit[c] if n_hit[c] else None)
        for c, name in enumerate(names.tolist()) if n_pred[c] or n_gt[c] or tables[c]
    }
    aggregate = _category_metrics(true_labels, pred_labels, len(pred_code), len(gt_code), distances)
    return EvaluationReport(aggregate=aggregate, per_category=per_category)
