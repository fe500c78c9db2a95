"""Checks of streetinv outputs, computed apart from the program.

Nothing here imports streetinv. Every figure the program reports is
recomputed from the benchmark's own copy of the inputs:

- centers from the closed-form least-squares solution of the member rays,
  Σ(I − dᵢdᵢᵀ) c = Σ(I − dᵢdᵢᵀ) oᵢ, instead of the program's iterative one;
- pairwise matching counts from the contingency table, Σ C(n_km, 2),
  instead of N×N co-membership matrices;
- V-measure from the entropies of the same table;
- identification from a nearest-neighbour match per category, which equals
  the program's one-to-one matching whenever same-category objects are more
  than twice the tolerance apart (checked, not assumed).
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
from scipy.spatial import cKDTree

# How far the program's center may sit from the closed-form minimizer, m:
# in plain distance, and as the rays see it (see check_inventory).
CENTER_TOL_M = 1e-3
CENTER_RAY_TOL_M = 1e-4
# How far a reported residual or metric may sit from its recomputation.
VALUE_TOL = 1e-6


class CheckFailed(Exception):
    """A program output disagrees with its independent recomputation."""


def closed_form_center(origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Least-squares point of a ray bundle from the 3×3 normal equations."""
    origins = np.asarray(origins, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    projectors = np.eye(3)[None, :, :] - dirs[:, :, None] * dirs[:, None, :]
    a = projectors.sum(axis=0)
    b = np.einsum("nij,nj->i", projectors, origins)
    return np.linalg.solve(a, b)


def line_distances(center, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Perpendicular distances from `center` to each ray's infinite line."""
    v = np.asarray(center, dtype=float)[None, :] - np.asarray(origins, dtype=float)
    along = np.einsum("ij,ij->i", v, dirs)
    return np.linalg.norm(v - along[:, None] * dirs, axis=1)


def _rate(hits: int, denominator: int, other_errors: int) -> float:
    # An empty denominator scores 1 when there was nothing to get wrong.
    if denominator == 0:
        return 0.0 if other_errors > 0 else 1.0
    return hits / denominator


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def pair_counts(true_labels, pred_labels) -> tuple[int, int, int]:
    """(tp, fp, fn) over unordered pairs, from the contingency table."""
    joint = Counter(zip(pred_labels, true_labels))
    tp = sum(math.comb(n, 2) for n in joint.values())
    pred_pairs = sum(math.comb(n, 2) for n in Counter(pred_labels).values())
    true_pairs = sum(math.comb(n, 2) for n in Counter(true_labels).values())
    return tp, pred_pairs - tp, true_pairs - tp


def pairwise_f1(true_labels, pred_labels) -> tuple[float, float, float]:
    tp, fp, fn = pair_counts(true_labels, pred_labels)
    p = _rate(tp, tp + fp, fn)
    r = _rate(tp, tp + fn, fp)
    return p, r, _f1(p, r)


def _entropy(counts) -> float:
    n = sum(counts)
    return -sum(c / n * math.log(c / n) for c in counts if c > 0)


def v_measure(true_labels, pred_labels) -> tuple[float, float, float]:
    """Homogeneity, completeness and V-measure (natural logarithms)."""
    n = len(true_labels)
    if n == 0 or n != len(pred_labels):
        raise ValueError("label sequences must be nonempty and of equal length")
    joint = Counter(zip(pred_labels, true_labels))
    per_cluster = Counter(pred_labels)
    per_object = Counter(true_labels)
    h_y = _entropy(per_object.values())
    h_c = _entropy(per_cluster.values())
    h_y_given_c = -sum(c / n * math.log(c / per_cluster[k]) for (k, _), c in joint.items())
    h_c_given_y = -sum(c / n * math.log(c / per_object[m]) for (_, m), c in joint.items())
    h = 1.0 - h_y_given_c / h_y if h_y > 0.0 else 1.0
    c = 1.0 - h_c_given_y / h_c if h_c > 0.0 else 1.0
    return h, c, (0.0 if h + c == 0.0 else 2.0 * h * c / (h + c))


def identification(pred, gt, tol: float):
    """Match predicted to true centers per category by nearest neighbour.

    `pred` and `gt` are lists of (center, category). Returns
    (precision, recall, f1, loc_err or None, (tp, fp, fn)).
    """
    tp = fp = fn = 0
    distances: list[float] = []
    for category in sorted({c for _, c in pred} | {c for _, c in gt}):
        p = np.array([x for x, c in pred if c == category], dtype=float).reshape(-1, 3)
        g = np.array([x for x, c in gt if c == category], dtype=float).reshape(-1, 3)
        if len(g) >= 2:
            nearest = cKDTree(g).query(g, k=2)[0][:, 1]
            if nearest.min() <= 2.0 * tol:
                raise CheckFailed(
                    f"{category}: true objects {nearest.min():.3f} m apart; "
                    "nearest-neighbour matching is not exact below twice the tolerance"
                )
        best: dict[int, float] = {}
        if len(p) and len(g):
            d, j = cKDTree(g).query(p, k=1)
            for dist, obj in zip(d, j):
                if dist < tol:
                    best[int(obj)] = min(best.get(int(obj), math.inf), float(dist))
        tp += len(best)
        fp += len(p) - len(best)
        fn += len(g) - len(best)
        distances.extend(best.values())
    precision = _rate(tp, tp + fp, fn)
    recall = _rate(tp, tp + fn, fp)
    loc_err = float(np.mean(distances)) if distances else None
    return precision, recall, _f1(precision, recall), loc_err, (tp, fp, fn)


def _reject_constant(token: str):
    raise CheckFailed(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_inventory(records, obs_ids, categories, origins, dirs, tau_split=None) -> None:
    """Check inventory records against the input observations.

    `obs_ids`, `categories`, `origins` and `dirs` describe the inputs,
    row-aligned. With `tau_split` given (refined runs), every localized
    multi-member record must keep its residuals within it.
    """
    row = {int(i): k for k, i in enumerate(obs_ids)}
    seen: set[int] = set()
    for rec in records:
        members = [int(m) for m in rec["members"]]
        if not members or len(set(members)) != len(members):
            raise CheckFailed(f"record {rec['object_id']}: empty or repeated members")
        if rec["n_observations"] != len(members):
            raise CheckFailed(f"record {rec['object_id']}: n_observations disagrees with members")
        unknown = [m for m in members if m not in row]
        if unknown:
            raise CheckFailed(f"record {rec['object_id']}: unknown observations {unknown[:5]}")
        twice = seen.intersection(members)
        if twice:
            raise CheckFailed(f"observations {sorted(twice)[:5]} are in two records")
        seen.update(members)
        votes = Counter(categories[row[m]] for m in members)
        top = max(votes.values())
        expected = min(c for c, v in votes.items() if v == top)
        if rec["category"] != expected:
            raise CheckFailed(
                f"record {rec['object_id']}: category {rec['category']!r}, majority {expected!r}"
            )
        if rec["center"] is None:
            continue
        rows = [row[m] for m in members]
        o, d = origins[rows], dirs[rows]
        center = np.asarray(rec["center"], dtype=float)
        if not np.all(np.isfinite(center)):
            raise CheckFailed(f"record {rec['object_id']}: non-finite center")
        # The plain distance bounds a slide along nearly parallel rays; the
        # squared distances' excess over the minimum, per ray, is the squared
        # displacement as the rays see it, which they pin down more tightly.
        best_center = closed_form_center(o, d)
        distances = line_distances(center, o, d)
        best = line_distances(best_center, o, d)
        offset = float(np.linalg.norm(center - best_center))
        across = math.sqrt(max(0.0, float(distances @ distances - best @ best)) / len(members))
        if offset > CENTER_TOL_M or across > CENTER_RAY_TOL_M:
            raise CheckFailed(
                f"record {rec['object_id']}: center {offset:.2e} m from the least-squares "
                f"point, {across:.2e} m across its rays"
            )
        max_residual = float(distances.max())
        if abs(max_residual - rec["max_residual"]) > VALUE_TOL:
            raise CheckFailed(
                f"record {rec['object_id']}: max_residual {rec['max_residual']}, "
                f"recomputed {max_residual}"
            )
        if tau_split is not None and len(members) >= 2 and rec["max_residual"] > tau_split:
            raise CheckFailed(
                f"record {rec['object_id']}: max_residual {rec['max_residual']} > tau_split"
            )
    missing = set(row) - seen
    if missing:
        raise CheckFailed(f"observations {sorted(missing)[:5]} are in no record")


def recompute_report(records, object_of, gt_objects, tol: float) -> dict:
    """Aggregate f1_mat, v_measure, f1_idf and loc_err from first principles.

    `object_of` maps each input observation id to its true object id, or
    None for clutter; clutter has no identity and is left out of the
    pairwise and clustering figures.
    """
    record_of = {int(m): rec["object_id"] for rec in records for m in rec["members"]}
    kept = [i for i in sorted(object_of) if object_of[i] is not None and i in record_of]
    true_labels = [object_of[i] for i in kept]
    pred_labels = [record_of[i] for i in kept]
    out = {"f1_mat": 1.0, "v_measure": 1.0}
    if kept:
        out["f1_mat"] = pairwise_f1(true_labels, pred_labels)[2]
        out["v_measure"] = v_measure(true_labels, pred_labels)[2]
    pred = [(rec["center"], rec["category"]) for rec in records if rec["center"] is not None]
    _, _, out["f1_idf"], out["loc_err"], _ = identification(pred, gt_objects, tol)
    return out


def check_report(reported: dict, recomputed: dict) -> None:
    """Compare the program's aggregate report with the recomputation."""
    for key in ("f1_mat", "v_measure", "f1_idf", "loc_err"):
        got, want = reported[key], recomputed[key]
        if got is None or want is None:
            if got is not want:
                raise CheckFailed(f"{key}: reported {got}, recomputed {want}")
            continue
        if abs(got - want) > VALUE_TOL:
            raise CheckFailed(f"{key}: reported {got}, recomputed {want}")
