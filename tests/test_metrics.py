"""Metrics: contingency-table pair counts, V-measure, identification, reports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streetinv.io import DataError
from streetinv.metrics import (
    ContingencyTable,
    MatchCounts,
    build_report,
    clustering_metrics,
    identification_metrics,
    pairwise_metrics,
)
from streetinv.pipeline import RunConfig, run_pipeline
from streetinv.simulator import GroundTruth, SceneObject, default_scene_spec, generate_scene

from conftest import assert_reports_match, oracle_build_report, oracle_category_loop, oracle_pair_counts

# Six observations: objects 0 (x3), 1 (x2), 2 (x1); clusters A = {0, 0},
# B = {0, 1, 1, 2}.
Y = [0, 0, 0, 1, 1, 2]
C = [0, 0, 1, 1, 1, 1]


class TestContingencyTable:
    def test_cells_and_margins(self):
        table = ContingencyTable.from_labels(Y, C)
        cells = sorted(zip(table.cell_cluster.tolist(), table.cell_object.tolist(),
                           table.counts.tolist()))
        assert cells == [(0, 0, 2), (1, 0, 1), (1, 1, 2), (1, 2, 1)]
        assert table.cluster_totals.tolist() == [2, 4]
        assert table.object_totals.tolist() == [3, 2, 1]
        assert table.total == 6

    def test_pair_counts_by_hand(self):
        # tp = C(2,2) + C(2,2); predicted pairs C(2,2) + C(4,2) = 7;
        # true pairs C(3,2) + C(2,2) = 4.
        assert ContingencyTable.from_labels(Y, C).pair_counts() == MatchCounts(tp=2, fp=5, fn=2)

    def test_empty_or_misaligned_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable.from_labels([], [])
        with pytest.raises(ValueError):
            ContingencyTable.from_labels([0, 1], [0])

    def test_pair_counts_match_quadratic_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            y = rng.integers(0, int(rng.integers(1, 12)), size=n)
            c = rng.integers(0, int(rng.integers(1, 12)), size=n) * 3 + 100
            counts = ContingencyTable.from_labels(y, c).pair_counts()
            assert (counts.tp, counts.fp, counts.fn) == oracle_pair_counts(y, c)


class TestPairwiseMetrics:
    def test_by_hand(self):
        precision, recall, f1 = pairwise_metrics(Y, C)
        assert precision == pytest.approx(2 / 7)
        assert recall == pytest.approx(2 / 4)
        assert f1 == pytest.approx(4 / 11)

    def test_no_predicted_pairs_with_missed_pairs_scores_zero(self):
        assert pairwise_metrics([0, 0], [0, 1]) == (0.0, 0.0, 0.0)

    def test_no_true_pairs_with_false_pairs_scores_zero(self):
        assert pairwise_metrics([0, 1], [5, 5]) == (0.0, 0.0, 0.0)

    def test_nothing_to_get_wrong_scores_one(self):
        assert pairwise_metrics([0, 1, 2], [0, 1, 2]) == (1.0, 1.0, 1.0)


class TestClusteringMetrics:
    def test_by_hand(self):
        ln = math.log
        h_y = -(3 / 6 * ln(3 / 6) + 2 / 6 * ln(2 / 6) + 1 / 6 * ln(1 / 6))
        h_c = -(2 / 6 * ln(2 / 6) + 4 / 6 * ln(4 / 6))
        h_y_given_c = -(2 / 6 * ln(2 / 2) + 1 / 6 * ln(1 / 4) + 2 / 6 * ln(2 / 4) + 1 / 6 * ln(1 / 4))
        h_c_given_y = -(2 / 6 * ln(2 / 3) + 1 / 6 * ln(1 / 3) + 2 / 6 * ln(2 / 2) + 1 / 6 * ln(1 / 1))
        homogeneity = 1 - h_y_given_c / h_y
        completeness = 1 - h_c_given_y / h_c
        v = 2 * homogeneity * completeness / (homogeneity + completeness)
        assert clustering_metrics(Y, C) == pytest.approx((homogeneity, completeness, v), abs=1e-12)

    def test_single_true_object_is_homogeneous(self):
        h, c, v = clustering_metrics([0, 0, 0], [0, 1, 2])
        assert (h, c, v) == pytest.approx((1.0, 0.0, 0.0))

    def test_single_cluster_is_complete(self):
        h, c, v = clustering_metrics([0, 1], [0, 0])
        assert (h, c, v) == pytest.approx((0.0, 1.0, 0.0))

    def test_independent_labelings_score_zero(self):
        assert clustering_metrics([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx((0.0, 0.0, 0.0))

    def test_identical_partitions_score_one(self):
        assert clustering_metrics([3, 3, 1, 2], [0, 0, 7, 5]) == pytest.approx((1.0, 1.0, 1.0))


class TestIdentificationMetrics:
    def test_one_to_one_within_category(self):
        pred = [(np.array([0.0, 0.0, 0.0]), "a"), (np.array([0.1, 0.0, 0.0]), "a"),
                (np.array([5.0, 0.0, 0.0]), "b")]
        gt = [(np.array([0.05, 0.0, 0.0]), "a"), (np.array([5.0, 0.5, 0.0]), "a")]
        precision, recall, f1, loc_err = identification_metrics(pred, gt, tol=1.0)
        # One "a" prediction takes the near truth; the "b" one may not match
        # an "a" truth, and the far "a" truth is out of tolerance.
        assert (precision, recall) == pytest.approx((1 / 3, 1 / 2))
        assert loc_err == pytest.approx(0.05)

    def test_nothing_matched_has_no_error(self):
        pred = [(np.array([0.0, 0.0, 0.0]), "a")]
        gt = [(np.array([3.0, 0.0, 0.0]), "a")]
        assert identification_metrics(pred, gt, tol=1.0) == (0.0, 0.0, 0.0, None)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            identification_metrics([], [], tol=0.0)


def _truth() -> GroundTruth:
    objects = [
        SceneObject(category="a", center=np.array([0.0, 0.0, 0.0]), height=1.0),
        SceneObject(category="a", center=np.array([10.0, 0.0, 0.0]), height=1.0),
        SceneObject(category="b", center=np.array([20.0, 0.0, 0.0]), height=1.0),
    ]
    object_of = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: None, 7: 2}
    return GroundTruth(objects=objects, obs_ids=list(object_of), object_of=object_of)


def _record(category, members, center=None):
    return {"object_id": 0, "category": category, "center": center,
            "n_observations": len(members), "max_residual": None, "members": members}


class TestBuildReport:
    def test_slices_by_record_category(self):
        # Record 1 is labelled "a" but holds two observations of object 2
        # ("b"); they count in the "a" slice. Observation 6 is clutter and
        # observation 7 was never ingested.
        inventory = [
            _record("a", [0, 1], [0.0, 0.0, 0.1]),
            _record("a", [2, 3, 4, 5], [10.0, 0.0, 0.0]),
            _record("b", [6], None),
        ]
        report = build_report(inventory, _truth(), tol=1.0)
        agg, a, b = report.aggregate, report.per_category["a"], report.per_category["b"]
        assert set(report.per_category) == {"a", "b"}
        # Kept observations 0..5 with truth [0,0,1,1,2,2], clusters [0,0,1,1,1,1].
        assert agg.counts_mat == MatchCounts(tp=3, fp=4, fn=0)
        assert a.counts_mat == agg.counts_mat
        assert b.counts_mat == MatchCounts() and b.f1_mat == 0.0
        assert a.counts_idf == MatchCounts(tp=2, fp=0, fn=0)
        assert b.counts_idf == MatchCounts(tp=0, fp=0, fn=1)
        assert agg.counts_idf == MatchCounts(tp=2, fp=0, fn=1)
        assert agg.loc_err == pytest.approx(0.05)
        assert report.to_dict()["aggregate"]["counts_idf"] == {"tp": 2, "fp": 0, "fn": 1}

    def test_to_dict_is_asdict(self):
        inventory = [_record("a", [0, 1], [0.0, 0.0, 0.1]), _record("b", [4, 5, 6], None)]
        report = build_report(inventory, _truth(), tol=1.0)
        assert repr(report.to_dict()) == repr(dataclasses.asdict(report))

    def test_empty_inventory(self):
        report = build_report([], _truth(), tol=1.0)
        assert report.aggregate.counts_mat == MatchCounts()
        assert report.aggregate.counts_idf == MatchCounts(tp=0, fp=0, fn=3)
        assert report.aggregate.loc_err is None
        assert set(report.per_category) == {"a", "b"}

    def test_member_naming_no_truth_observation_is_refused(self):
        inventory = [_record("a", [0, 1]), _record("b", [4, 9, 8]), _record("b", [10])]
        with pytest.raises(DataError, match="^inventory member 9 names no truth observation$"):
            build_report(inventory, _truth(), tol=1.0)


# Centers on a 0.5 m grid a few meters wide: distances tie exactly, land on
# the tolerance, and a prediction is often nearest a truth of another category.
_grid_points = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(lambda p: [0.5 * v for v in p])


@st.composite
def _inventories(draw):
    """(inventory, truth, tol): 1-3 categories, clutter members, unlocalized records, uningested observations."""
    categories = ["a", "b", "c"][: draw(st.integers(1, 3))]
    category = st.sampled_from(categories)
    objects = [
        SceneObject(category=draw(category), center=np.array(draw(_grid_points)), height=1.0)
        for _ in range(draw(st.integers(0, 6)))
    ]
    owners = (st.none() | st.integers(0, len(objects) - 1)) if objects else st.none()
    object_of = dict(enumerate(draw(st.lists(owners, max_size=16))))
    truth = GroundTruth(objects=objects, obs_ids=list(object_of), object_of=object_of)
    # Each observation goes to a record, or to none (never ingested).
    record_of = draw(st.lists(st.integers(-1, 5), min_size=len(object_of), max_size=len(object_of)))
    inventory = []
    for k in sorted(set(record_of) - {-1}):
        members = [i for i, r in enumerate(record_of) if r == k]
        inventory.append(_record(draw(category), members, draw(st.none() | _grid_points)))
    return inventory, truth, draw(st.sampled_from([0.5, 1.0, 1.5]))


class TestReportOracle:
    @settings(max_examples=300, deadline=None)
    @given(_inventories())
    def test_build_report_matches_per_record_oracle(self, case):
        inventory, truth, tol = case
        assert_reports_match(build_report(inventory, truth, tol), oracle_build_report(inventory, truth, tol))

    @settings(max_examples=300, deadline=None)
    @given(_inventories())
    def test_build_report_matches_category_loop(self, case):
        inventory, truth, tol = case
        assert_reports_match(build_report(inventory, truth, tol), oracle_category_loop(inventory, truth, tol))

    @settings(max_examples=300, deadline=None)
    @given(_inventories())
    def test_identification_metrics_matches_oracle(self, case):
        inventory, truth, tol = case
        pred = [(r["center"], r["category"]) for r in inventory if r["center"] is not None]
        gt = [(o.center, o.category) for o in truth.objects]
        m = oracle_build_report(inventory, truth, tol).aggregate
        assert identification_metrics(pred, gt, tol) == (m.pre_idf, m.rec_idf, m.f1_idf, m.loc_err)

    def test_aggregate_error_averages_in_category_order(self):
        # Matched at 0.1 and 0.4 m in "a", 0.2 m in "b": summed in category
        # order the mean differs in the last bit from the distance order.
        objects = [SceneObject(category=c, center=np.array(x), height=1.0)
                   for c, x in (("a", [0.0, 0.0, 0.0]), ("a", [10.0, 0.0, 0.0]), ("b", [20.0, 0.0, 0.0]))]
        truth = GroundTruth(objects=objects, obs_ids=[0, 1, 2], object_of={0: 0, 1: 1, 2: 2})
        inventory = [_record("a", [0], [0.1, 0.0, 0.0]), _record("a", [1], [10.0, 0.4, 0.0]),
                     _record("b", [2], [20.0, 0.0, 0.2])]
        assert np.mean([0.1, 0.4, 0.2]) != np.mean([0.1, 0.2, 0.4])
        assert build_report(inventory, truth, tol=1.0).aggregate.loc_err == np.mean([0.1, 0.4, 0.2])


class TestReportOneTable:
    """`build_report` reads every category off one contingency table; a loop of
    one table per category, `oracle_category_loop`, is the oracle (see
    `assert_reports_match`)."""

    @staticmethod
    def _assert_run_matches(spec):
        observations, truth = generate_scene(spec)
        inventory = run_pipeline(RunConfig(), observations, truth).inventory
        assert_reports_match(build_report(inventory, truth), oracle_category_loop(inventory, truth, 1.0))

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("regime", [{}, {"clutter_rate": 1.0, "drop_prob": 0.1}], ids=["clean", "clutter"])
    def test_desk_scenes(self, seed, regime):
        self._assert_run_matches(default_scene_spec(seed=seed, **regime))

    @pytest.mark.parametrize("seed, regime", [(7000, {}), (23000, {"clutter_rate": 1.0, "drop_prob": 0.1})],
                             ids=["7000-clean", "23000-clutter"])
    def test_district_scenes(self, seed, regime):
        self._assert_run_matches(default_scene_spec(seed=seed, n_objects=750, street_length=5000.0, **regime))

    def test_empty_inventory(self):
        assert_reports_match(build_report([], _truth()), oracle_category_loop([], _truth(), 1.0))

    def test_category_with_objects_and_no_records(self):
        # "b" has a true object and no record: its observation metrics keep
        # the 0.0 of a slice with no observation, and its object is missed.
        inventory = [_record("a", [0, 1], [0.0, 0.0, 0.1]), _record("a", [2, 3], [10.0, 0.0, 0.0])]
        report = build_report(inventory, _truth())
        assert_reports_match(report, oracle_category_loop(inventory, _truth(), 1.0))
        b = report.per_category["b"]
        assert (b.pre_mat, b.rec_mat, b.f1_mat, b.homogeneity, b.completeness, b.v_measure) == (0.0,) * 6
        assert b.counts_mat == MatchCounts() and b.counts_idf == MatchCounts(tp=0, fp=0, fn=1)
        assert b.loc_err is None and (b.pre_idf, b.rec_idf, b.f1_idf) == (0.0, 0.0, 0.0)
