"""The benchmark's checkers on hand-built inputs whose answers are known."""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks


def _toward(origin, point):
    d = np.asarray(point, dtype=float) - np.asarray(origin, dtype=float)
    return d / np.linalg.norm(d)


class TestClosedFormCenter:
    def test_two_rays_meeting_at_a_known_point(self):
        point = np.array([1.0, 2.0, 3.0])
        origins = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        dirs = np.array([_toward(o, point) for o in origins])
        np.testing.assert_allclose(checks.closed_form_center(origins, dirs), point, atol=1e-12)
        np.testing.assert_allclose(checks.line_distances(point, origins, dirs), [0.0, 0.0],
                                   atol=1e-12)

    def test_skew_lines_meet_halfway(self):
        # The x axis raised to z = 1 and the y axis lowered to z = -1: the
        # least-squares point is the origin, 1 m from each line.
        origins = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        center = checks.closed_form_center(origins, dirs)
        np.testing.assert_allclose(center, [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(checks.line_distances(center, origins, dirs), [1.0, 1.0])


class TestPartitionFigures:
    def test_pair_counts_from_the_contingency_table(self):
        # Cluster 1 holds a, a; cluster 2 holds a, b, b.
        # tp = C(2,2) + C(1,2) + C(2,2) = 2; predicted pairs C(2,2) + C(3,2) = 4;
        # true pairs C(3,2) + C(2,2) = 4.
        true = ["a", "a", "a", "b", "b"]
        pred = [1, 1, 2, 2, 2]
        assert checks.pair_counts(true, pred) == (2, 2, 2)
        assert checks.pairwise_f1(true, pred) == pytest.approx((0.5, 0.5, 0.5))

    def test_pairwise_empty_denominators(self):
        # No predicted pair scores 1 only when no true pair was missed.
        assert checks.pairwise_f1(["a", "b"], [1, 2]) == (1.0, 1.0, 1.0)
        assert checks.pairwise_f1(["a", "a"], [1, 2]) == (0.0, 0.0, 0.0)

    def test_v_measure_worked_by_hand(self):
        # true a a b b, clusters 1 1 1 2:
        # H(Y) = ln 2, H(C) = -(3/4 ln 3/4 + 1/4 ln 1/4) = 0.562335,
        # H(Y|C) = 1/2 ln 3/2 + 1/4 ln 3 = 0.477386, H(C|Y) = 1/2 ln 2 = 0.346574,
        # so h = 1 - 0.477386/ln 2, c = 1 - 0.346574/0.562335 and V = 2hc/(h + c).
        h, c, v = checks.v_measure(["a", "a", "b", "b"], [1, 1, 1, 2])
        assert h == pytest.approx(0.311278, abs=2e-6)
        assert c == pytest.approx(0.383689, abs=2e-6)
        assert v == pytest.approx(0.343711, abs=2e-6)

    def test_v_measure_extremes(self):
        assert checks.v_measure(["a", "a", "b"], [7, 7, 8]) == (1.0, 1.0, 1.0)
        h, c, v = checks.v_measure(["a", "a", "b", "b"], [1, 1, 1, 1])
        assert (h, c, v) == (0.0, 1.0, 0.0)


class TestIdentification:
    GT = [
        (np.array([0.0, 0.0, 0.5]), "bollard"),
        (np.array([20.0, 0.0, 0.5]), "bollard"),
        (np.array([5.0, 5.0, 2.5]), "traffic_sign"),
    ]

    def test_known_centers(self):
        pred = [
            (np.array([0.3, 0.0, 0.5]), "bollard"),  # matches at 0.3 m
            (np.array([0.5, 0.0, 0.5]), "bollard"),  # duplicate: false positive
            (np.array([50.0, 0.0, 0.5]), "bollard"),  # nowhere near
            (np.array([5.0, 5.0, 2.9]), "traffic_sign"),  # matches at 0.4 m
            (np.array([20.0, 0.0, 0.5]), "trash_bin"),  # wrong category
        ]
        p, r, f1, loc_err, counts = checks.identification(pred, self.GT, tol=1.0)
        assert counts == (2, 3, 1)
        assert (p, r) == pytest.approx((0.4, 2 / 3))
        assert f1 == pytest.approx(0.5)
        assert loc_err == pytest.approx(0.35)

    def test_tolerance_is_strict(self):
        pred = [(np.array([1.0, 0.0, 0.5]), "bollard")]
        _, _, _, loc_err, counts = checks.identification(pred, self.GT, tol=1.0)
        assert counts == (0, 1, 3) and loc_err is None

    def test_refuses_objects_too_close_for_nearest_neighbour(self):
        gt = [(np.array([0.0, 0.0, 0.0]), "bollard"), (np.array([1.5, 0.0, 0.0]), "bollard")]
        with pytest.raises(checks.CheckFailed):
            checks.identification([], gt, tol=1.0)


def _two_object_scene():
    """Two objects, each seen by two rays, plus one clutter ray."""
    a, b = np.array([10.0, 5.0, 1.0]), np.array([30.0, -6.0, 2.0])
    origins = np.array([[0.0, 0.0, 2.5], [8.0, 0.0, 2.5], [20.0, 0.0, 2.5],
                        [26.0, 0.0, 2.5], [26.0, 0.0, 2.5]])
    targets = [a, a, b, b, np.array([40.0, 9.0, 3.0])]
    dirs = np.array([_toward(o, t) for o, t in zip(origins, targets)])
    obs_ids = np.array([0, 1, 2, 3, 4])
    categories = ["bollard", "bollard", "trash_bin", "trash_bin", "bollard"]
    records = [
        {"object_id": 0, "category": "bollard", "center": a.tolist(), "n_observations": 2,
         "max_residual": 0.0, "members": [0, 1]},
        {"object_id": 1, "category": "trash_bin", "center": b.tolist(), "n_observations": 2,
         "max_residual": 0.0, "members": [2, 3]},
        {"object_id": 2, "category": "bollard", "center": None, "n_observations": 1,
         "max_residual": None, "members": [4]},
    ]
    return records, (obs_ids, categories, origins, dirs), (a, b)


class TestInventory:
    def test_consistent_inventory_passes(self):
        records, inputs, _ = _two_object_scene()
        checks.check_inventory(records, *inputs, tau_split=0.5)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda r: r[0].update(center=[10.0, 5.0, 1.01]),  # 1 cm off the least-squares point
            lambda r: r[0].update(max_residual=0.2),  # disagrees with the distances
            lambda r: r[1].update(category="bollard"),  # not the majority
            lambda r: r[2].update(members=[4, 0], n_observations=2),  # obs 0 twice
            lambda r: r.pop(2),  # obs 4 in no record
            lambda r: r[2].update(members=[9]),  # unknown observation
            lambda r: r[0].update(n_observations=3),
        ],
    )
    def test_inconsistent_inventory_fails(self, corrupt):
        records, inputs, _ = _two_object_scene()
        corrupt(records)
        with pytest.raises(checks.CheckFailed):
            checks.check_inventory(records, *inputs)

    def test_center_is_judged_where_the_rays_determine_it(self):
        # Two rays 1° apart: moving the center 0.5 mm along them barely
        # changes its distances to them; moving it 0.5 mm across does, and
        # 2 mm along them is too far from the least-squares point.
        target = np.array([40.0, 0.0, 2.0])
        origins = np.array([[0.0, 0.0, 2.0], [0.0, 40.0 * math.tan(math.radians(1.0)), 2.0]])
        dirs = np.array([_toward(o, target) for o in origins])
        ids, cats = np.array([0, 1]), ["bollard", "bollard"]
        for shift, ok in (([5e-4, 0.0, 0.0], True), ([0.0, 0.0, 5e-4], False),
                          ([2e-3, 0.0, 0.0], False)):
            center = target + np.array(shift)
            record = {"object_id": 0, "category": "bollard", "center": center.tolist(),
                      "n_observations": 2, "members": [0, 1],
                      "max_residual": float(checks.line_distances(center, origins, dirs).max())}
            if ok:
                checks.check_inventory([record], ids, cats, origins, dirs)
            else:
                with pytest.raises(checks.CheckFailed):
                    checks.check_inventory([record], ids, cats, origins, dirs)

    def test_residual_above_tau_split_fails_only_when_refined(self):
        records, (ids, cats, origins, dirs), (a, _) = _two_object_scene()
        dirs[1] = _toward(origins[1], a + np.array([0.0, 0.0, 1.0]))
        center = checks.closed_form_center(origins[:2], dirs[:2])
        records[0]["center"] = center.tolist()
        records[0]["max_residual"] = float(checks.line_distances(center, origins[:2], dirs[:2]).max())
        assert records[0]["max_residual"] > 0.3
        checks.check_inventory(records, ids, cats, origins, dirs)
        with pytest.raises(checks.CheckFailed):
            checks.check_inventory(records, ids, cats, origins, dirs, tau_split=0.3)


class TestReport:
    def test_recomputed_report_of_a_perfect_inventory(self):
        records, _, (a, b) = _two_object_scene()
        object_of = {0: 0, 1: 0, 2: 1, 3: 1, 4: None}
        gt = [(a, "bollard"), (b, "trash_bin")]
        got = checks.recompute_report(records, object_of, gt, tol=1.0)
        assert got == {"f1_mat": 1.0, "v_measure": 1.0, "f1_idf": 1.0, "loc_err": 0.0}
        checks.check_report(dict(got), got)
        with pytest.raises(checks.CheckFailed):
            checks.check_report(dict(got, f1_idf=0.99), got)
        with pytest.raises(checks.CheckFailed):
            checks.check_report(dict(got, loc_err=None), got)


def test_strict_json_refuses_non_finite_numbers():
    assert checks.strict_json('{"x": [1.5, null]}') == {"x": [1.5, None]}
    for text in ('{"x": NaN}', '{"x": Infinity}', '[-Infinity]'):
        with pytest.raises(checks.CheckFailed):
            checks.strict_json(text)
    assert math.isfinite(checks.strict_json("1e308"))
