import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tabkit
from tabkit.data import TaskType
from tabkit.errors import MetricError
from tabkit.methods.base import Prediction
from tabkit.metrics import (
    CLASSIFICATION_METRICS,
    R2_SENTINEL,
    REGRESSION_METRICS,
    MetricSet,
    average_ranks,
    compute_metrics,
    metric_names,
    rankdata,
)


def clf_prediction(probs, task=TaskType.BINCLASS):
    return Prediction.classification(task, np.asarray(probs, dtype=np.float64))


def binary_prediction(scores):
    scores = np.asarray(scores, dtype=np.float64)
    return clf_prediction(np.column_stack([1.0 - scores, scores]))


def oracle_auc(scores, truth):
    """Pair counting: wins + half-ties over positive/negative pairs."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    if not pos or not neg:
        return 0.5
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_prf(pred, truth, n_classes):
    precisions, recalls, f1s = [], [], []
    for c in range(n_classes):
        tp = sum(1 for p, t in zip(pred, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, truth) if p != c and t == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    n = len(precisions)
    return sum(precisions) / n, sum(recalls) / n, sum(f1s) / n


class TestAUC:
    def test_hand_case(self):
        pred = binary_prediction([0.1, 0.4, 0.35, 0.8])
        truth = np.array([0, 0, 1, 1])
        metrics = compute_metrics(pred, truth, TaskType.BINCLASS)
        assert metrics["auc"] == pytest.approx(0.75)

    def test_perfect_and_reversed(self):
        truth = np.array([0, 0, 1, 1])
        assert compute_metrics(binary_prediction([0.1, 0.2, 0.8, 0.9]),
                               truth, TaskType.BINCLASS)["auc"] == 1.0
        assert compute_metrics(binary_prediction([0.9, 0.8, 0.2, 0.1]),
                               truth, TaskType.BINCLASS)["auc"] == 0.0

    def test_ties_contribute_half(self):
        pred = binary_prediction([0.5, 0.5, 0.5, 0.5])
        truth = np.array([0, 1, 0, 1])
        metrics = compute_metrics(pred, truth, TaskType.BINCLASS)
        assert metrics["auc"] == pytest.approx(0.5)

    def test_single_class_truth(self):
        pred = binary_prediction([0.2, 0.6, 0.9])
        metrics = compute_metrics(pred, np.array([1, 1, 1]), TaskType.BINCLASS)
        assert metrics["auc"] == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            # coarse grid scores force plenty of ties
            scores = rng.integers(0, 5, size=n) / 4.0
            truth = rng.integers(0, 2, size=n)
            metrics = compute_metrics(binary_prediction(scores), truth,
                                      TaskType.BINCLASS)
            assert metrics["auc"] == pytest.approx(
                oracle_auc(scores, truth), abs=1e-12
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random(30)
        truth = rng.integers(0, 2, size=30)
        base = compute_metrics(binary_prediction(scores), truth,
                               TaskType.BINCLASS)["auc"]
        squashed = compute_metrics(binary_prediction(scores ** 3), truth,
                                   TaskType.BINCLASS)["auc"]
        assert squashed == pytest.approx(base, abs=1e-12)

    def test_multiclass_is_macro_one_vs_rest(self):
        rng = np.random.default_rng(2)
        probs = rng.random((40, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        truth = rng.integers(0, 3, size=40)
        pred = clf_prediction(probs, TaskType.MULTICLASS)
        metrics = compute_metrics(pred, truth, TaskType.MULTICLASS)
        expected = np.mean([
            oracle_auc(probs[:, c], (truth == c).astype(int)) for c in range(3)
        ])
        assert metrics["auc"] == pytest.approx(expected, abs=1e-12)


class TestClassificationMetrics:
    def test_accuracy(self):
        pred = binary_prediction([0.9, 0.9, 0.1, 0.9])
        truth = np.array([1, 1, 1, 0])
        metrics = compute_metrics(pred, truth, TaskType.BINCLASS)
        assert metrics["accuracy"] == pytest.approx(0.5)

    def test_macro_prf_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            n_classes = int(rng.integers(2, 5))
            probs = rng.random((n, n_classes))
            probs /= probs.sum(axis=1, keepdims=True)
            truth = rng.integers(0, n_classes, size=n)
            task = TaskType.BINCLASS if n_classes == 2 else TaskType.MULTICLASS
            pred = clf_prediction(probs, task)
            metrics = compute_metrics(pred, truth, task)
            precision, recall, f1 = oracle_prf(pred.values, truth, n_classes)
            assert metrics["avg_precision"] == pytest.approx(precision, abs=1e-12)
            assert metrics["avg_recall"] == pytest.approx(recall, abs=1e-12)
            assert metrics["f1"] == pytest.approx(f1, abs=1e-12)

    def test_absent_class_contributes_zero(self):
        probs = np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        truth = np.array([0, 0, 1])  # class 2 never appears, never predicted
        pred = clf_prediction(probs, TaskType.MULTICLASS)
        metrics = compute_metrics(pred, truth, TaskType.MULTICLASS)
        assert metrics["avg_recall"] == pytest.approx((1.0 + 1.0 + 0.0) / 3)

    def test_log_loss_clips_extreme_probabilities(self):
        pred = binary_prediction([1.0, 0.0])
        truth = np.array([0, 1])  # both rows maximally wrong
        metrics = compute_metrics(pred, truth, TaskType.BINCLASS)
        assert metrics["log_loss"] == pytest.approx(-np.log(1e-15))
        assert np.isfinite(metrics["log_loss"])

    def test_log_loss_value(self):
        pred = binary_prediction([0.25, 0.75])
        truth = np.array([0, 1])
        metrics = compute_metrics(pred, truth, TaskType.BINCLASS)
        assert metrics["log_loss"] == pytest.approx(-np.log(0.75))

    def test_bounds_hold_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            probs = rng.random((n, 3))
            probs /= probs.sum(axis=1, keepdims=True)
            truth = rng.integers(0, 3, size=n)
            pred = clf_prediction(probs, TaskType.MULTICLASS)
            metrics = compute_metrics(pred, truth, TaskType.MULTICLASS)
            for name in ("accuracy", "avg_recall", "avg_precision", "f1", "auc"):
                assert 0.0 <= metrics[name] <= 1.0
            assert metrics["log_loss"] >= 0.0


class TestRegressionMetrics:
    def test_hand_case(self):
        pred = Prediction.regression([1.0, 2.0])
        metrics = compute_metrics(pred, np.array([1.0, 4.0]),
                                  TaskType.REGRESSION)
        assert metrics["rmse"] == pytest.approx(np.sqrt(2.0))
        assert metrics["mae"] == pytest.approx(1.0)

    def test_constant_mean_predictor_scores_zero_r2(self):
        truth = np.array([1.0, 2.0, 3.0, 6.0])
        pred = Prediction.regression(np.full(4, truth.mean()))
        metrics = compute_metrics(pred, truth, TaskType.REGRESSION)
        assert metrics["r2"] == pytest.approx(0.0)

    def test_perfect_fit(self):
        truth = np.array([1.0, 2.0, 3.0])
        metrics = compute_metrics(Prediction.regression(truth), truth,
                                  TaskType.REGRESSION)
        assert metrics["r2"] == 1.0
        assert metrics["rmse"] == 0.0

    def test_constant_truth_cases(self):
        truth = np.full(3, 5.0)
        exact = compute_metrics(Prediction.regression(truth), truth,
                                TaskType.REGRESSION)
        assert exact["r2"] == 0.0
        off = compute_metrics(Prediction.regression(truth + 1.0), truth,
                              TaskType.REGRESSION)
        assert off["r2"] == R2_SENTINEL

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            truth = rng.normal(size=n)
            pred = Prediction.regression(rng.normal(size=n))
            metrics = compute_metrics(pred, truth, TaskType.REGRESSION)
            assert metrics["rmse"] >= metrics["mae"] >= 0.0


class TestValidation:
    def test_bad_probability_row_raises(self):
        pred = Prediction(
            task=TaskType.BINCLASS,
            values=np.array([0, 1]),
            probabilities=np.array([[0.5, 0.5], [0.6, 0.5]]),
        )
        with pytest.raises(MetricError, match="row 1"):
            compute_metrics(pred, np.array([0, 1]), TaskType.BINCLASS)

    def test_non_finite_probabilities_raise(self):
        pred = Prediction(
            task=TaskType.BINCLASS,
            values=np.array([0]),
            probabilities=np.array([[np.nan, 1.0]]),
        )
        with pytest.raises(MetricError):
            compute_metrics(pred, np.array([0]), TaskType.BINCLASS)

    def test_tiny_row_deviation_tolerated(self):
        pred = Prediction(
            task=TaskType.BINCLASS,
            values=np.array([0]),
            probabilities=np.array([[0.5, 0.5 + 5e-7]]),
        )
        metrics = compute_metrics(pred, np.array([0]), TaskType.BINCLASS)
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_length_mismatch(self):
        pred = binary_prediction([0.5, 0.5])
        with pytest.raises(ValueError):
            compute_metrics(pred, np.array([0]), TaskType.BINCLASS)

    def test_missing_probabilities(self):
        pred = Prediction(task=TaskType.BINCLASS, values=np.array([0, 1]))
        with pytest.raises(ValueError):
            compute_metrics(pred, np.array([0, 1]), TaskType.BINCLASS)


class TestRanks:
    def test_basic_direction(self):
        np.testing.assert_array_equal(
            average_ranks([0.9, 0.7, 0.8], higher_is_better=True),
            [1.0, 3.0, 2.0],
        )
        np.testing.assert_array_equal(
            average_ranks([0.9, 0.7, 0.8], higher_is_better=False),
            [3.0, 1.0, 2.0],
        )

    def test_ties_are_averaged(self):
        ranks = average_ranks([0.5, 0.5, 0.1], higher_is_better=True)
        np.testing.assert_array_equal(ranks, [1.5, 1.5, 3.0])

    def test_rank_sum_property(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            scores = rng.integers(0, 4, size=m) / 3.0
            ranks = average_ranks(scores, higher_is_better=bool(rng.integers(2)))
            assert ranks.sum() == pytest.approx(m * (m + 1) / 2)

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            scores = rng.random(m)  # distinct almost surely
            ranks = average_ranks(scores, higher_is_better=True)
            order = np.argsort(-scores)
            expected = np.empty(m)
            expected[order] = np.arange(1, m + 1)
            np.testing.assert_array_equal(ranks, expected)


class TestRankdata:
    # few distinct values make ties; signed zeros tie, nan makes every rank nan
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=12),
                      elements=st.one_of(
                          st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf]),
                          st.floats(-5.0, 5.0),
                          st.just(np.nan))))
    def test_matches_scipy(self, values):
        expected = scipy.stats.rankdata(values)
        got = rankdata(values)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @given(st.lists(st.integers(-3, 3), max_size=20))
    def test_integers_match_scipy(self, values):
        assert rankdata(values).tobytes() == \
            scipy.stats.rankdata(values).tobytes()


# a linear_regression fit on a one-hot table: 400 × 398, 1.3 % of cells
# nonzero, which the cost rule sends down the in-row pair path
FIT_ONE_HOT = """
import numpy as np
import tabkit
from tabkit.methods import classical
fit, paths = classical.LinearRegressionMethod._fit, []
def spy(self, x_train, *rest):
    paths.append(classical._pair_counts(x_train) is not None)
    return fit(self, x_train, *rest)
classical.LinearRegressionMethod._fit = spy
rng = np.random.default_rng(0)
n, task = 600, tabkit.TaskType.REGRESSION
cat = rng.integers(0, 100, size=(n, 4)).astype(str).astype(object)
rows = rng.permutation(n)
split = {"train": rows[:400], "val": rows[400:500], "test": rows[500:]}
dataset = tabkit.Dataset(rng.normal(size=(n, 1)), cat, rng.normal(size=n),
                         task, split)
info = tabkit.DatasetInfo(task, 1, 4)
record, = tabkit.run_seeds("linear_regression", dataset, info, 1)
assert record.ok, record.error
assert paths == [True], paths
"""


@pytest.fixture(scope="module")
def modules_after_import():
    """The names in ``sys.modules`` of a fresh interpreter that imported
    ``tabkit`` or its console entry point ``tabkit.cli`` and nothing else,
    and of one that then fit linear_regression on a one-hot table."""
    src = str(Path(tabkit.__file__).resolve().parent.parent)
    loaded = {}
    for entry, code in (("tabkit", "import tabkit"),
                        ("tabkit.cli", "import tabkit.cli"),
                        ("one-hot fit", FIT_ONE_HOT)):
        code += "\nimport sys; print(*sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        loaded[entry] = set(out.split())
    return loaded


# each would add to the start-up of every run (scipy.special alone would
# double it), and a run needs none. "scipy" stands for the package and every
# submodule
@pytest.mark.parametrize("module", ["scipy", "scipy.stats", "scipy.sparse",
                                    "scipy.linalg"])
def test_import_leaves_scipy_module_out(module, modules_after_import):
    for entry, names in modules_after_import.items():
        found = [n for n in names if n == module or n.startswith(module + ".")]
        assert not found, (entry, found)


class TestMetricSet:
    def test_names_by_task(self):
        assert metric_names(TaskType.BINCLASS) == CLASSIFICATION_METRICS
        assert metric_names(TaskType.MULTICLASS) == CLASSIFICATION_METRICS
        assert metric_names(TaskType.REGRESSION) == REGRESSION_METRICS

    def test_primary_metric(self):
        clf = MetricSet({"accuracy": 0.9, "auc": 0.95})
        assert clf.primary() == (0.9, True)
        reg = MetricSet({"mae": 1.0, "rmse": 2.0, "r2": 0.5})
        assert reg.primary() == (2.0, False)

    def test_reported_names_are_complete(self):
        pred = binary_prediction([0.2, 0.8])
        metrics = compute_metrics(pred, np.array([0, 1]), TaskType.BINCLASS)
        assert tuple(metrics.values) == CLASSIFICATION_METRICS
