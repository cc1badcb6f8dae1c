import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabkit.data import Dataset, DatasetInfo, TaskType
from tabkit.errors import FitError, TabkitError
from tabkit.methods import MethodConfig, classical, get_method
from tabkit.methods.classical import (
    DummyMethod,
    KNNMethod,
    LinearRegressionMethod,
    LinearSVMMethod,
    LogisticRegressionMethod,
    NaiveBayesMethod,
    NCMMethod,
    _pair_counts,
    _ridge_system,
    _softmax,
)
from tabkit.methods.mlp import MLPMethod
from tabkit.pipeline import PipelineConfig
from tabkit.report import run_seeds

from conftest import dataset_from_arrays, make_classification


def fit_method(cls, dataset, info, model=None, **config_kwargs):
    method = cls(MethodConfig(model=model or {}, **config_kwargs), info)
    method.fit(dataset, info)
    return method


# maxabs over inputs already spanning [-1, 1] is the identity transform,
# which keeps raw-space assertions (like coefficient recovery) meaningful
IDENTITY = PipelineConfig(normalization="maxabs")

REGRESSION_INFO = DatasetInfo(task=TaskType.REGRESSION, n_num_features=1,
                              n_cat_features=0, class_count=None, name="table")


class TestRegistry:
    def test_known_names(self):
        assert get_method("dummy") is DummyMethod
        assert get_method("mlp") is MLPMethod

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(TabkitError) as excinfo:
            get_method("tabnet")
        message = str(excinfo.value)
        assert "tabnet" in message
        for name in ("dummy", "knn", "gbdt", "mlp"):
            assert name in message


class TestDummy:
    def test_majority_class_with_frequencies(self):
        dataset, info = dataset_from_arrays(
            [[0.0], [1.0], [2.0]], [0, 0, 1], TaskType.BINCLASS
        )
        method = fit_method(DummyMethod, dataset, info)
        pred = method.predict(np.array([[5.0], [-3.0]]), np.empty((2, 0), dtype=object))
        np.testing.assert_array_equal(pred.values, [0, 0])
        np.testing.assert_allclose(pred.probabilities, [[2 / 3, 1 / 3]] * 2)

    def test_regression_mean(self):
        dataset, info = dataset_from_arrays(
            [[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0], TaskType.REGRESSION
        )
        method = fit_method(DummyMethod, dataset, info)
        pred = method.predict(np.array([[9.0]]), np.empty((1, 0), dtype=object))
        assert pred.values[0] == 2.0


class TestKNN:
    def test_exact_match_wins_with_k1(self):
        num = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0], [1.0, -4.0]])
        dataset, info = dataset_from_arrays(num, [0, 1, 2, 1], TaskType.MULTICLASS)
        method = fit_method(KNNMethod, dataset, info, model={"n_neighbors": 1})
        pred = method.predict(num.copy(), np.empty((4, 0), dtype=object))
        np.testing.assert_array_equal(pred.values, [0, 1, 2, 1])

    def test_majority_vote(self):
        # neighbors of the origin at distances 1, 2, 3 carry labels 1, 1, 0
        dataset, info = dataset_from_arrays(
            [[1.0], [2.0], [3.0], [50.0]], [1, 1, 0, 0], TaskType.BINCLASS
        )
        method = fit_method(KNNMethod, dataset, info, model={"n_neighbors": 3})
        pred = method.predict(np.array([[0.0]]), np.empty((1, 0), dtype=object))
        assert pred.values[0] == 1
        np.testing.assert_allclose(pred.probabilities[0], [1 / 3, 2 / 3])

    def test_vote_tie_takes_lowest_class(self):
        dataset, info = dataset_from_arrays(
            [[1.0], [2.0], [3.0], [4.0]], [1, 0, 0, 1], TaskType.BINCLASS
        )
        method = fit_method(KNNMethod, dataset, info, model={"n_neighbors": 4})
        pred = method.predict(np.array([[0.0]]), np.empty((1, 0), dtype=object))
        assert pred.values[0] == 0

    def test_k_equals_n_regression_is_global_mean(self):
        dataset, info = dataset_from_arrays(
            [[0.0], [1.0], [2.0], [3.0]], [1.0, 3.0, 5.0, 7.0], TaskType.REGRESSION
        )
        method = fit_method(KNNMethod, dataset, info, model={"n_neighbors": 4})
        pred = method.predict(
            np.array([[0.0], [100.0]]), np.empty((2, 0), dtype=object)
        )
        np.testing.assert_allclose(pred.values, [4.0, 4.0])

    def test_k_larger_than_train_rejected(self):
        dataset, info = dataset_from_arrays([[0.0], [1.0]], [0, 1], TaskType.BINCLASS)
        method = KNNMethod(MethodConfig(model={"n_neighbors": 3}), info)
        with pytest.raises(ValueError, match="exceeds"):
            method.fit(dataset, info)


class TestNCM:
    def test_separated_blobs_high_accuracy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, size=(50, 3))
        b = rng.normal(10.0, 1.0, size=(50, 3))
        num = np.vstack([a, b])
        labels = np.array([0] * 50 + [1] * 50)
        dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS)
        method = fit_method(NCMMethod, dataset, info)
        pred = method.predict(num, np.empty((100, 0), dtype=object))
        assert (pred.values == labels).mean() >= 0.99

    def test_probabilities_sum_to_one(self):
        dataset, info = make_classification(n_classes=3, seed=1)
        method = fit_method(NCMMethod, dataset, info)
        pred = method.predict_part(dataset, "test")
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_regression(self):
        _, info = dataset_from_arrays([[0.0]], [1.0], TaskType.REGRESSION)
        with pytest.raises(FitError, match="regression"):
            NCMMethod(MethodConfig(), info)

    def test_predict_memory_follows_the_query_table(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4000, 40))
        y = rng.integers(0, 16, size=4000)
        info = DatasetInfo(task=TaskType.MULTICLASS, n_num_features=40,
                           n_cat_features=0, class_count=16, name="table")
        method = NCMMethod(MethodConfig(), info)
        method._fit(x, y, x[:0], y[:0])
        tracemalloc.start()
        try:
            prediction = method._predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a (rows, classes, features) difference array would be 16 tables
        output = prediction.values.nbytes + prediction.probabilities.nbytes
        assert peak <= 2 * x.nbytes + output

    def test_fit_copies_one_class_at_a_time(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3000, 100))
        y = np.arange(3000) % 3
        info = DatasetInfo(task=TaskType.MULTICLASS, n_num_features=100,
                           n_cat_features=0, class_count=3, name="table")
        method = NCMMethod(MethodConfig(), info)
        tracemalloc.start()
        try:
            method._fit(x, y, x[:0], y[:0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one class's rows (a third of the table) and their indices, the
        # centroids, a row mask and 64 KiB to spare; two class copies at
        # once would be two thirds of the table
        members = np.flatnonzero(y == 0)
        block = x[members].nbytes + members.nbytes
        assert peak <= block + method._centroids.nbytes + y.size + 2 ** 16


class TestNaiveBayes:
    def test_blobs(self):
        rng = np.random.default_rng(2)
        num = np.vstack([
            rng.normal(-4.0, 1.0, size=(60, 2)),
            rng.normal(4.0, 1.0, size=(60, 2)),
        ])
        labels = np.array([0] * 60 + [1] * 60)
        dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS)
        method = fit_method(NaiveBayesMethod, dataset, info)
        pred = method.predict(num, np.empty((120, 0), dtype=object))
        assert (pred.values == labels).mean() >= 0.99

    def test_constant_feature_survives_variance_floor(self):
        num = np.column_stack([np.ones(20), np.arange(20, dtype=float)])
        labels = (np.arange(20) >= 10).astype(int)
        dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS)
        method = fit_method(NaiveBayesMethod, dataset, info)
        pred = method.predict(num, np.empty((20, 0), dtype=object))
        assert np.isfinite(pred.probabilities).all()


@st.composite
def one_hot_tables(draw, binary=False):
    """(x, y): one-hot blocks, numeric columns that hold exact zeros, and
    all-zero columns, in a drawn column order. With ``binary`` every cell is
    0 or 1 and every target an integer, so every sum of the system is exact."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = [np.zeros((n, draw(st.integers(0, 2))))]
    for tokens in draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)):
        columns.append(np.eye(tokens)[rng.integers(0, tokens, size=n)])
    for _ in range(draw(st.integers(0, 3))):
        column = (rng.integers(0, 2, size=n).astype(np.float64) if binary
                  else rng.normal(size=n) * 10.0 ** rng.integers(-3, 4))
        column[rng.random(n) < 0.5] = 0.0
        columns.append(column[:, None])
    x = np.hstack(columns)
    x = np.ascontiguousarray(x[:, rng.permutation(x.shape[1])])
    y = (rng.integers(-5, 6, size=n).astype(np.float64) if binary
         else rng.normal(size=n))
    return x, y


def dense_system(x, y):
    """The oracle: the normal equations of the design matrix [x, 1]."""
    design = np.hstack([x, np.ones((len(x), 1))])
    return design.T @ design, design.T @ y


class TestRidgeSystem:
    @given(one_hot_tables())
    def test_pairs_match_the_dense_products(self, table):
        x, y = table
        gram, rhs = _ridge_system(x, y, np.count_nonzero(x, axis=1))
        expected_gram, expected_rhs = dense_system(x, y)
        # each entry is a sum of at most 30 products: both sides round it
        # within a few ulps of the sum of the products' magnitudes
        bound_gram, bound_rhs = dense_system(np.abs(x), np.abs(y))
        assert (np.abs(gram - expected_gram) <= 1e-13 * bound_gram).all()
        assert (np.abs(rhs - expected_rhs) <= 1e-13 * bound_rhs).all()
        # a row a chunk adds every entry's products in the same order
        with mock.patch.object(classical, "_CHUNK_PAIRS", 1):
            chunked = _ridge_system(x, y, np.count_nonzero(x, axis=1))
        assert [a.tobytes() for a in chunked] == [gram.tobytes(), rhs.tobytes()]

    @given(one_hot_tables(binary=True))
    def test_exact_sums_are_bit_equal(self, table):
        x, y = table
        expected = [a.tobytes() for a in dense_system(x, y)]
        for nnz in (np.count_nonzero(x, axis=1), None):
            assert [a.tobytes() for a in _ridge_system(x, y, nnz)] == expected

    @given(one_hot_tables(), st.sampled_from([np.nan, np.inf, -np.inf, 1e200,
                                              -1e200]), st.data())
    def test_a_cell_that_is_not_finite_fails_both_paths(self, table, cell, data):
        x, y = table
        x[data.draw(st.integers(0, len(x) - 1)),
          data.draw(st.integers(0, x.shape[1] - 1))] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for nnz in (np.count_nonzero(x, axis=1), None):
                with pytest.raises(FitError, match="^ridge system is not finite$"):
                    _ridge_system(x, y, nnz)


class TestLinearRegression:
    def test_exact_recovery(self):
        x = np.linspace(-1.0, 1.0, 21)
        y = 2.0 * x + 1.0
        dataset, info = dataset_from_arrays(x, y, TaskType.REGRESSION)
        method = fit_method(LinearRegressionMethod, dataset, info, pipeline=IDENTITY)
        # fitted in the targets' unit: 2^e times the weights recovers the line
        assert abs(np.ldexp(method._weights[0], method._unit) - 2.0) < 1e-6
        assert abs(np.ldexp(method._bias, method._unit) - 1.0) < 1e-6

    def test_prediction_on_new_points(self):
        x = np.linspace(-1.0, 1.0, 21)
        dataset, info = dataset_from_arrays(x, 2 * x + 1, TaskType.REGRESSION)
        method = fit_method(LinearRegressionMethod, dataset, info, pipeline=IDENTITY)
        pred = method.predict(np.array([[0.5]]), np.empty((1, 0), dtype=object))
        assert pred.values[0] == pytest.approx(2.0, abs=1e-6)

    def test_rejects_classification(self):
        _, info = dataset_from_arrays([[0.0]], [0], TaskType.BINCLASS)
        with pytest.raises(FitError):
            LinearRegressionMethod(MethodConfig(), info)

    def test_overflowing_solution_fails_the_fit(self):
        # the system is finite, but w = x'y / (x'x + L2) is about 1e311
        x = np.array([[1e-3], [-1e-3]] * 5)
        y = np.array([1e308, -1e308] * 5)
        with pytest.raises(FitError, match="solution is not finite"):
            LinearRegressionMethod(MethodConfig(), REGRESSION_INFO)._fit(
                x, y, x[:0], y[:0])

    def test_one_hot_fit_memory_stays_below_the_table(self):
        # encode-10k's one-hot regression table: 8 columns of 200 tokens and
        # 3 numeric columns over 6,000 rows, 1 % of cells nonzero
        x, y = one_hot_table(numeric=3, blocks=8, tokens=200)
        assert _pair_counts(x) is not None
        peak = fit_peak(x, y)
        # a design matrix with the bias column would be more than the table;
        # the (d + 1)² system is 0.27 of it, and the fit peaks at 0.30
        assert peak <= 0.5 * x.nbytes

    def test_wide_rows_fit_in_chunks_of_pairs(self):
        # 40 nonzeros a row among 1,600 columns: the rows' in-row pairs, each
        # an index and a product, would take twice the table at once
        x, y = one_hot_table(numeric=0, blocks=40, tokens=40)
        nnz = _pair_counts(x)
        assert nnz is not None
        assert 16 * np.square(nnz + 1).sum() > 2 * x.nbytes
        gram_bytes = 8 * (x.shape[1] + 1) ** 2
        # the fit peaks at the Gram plus 0.03 of the table
        assert fit_peak(x, y) <= gram_bytes + 0.25 * x.nbytes


def one_hot_table(numeric, blocks, tokens, n=6000):
    """``numeric`` normal columns, then ``blocks`` one-hot blocks of
    ``tokens`` columns each, over ``n`` rows, and a normal target."""
    rng = np.random.default_rng(4)
    x = np.zeros((n, numeric + blocks * tokens))
    x[:, :numeric] = rng.normal(size=(n, numeric))
    codes = rng.integers(0, tokens, size=(n, blocks))
    x[np.arange(n)[:, None], numeric + codes + tokens * np.arange(blocks)] = 1.0
    return x, rng.normal(size=n)


def fit_peak(x, y) -> int:
    """tracemalloc's peak over one linear_regression fit on ``x``."""
    method = LinearRegressionMethod(MethodConfig(), REGRESSION_INFO)
    tracemalloc.start()
    try:
        method._fit(x, y, x[:0], y[:0])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGradientDescentClassifiers:
    def test_logreg_separable_four_points(self):
        num = np.array([[-2.0, 0.0], [-1.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS)
        method = fit_method(LogisticRegressionMethod, dataset, info)
        pred = method.predict(num, np.empty((4, 0), dtype=object))
        np.testing.assert_array_equal(pred.values, labels)

    def test_svm_separable(self):
        rng = np.random.default_rng(3)
        num = np.vstack([
            rng.normal(-3.0, 0.5, size=(30, 2)),
            rng.normal(3.0, 0.5, size=(30, 2)),
        ])
        labels = np.array([0] * 30 + [1] * 30)
        dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS)
        method = fit_method(LinearSVMMethod, dataset, info)
        pred = method.predict(num, np.empty((60, 0), dtype=object))
        assert (pred.values == labels).all()
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-9)

    def test_multiclass_logreg(self):
        dataset, info = make_classification(n_classes=4, n_rows=200, seed=4)
        method = fit_method(LogisticRegressionMethod, dataset, info)
        pred = method.predict_part(dataset, "train")
        truth = dataset.part_labels("train")
        assert (pred.values == truth).mean() > 0.7
        assert pred.probabilities.shape[1] == 4

    def test_deterministic_across_fits(self):
        dataset, info = make_classification(seed=5)
        a = fit_method(LogisticRegressionMethod, dataset, info)
        b = fit_method(LogisticRegressionMethod, dataset, info)
        assert a.fitted_state() == b.fitted_state()

    def test_small_gradient_norm_ends_the_fit_early(self, monkeypatch):
        # the shared-paths multiclass table without its numerical columns,
        # ordinal-coded: a 36 x 2 training matrix on which the squared-hinge
        # gradient norm falls below _GD_GRAD_TOL well before _GD_MAX_ITER
        full, info = make_classification(n_rows=60, n_num=3, n_cat=2,
                                         n_classes=3, seed=1)
        dataset = Dataset(full.num[:, :0], full.cat, full.labels, full.task,
                          full.split)
        calls = []
        gradients = LinearSVMMethod._gradients
        monkeypatch.setattr(LinearSVMMethod, "_gradients",
                            lambda self, *args: calls.append(1) or gradients(self, *args))
        fit_method(LinearSVMMethod, dataset, replace(info, n_num_features=0),
                   pipeline=PipelineConfig(cat_policy="ordinal"))
        assert 0 < len(calls) < classical._GD_MAX_ITER

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", ["logreg", "svm"])
    def test_overflowing_curvature_fails_each_seed(self, name):
        # robust scaling leaves a 1e300 cell near 1e300, whose square makes
        # the curvature bound inf and the step 0; standard scaling divides
        # it down, and the same table trains
        dataset, info = make_classification(seed=3)
        dataset.num[dataset.split["train"][0], 0] = 1e300
        records = run_seeds(name, dataset, info, seed_num=2,
                            pipeline=PipelineConfig(normalization="robust"))
        assert [r.seed for r in records] == [0, 1]
        assert all(not r.ok and "curvature bound is inf" in r.error
                   for r in records)
        records = run_seeds(name, dataset, info, seed_num=2,
                            pipeline=PipelineConfig(normalization="standard"))
        assert all(r.ok and r.metrics["accuracy"] == 1.0 for r in records)


class TestSoftmax:
    def test_finite_rows_unchanged(self):
        logits = np.random.default_rng(0).normal(size=(50, 4)) * 30
        shifted = logits - logits.max(axis=1, keepdims=True)
        expected = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        assert np.array_equal(_softmax(logits), expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_max_rows(self):
        inf = np.inf
        logits = np.array([[-inf, -inf, -inf], [inf, 0.0, inf],
                           [-inf, 2.0, -inf], [1.0, 2.0, 3.0]])
        probs = _softmax(logits)
        np.testing.assert_array_equal(probs[:3], [[1 / 3] * 3, [0.5, 0.0, 0.5],
                                                  [0.0, 1.0, 0.0]])
        assert np.array_equal(probs[3], _softmax(logits[3:])[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cls", [NCMMethod, NaiveBayesMethod, KNNMethod])
    def test_extreme_test_cells_give_finite_probabilities(self, cls):
        num = np.random.default_rng(1).normal(size=(40, 3))
        labels = (num[:, 0] > 0).astype(np.int64)
        num[-4:] = [[1e308, 0.0, 0.0], [-1e308, 1e308, 0.0],
                    [0.0, 0.0, -1e308], [1e308, -1e308, 1e308]]
        dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS,
                                            n_test=4)
        probs = fit_method(cls, dataset, info).predict_part(
            dataset, "test").probabilities
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)


class TestMethodContract:
    def test_predict_bit_identical_across_calls(self):
        dataset, info = make_classification(seed=6)
        for cls in (DummyMethod, KNNMethod, NCMMethod, NaiveBayesMethod,
                    LogisticRegressionMethod, LinearSVMMethod):
            method = fit_method(cls, dataset, info)
            first = method.predict_part(dataset, "test")
            second = method.predict_part(dataset, "test")
            np.testing.assert_array_equal(first.probabilities, second.probabilities)
            np.testing.assert_array_equal(first.values, second.values)

    def test_labels_are_argmax_of_probabilities(self):
        dataset, info = make_classification(n_classes=3, seed=7)
        for cls in (DummyMethod, KNNMethod, NCMMethod, NaiveBayesMethod,
                    LogisticRegressionMethod, LinearSVMMethod):
            method = fit_method(cls, dataset, info)
            pred = method.predict_part(dataset, "test")
            np.testing.assert_array_equal(
                pred.values, np.argmax(pred.probabilities, axis=1)
            )

    def test_unfitted_predict_rejected(self):
        dataset, info = make_classification(seed=8)
        method = DummyMethod(MethodConfig(), info)
        with pytest.raises(FitError, match="not fitted"):
            method.predict_part(dataset, "test")

    def test_training_time_reported(self):
        dataset, info = make_classification(seed=9)
        method = DummyMethod(MethodConfig(), info)
        seconds = method.fit(dataset, info)
        assert seconds >= 0.0
