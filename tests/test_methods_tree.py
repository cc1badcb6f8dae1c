import pickle

import numpy as np
import pytest

from tabkit.data import DatasetInfo, TaskType
from tabkit.methods import MethodConfig
from tabkit.methods.tree import (
    CARTMethod,
    GBDTMethod,
    RandomForestMethod,
    _Grower,
    _ranks,
    _samples,
)

from conftest import dataset_from_arrays, make_classification, make_regression


def fit_method(cls, dataset, info, model=None, seed=0):
    method = cls(MethodConfig(model=model or {}, seed=seed), info)
    method.fit(dataset, info)
    return method


NO_CAT = np.empty((0, 0), dtype=object)


def empty_cat(n):
    return np.empty((n, 0), dtype=object)


def grow_tree(x, y, *, n_classes, max_depth, min_leaf):
    """One tree grown by the engine on every row of ``x``."""
    xt = np.ascontiguousarray(x.T)
    return _Grower(
        xt, _ranks(xt), y, _samples(len(y), 1), n_classes=n_classes,
        max_depth=max_depth, min_leaf=min_leaf,
    ).grow()[0]


class TestTreeBuilder:
    def test_two_block_data_single_split(self):
        x = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = grow_tree(
            x, y, n_classes=2, max_depth=2, min_leaf=1
        )
        assert tree.n_nodes == 3
        values = tree.predict_values(x)
        np.testing.assert_array_equal(np.argmax(values, axis=1), y)

    def test_tie_breaks_to_lowest_feature(self):
        # both features separate the classes perfectly; feature 0 must win
        x = np.array([[-1.0, -5.0], [-2.0, -6.0], [1.0, 5.0], [2.0, 6.0]])
        y = np.array([0, 0, 1, 1])
        tree = grow_tree(
            x, y, n_classes=2, max_depth=1, min_leaf=1
        )
        assert tree.feature[0] == 0

    def test_thresholds_are_midpoints(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 8.0, 8.0])
        tree = grow_tree(
            x, y, n_classes=0, max_depth=1, min_leaf=1
        )
        assert tree.threshold[0] == 5.5

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = grow_tree(
            x, y, n_classes=0, max_depth=8, min_leaf=5
        )
        leaf_ids = np.flatnonzero(tree.feature == -1)
        counts = {int(i): 0 for i in leaf_ids}
        # the j-th split node (from 0) has children 2j + 1 and 2j + 2
        splits = np.cumsum(tree.feature >= 0)
        node = np.zeros(40, dtype=np.int64)
        while (tree.feature[node] >= 0).any():
            active = tree.feature[node] >= 0
            at = node[active]
            j = splits[at] - 1
            goes_left = x[active, tree.feature[at]] < tree.threshold[j]
            node[active] = np.where(goes_left, 2 * j + 1, 2 * j + 2)
        for i in node:
            counts[int(i)] += 1
        assert min(counts.values()) >= 5

    def test_rejects_bad_depth(self):
        info = DatasetInfo(task=TaskType.REGRESSION, n_num_features=1,
                           n_cat_features=0, class_count=None, name="table")
        with pytest.raises(ValueError):
            CARTMethod(MethodConfig(model={"max_depth": 0}), info)


class TestCART:
    def test_axis_aligned_blocks(self):
        rng = np.random.default_rng(1)
        num = np.vstack([
            rng.uniform(-5.0, -1.0, size=(40, 2)),
            rng.uniform(1.0, 5.0, size=(40, 2)),
        ])
        labels = np.array([0] * 40 + [1] * 40)
        dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS)
        method = fit_method(CARTMethod, dataset, info, model={"max_depth": 2})
        pred = method.predict(num, empty_cat(80))
        assert (pred.values == labels).all()

    def test_regression_fit(self):
        dataset, info = make_regression(seed=2)
        method = fit_method(CARTMethod, dataset, info)
        pred = method.predict_part(dataset, "train")
        truth = dataset.part_labels("train")
        rmse = np.sqrt(np.mean((pred.values - truth) ** 2))
        assert rmse < 1.0

    def test_depth_validation(self):
        dataset, info = make_classification(seed=3)
        with pytest.raises(ValueError):
            fit_method(CARTMethod, dataset, info, model={"max_depth": 0})

    def test_model_size_is_node_count(self):
        dataset, info = make_classification(seed=4)
        method = fit_method(CARTMethod, dataset, info, model={"max_depth": 3})
        assert method.model_size() == method._tree.n_nodes
        assert method.model_size() <= 2 ** 4 - 1


class TestRandomForest:
    def test_degenerate_forest_equals_cart(self):
        # one tree on every row, drawing all the encoded features: CART's tree
        dataset, info = make_classification(seed=5)
        cart = fit_method(CARTMethod, dataset, info, model={"max_depth": 6})
        width = cart.pipeline.transform_part(dataset, "train").shape[1]
        forest = fit_method(
            RandomForestMethod, dataset, info,
            model={"n_trees": 1, "bootstrap": False, "max_features": width,
                   "max_depth": 6},
        )
        expected = pickle.dumps((cart.pipeline.state(), (cart._state(),)))
        assert forest.fitted_state() == expected

    def test_probabilities_are_vote_fractions(self):
        dataset, info = make_classification(seed=6)
        method = fit_method(RandomForestMethod, dataset, info, model={"n_trees": 10})
        pred = method.predict_part(dataset, "test")
        votes = pred.probabilities * 10
        np.testing.assert_allclose(votes, np.round(votes), atol=1e-9)
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0)

    def test_same_seed_bit_identical(self):
        dataset, info = make_classification(seed=7)
        a = fit_method(RandomForestMethod, dataset, info, model={"n_trees": 5}, seed=3)
        b = fit_method(RandomForestMethod, dataset, info, model={"n_trees": 5}, seed=3)
        assert a.fitted_state() == b.fitted_state()

    def test_different_seed_changes_model(self):
        dataset, info = make_classification(seed=8)
        a = fit_method(RandomForestMethod, dataset, info, model={"n_trees": 5}, seed=0)
        b = fit_method(RandomForestMethod, dataset, info, model={"n_trees": 5}, seed=1)
        assert a.fitted_state() != b.fitted_state()

    def test_regression_averages_trees(self):
        dataset, info = make_regression(seed=9)
        method = fit_method(RandomForestMethod, dataset, info, model={"n_trees": 20})
        pred = method.predict_part(dataset, "train")
        truth = dataset.part_labels("train")
        rmse = np.sqrt(np.mean((pred.values - truth) ** 2))
        assert rmse < 2.0


class TestGBDT:
    def test_sine_fit(self):
        rng = np.random.default_rng(10)
        x = np.sort(rng.uniform(-3.0, 3.0, size=200))
        y = np.sin(x)
        dataset, info = dataset_from_arrays(x, y, TaskType.REGRESSION)
        method = fit_method(
            GBDTMethod, dataset, info,
            model={"n_trees": 100, "learning_rate": 0.1, "max_depth": 3},
        )
        pred = method.predict(x.reshape(-1, 1), empty_cat(200))
        rmse = np.sqrt(np.mean((pred.values - y) ** 2))
        assert rmse < 0.1

    def test_zero_learning_rate_is_constant(self):
        dataset, info = make_classification(seed=11)
        method = fit_method(GBDTMethod, dataset, info, model={"learning_rate": 0.0,
                                                              "n_trees": 5})
        pred = method.predict_part(dataset, "test")
        counts = np.bincount(dataset.part_labels("train"), minlength=2)
        priors = counts / counts.sum()
        expected = np.tile(priors, (len(pred.values), 1))
        np.testing.assert_allclose(pred.probabilities, expected, atol=1e-12)

        dataset, info = make_regression(seed=12)
        method = fit_method(GBDTMethod, dataset, info, model={"learning_rate": 0.0,
                                                              "n_trees": 5})
        pred = method.predict_part(dataset, "test")
        np.testing.assert_allclose(
            pred.values, dataset.part_labels("train").mean(), atol=1e-12
        )

    def test_multiclass_boosting(self):
        dataset, info = make_classification(n_classes=3, n_rows=150, seed=13)
        method = fit_method(GBDTMethod, dataset, info, model={"n_trees": 30})
        pred = method.predict_part(dataset, "train")
        truth = dataset.part_labels("train")
        assert (pred.values == truth).mean() > 0.9
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self):
        dataset, info = make_regression(seed=14)
        a = fit_method(GBDTMethod, dataset, info, model={"n_trees": 10})
        b = fit_method(GBDTMethod, dataset, info, model={"n_trees": 10})
        assert a.fitted_state() == b.fitted_state()

    def test_model_size_counts_all_stage_trees(self):
        dataset, info = make_classification(n_classes=3, n_rows=90, seed=15)
        method = fit_method(GBDTMethod, dataset, info, model={"n_trees": 4})
        total = sum(t.n_nodes for stage in method._trees for t in stage)
        assert method.model_size() == total
        assert len(method._trees) == 4
        assert all(len(stage) == 3 for stage in method._trees)
