"""Finite in, finite out for the classical and tree methods.

A fit on ordinary rows, then query rows holding ±1e308 and NaN numeric cells
and unseen tokens: every prediction is finite and every probability row sums
to 1. Under ``standard`` normalization a ±1e308 cell stays near ±1e308, so a
squared distance to it overflows; naive Bayes and NCM take that as an
infinite distance instead of warning. A linear score can overflow too, or sum
+inf and -inf into nan; the linear methods score such a row again, scaled.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tabkit.data import DatasetInfo, TaskType
from tabkit.encode_cat import CAT_POLICIES
from tabkit.errors import FitError
from tabkit.methods import MethodConfig, get_method
from tabkit.methods.classical import _softmax
from tabkit.pipeline import PipelineConfig
from tabkit.preprocess import NORMALIZATIONS

from conftest import dataset_from_arrays

CLASSIFIERS = ("naive_bayes", "ncm")
# methods that take classification tasks only, regression only, or either
CLASSIFICATION_ONLY = (*CLASSIFIERS, "logreg", "svm")
ANY_TASK = ("dummy", "knn", "cart", "random_forest", "gbdt")


@st.composite
def hostile_queries(draw):
    """(method, dataset, info, config, num, cat): a fit on ordinary rows, and
    query rows holding ±1e308 and NaN numeric cells and unseen tokens."""
    name = draw(st.sampled_from(
        [*CLASSIFICATION_ONLY, "linear_regression", *ANY_TASK]))
    if name == "linear_regression":
        task = TaskType.REGRESSION
    elif name in CLASSIFICATION_ONLY:
        task = draw(st.sampled_from([TaskType.BINCLASS, TaskType.MULTICLASS]))
    else:
        task = draw(st.sampled_from(list(TaskType)))
    n_train, d = draw(st.integers(4, 30)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = n_train + 3
    num = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    cat = rng.choice(["a", "b", "c"], size=(n, 1)).astype(object)
    if task is TaskType.REGRESSION:
        labels = num @ rng.normal(size=d) + rng.normal(size=n)
    else:
        n_classes = 2 if task is TaskType.BINCLASS else 3
        labels = rng.integers(0, n_classes, size=n)
        labels[0] = n_classes - 1  # the class count is the largest label + 1
    dataset, info = dataset_from_arrays(num, labels, task, cat=cat, n_val=3)
    # knn's default five neighbors can outnumber the training rows
    model = {"n_neighbors": draw(st.integers(1, 4))} if name == "knn" else {}
    config = MethodConfig(model=model, pipeline=PipelineConfig(
        normalization=draw(st.sampled_from(NORMALIZATIONS)),
        cat_policy=draw(st.sampled_from(CAT_POLICIES))))
    n_query = draw(st.integers(1, 6))
    # listed twice: rows with several huge cells are the ones that overflow
    cells = st.sampled_from([1e308, -1e308, 1e308, -1e308, np.nan, 0.5])
    query_num = np.array(draw(st.lists(cells, min_size=n_query * d,
                                       max_size=n_query * d))).reshape(n_query, d)
    query_cat = np.array(draw(st.lists(st.sampled_from(["a", "unseen"]),
                                       min_size=n_query, max_size=n_query)),
                         dtype=object).reshape(n_query, 1)
    return name, dataset, info, config, query_num, query_cat


@given(hostile_queries())
def test_hostile_rows_predict_finite(query):
    name, dataset, info, config, num, cat = query
    method = get_method(name)(config, info)
    try:
        method.fit(dataset, info)
    except FitError:  # recorded by run_seeds
        return
    pred = method.predict(num, cat)
    assert np.isfinite(pred.values).all()
    if pred.probabilities is not None:
        assert np.isfinite(pred.probabilities).all()
        assert np.abs(pred.probabilities.sum(axis=1) - 1.0).max() <= 1e-9


@given(st.sampled_from([1e150, -1e150, 1e200, -1e200, 1e308, -1e308]),
       st.sampled_from(NORMALIZATIONS), st.integers(0, 2 ** 32 - 1))
def test_an_extreme_training_cell_fails_or_predicts_finite(value, kind, seed):
    # squares of such cells overflow in the normalizer's statistics and in
    # the ridge system; neither may warn, and a fit on a system that is not
    # finite raises instead of predicting nan
    rng = np.random.default_rng(seed)
    n_train, d = 20, 3
    num = rng.normal(size=(n_train + 7, d))
    labels = num @ rng.normal(size=d) + rng.normal(size=n_train + 7)
    num[rng.integers(n_train), rng.integers(d)] = value
    cat = rng.choice(["a", "b", "c"], size=(n_train + 7, 1)).astype(object)
    dataset, info = dataset_from_arrays(num[:-4], labels[:-4],
                                        TaskType.REGRESSION, cat=cat[:-4],
                                        n_val=3)
    method = get_method("linear_regression")(
        MethodConfig(pipeline=PipelineConfig(normalization=kind)), info)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            method.fit(dataset, info)
        except FitError:
            return
        pred = method.predict(num[-4:], cat[-4:])  # ordinary rows
    assert np.isfinite(pred.values).all()


@given(st.sampled_from(["cart", "random_forest", "gbdt"]),
       st.sampled_from([1e150, -1e150, 1e200, -1e200, 1e300, -1e300]),
       st.sampled_from(["none", "T_bins"]), st.integers(0, 2 ** 32 - 1))
def test_extreme_regression_targets_fit_or_fail(name, scale, num_policy, seed):
    # squared sums of such targets overflow; the trees and target-aware
    # binning scale them by a power of two for their split gains, so a fit
    # neither warns nor raises anything but FitError
    rng = np.random.default_rng(seed)
    n_train, d = 20, 3
    num = rng.normal(size=(n_train + 7, d))
    labels = num @ rng.normal(size=d) + rng.normal(size=n_train + 7)
    labels[rng.random(n_train + 7) < 0.7] *= scale  # some stay ordinary
    cat = rng.choice(["a", "b", "c"], size=(n_train + 7, 1)).astype(object)
    dataset, info = dataset_from_arrays(num[:-4], labels[:-4],
                                        TaskType.REGRESSION, cat=cat[:-4],
                                        n_val=3)
    method = get_method(name)(
        MethodConfig(model={"n_trees": 10}, pipeline=PipelineConfig(
            num_policy=num_policy)), info)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            method.fit(dataset, info)
        except FitError:
            return
        pred = method.predict(num[-4:], cat[-4:])  # ordinary rows
    assert np.isfinite(pred.values).all()


def test_a_standard_scaled_extreme_cell_is_an_infinite_distance():
    rng = np.random.default_rng(0)
    num = rng.normal(size=(20, 2))
    labels = np.arange(20) % 2
    dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS, n_val=2)
    query = np.array([[1e308, 0.0], [-1e308, 1e308]])
    cat = np.empty((2, 0), dtype=object)
    for name in CLASSIFIERS:
        method = get_method(name)(MethodConfig(), info)
        method.fit(dataset, info)
        pred = method.predict(query, cat)
        assert np.isfinite(pred.probabilities).all(), name
        assert np.allclose(pred.probabilities.sum(axis=1), 1.0), name


def test_cancelling_infinite_terms_are_scored_again_scaled():
    # the first logit sums 2e308 and -2e308, inf and -inf in float64, into
    # nan; exactly it is 0, below the second logit, 1e308
    info = DatasetInfo(task=TaskType.BINCLASS, n_num_features=2,
                       n_cat_features=0, class_count=2, name="table")
    for name in ("logreg", "svm"):
        method = get_method(name)(MethodConfig(), info)
        method._weights = np.array([[2.0, 1.0], [-2.0, 0.0]])
        method._bias = np.zeros(2)
        pred = method._predict(np.array([[1e308, 1e308], [1.0, 2.0]]))
        np.testing.assert_array_equal(pred.probabilities[0], [0.0, 1.0])
        expected = _softmax(np.array([[-2.0, 1.0]]))[0]
        np.testing.assert_array_equal(pred.probabilities[1], expected)
