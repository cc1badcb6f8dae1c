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
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabkit.data import DatasetInfo, TaskType
from tabkit.encode_cat import CAT_POLICIES
from tabkit.encode_num import NUM_POLICIES
from tabkit.errors import FitError
from tabkit.methods import MethodConfig, get_method, registered_methods
from tabkit.methods.classical import _softmax
from tabkit.metrics import compute_metrics
from tabkit.pipeline import FeaturePipeline, PipelineConfig
from tabkit.preprocess import NORMALIZATIONS

from conftest import dataset_from_arrays, make_classification, make_regression

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
        cat_policy=draw(st.sampled_from(CAT_POLICIES)),
        num_policy=draw(st.sampled_from(NUM_POLICIES))))
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
    # squared sums of such targets overflow; the trees fit, and target-aware
    # binning splits, in targets mapped by a power of two, so a fit neither
    # warns nor raises anything but FitError
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


REGRESSORS = [name for name in registered_methods()
              if TaskType.REGRESSION in get_method(name).task_types]
SMALL = {"random_forest": {"model": {"n_trees": 5}},
         "gbdt": {"model": {"n_trees": 5}},
         "mlp": {"model": {"d_layers": [16]}, "training": {"max_epoch": 20}}}


@pytest.mark.parametrize("name", REGRESSORS)
def test_scores_of_huge_regression_targets_are_finite(name):
    # squared residuals and target deviations near 1e200 overflow; the
    # methods fit in mapped units, and the metrics and the validation score
    # map by a power of two first (pytest turns a RuntimeWarning into an error)
    dataset, info = make_regression(n_rows=60, seed=0)
    dataset = replace(dataset, labels=dataset.labels * 1e200)
    small = SMALL.get(name, {})
    method = get_method(name)(MethodConfig(
        model=small.get("model", {}), training=small.get("training", {})), info)
    method.fit(dataset, info)
    metrics = compute_metrics(method.predict_part(dataset, "test"),
                              dataset.part_labels("test"), info.task)
    assert np.isfinite(list(metrics.values.values())).all()
    if name == "mlp":  # early stopping kept a best epoch
        assert np.isfinite(method.validation_score)


@pytest.mark.parametrize("name", REGRESSORS)
def test_means_of_targets_near_the_float_maximum_are_finite(name):
    # the largest target is 1.05e308: a sum of 60 such targets, and the
    # ridge system's right-hand side, overflow; every regressor fits in the
    # unit Method.fit maps targets to, where neither can (pytest turns a
    # RuntimeWarning into an error)
    dataset, info = make_regression(n_rows=60, seed=0)
    dataset = replace(dataset, labels=dataset.labels * 1e307)
    assert np.isfinite(dataset.labels).all()
    method = get_method(name)(MethodConfig(
        model=SMALL.get(name, {}).get("model", {})), info)
    method.fit(dataset, info)
    metrics = compute_metrics(method.predict_part(dataset, "test"),
                              dataset.part_labels("test"), info.task)
    assert set(metrics.values) == {"mae", "rmse", "r2"}
    assert np.isfinite(list(metrics.values.values())).all()


@pytest.mark.parametrize("num_policy", ["Q_PLE", "T_PLE"])
@pytest.mark.parametrize("normalization", NORMALIZATIONS)
def test_ple_of_an_extreme_row_saturates(normalization, num_policy):
    # the first and last PLE components extrapolate past the edges; at these
    # cells they would pass the float range, and saturate instead (pytest
    # turns an overflow RuntimeWarning into an error)
    dataset, info = make_classification(n_rows=300, n_num=3, n_cat=3,
                                        n_classes=3, seed=0)
    pipeline = FeaturePipeline(PipelineConfig(
        normalization=normalization, num_policy=num_policy))
    pipeline.fit_transform_train(dataset, info)
    out = pipeline.transform(np.array([[1e300, -1e300, 1e308]]),
                             dataset.cat[:1])
    assert np.isfinite(out).all()


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
