"""Fits do not depend on the units a table is recorded in.

Regression targets: ``Method.fit`` maps them by the power of two that brings
the largest into [1/2, 1), and so do the target statistics of the ``target``,
``loo`` and ``catboost`` categorical encodings, so every regressor's
predictions on targets times 2^k are its predictions times 2^k, byte for
byte, short of subnormals.

Numeric features: every normalization but ``power`` maps a column times 2^k
to the same values, so no method's predictions move. ``power`` is left out:
the Yeo-Johnson lambda it fits depends on the column's unit.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tabkit.data import TaskType
from tabkit.methods import MethodConfig, get_method, registered_methods
from tabkit.metrics import compute_metrics
from tabkit.pipeline import PipelineConfig
from tabkit.preprocess import NORMALIZATIONS

from conftest import make_classification, make_regression

REGRESSORS = [name for name in registered_methods()
              if TaskType.REGRESSION in get_method(name).task_types]
SMALL = {"random_forest": {"model": {"n_trees": 5}},
         "gbdt": {"model": {"n_trees": 10}},
         "mlp": {"model": {"d_layers": [16]}, "training": {"max_epoch": 20}}}
UNIT_FREE_NORMALIZATIONS = [kind for kind in NORMALIZATIONS if kind != "power"]
# the default encoding, and the ones that encode categories by the labels
CAT_POLICIES = ["onehot", "target", "loo", "catboost"]


def fit_predict(name, dataset, info, normalization="standard",
                cat_policy="onehot"):
    small = SMALL.get(name, {})
    method = get_method(name)(MethodConfig(
        model=small.get("model", {}), training=small.get("training", {}),
        pipeline=PipelineConfig(normalization=normalization,
                                cat_policy=cat_policy)), info)
    method.fit(dataset, info)
    return method.predict_part(dataset, "test")


@functools.lru_cache(maxsize=None)
def regression_table():
    return make_regression(n_rows=200, seed=0)


@functools.lru_cache(maxsize=None)
def unit_predictions(name, cat_policy):
    return fit_predict(name, *regression_table(), cat_policy=cat_policy).values


@given(st.sampled_from(REGRESSORS), st.sampled_from(CAT_POLICIES),
       st.integers(-1000, 1000))
# where the split gains' absolute floor, or the MLP's, once bit
@example("cart", "onehot", -20)
@example("random_forest", "onehot", -20)
@example("gbdt", "onehot", -25)
@example("mlp", "onehot", -45)
@example("dummy", "onehot", -1000)
@example("linear_regression", "onehot", 1000)
# where the categories were encoded by target statistics in the labels' unit
@example("knn", "target", -30)
@example("knn", "loo", 40)
@example("linear_regression", "catboost", -30)
@example("linear_regression", "target", 40)
@example("mlp", "loo", -30)
@example("mlp", "catboost", 40)
def test_predictions_follow_the_target_unit(name, cat_policy, k):
    dataset, info = regression_table()
    scaled = replace(dataset, labels=np.ldexp(dataset.labels, k))
    got = fit_predict(name, scaled, info, cat_policy=cat_policy).values
    assert got.tobytes() == \
        np.ldexp(unit_predictions(name, cat_policy), k).tobytes()


@pytest.mark.parametrize("name", REGRESSORS)
def test_subnormal_targets_fit_finite(name):
    # the largest target is 6.65e-310, below the smallest normal float: a
    # factor 2^-e to map it would be 2^1027, past the float range
    dataset, info = regression_table()
    dataset = replace(dataset, labels=dataset.labels * 1e-310)
    pred = fit_predict(name, dataset, info)
    assert np.isfinite(pred.values).all()
    metrics = compute_metrics(pred, dataset.part_labels("test"), info.task)
    assert np.isfinite(list(metrics.values.values())).all()


@functools.lru_cache(maxsize=None)
def feature_tables(name):
    """The tables a method takes: classification, regression, or both."""
    tasks = get_method(name).task_types
    tables = []
    if TaskType.BINCLASS in tasks:
        tables.append(make_classification(n_rows=120, n_classes=3, seed=1))
    if TaskType.REGRESSION in tasks:
        tables.append(make_regression(n_rows=120, seed=1))
    return tables


def prediction_bytes(pred):
    probs = b"" if pred.probabilities is None else pred.probabilities.tobytes()
    return pred.values.tobytes() + probs


@functools.lru_cache(maxsize=None)
def feature_unit_predictions(name, normalization):
    return [prediction_bytes(fit_predict(name, dataset, info, normalization))
            for dataset, info in feature_tables(name)]


@given(st.sampled_from(registered_methods()),
       st.sampled_from(UNIT_FREE_NORMALIZATIONS), st.integers(-60, 500))
# a column whose std falls below an absolute floor went unscaled
@example("knn", "standard", -60)
@example("logreg", "standard", -45)
@example("ncm", "standard", -45)
@example("naive_bayes", "standard", -60)
def test_predictions_do_not_depend_on_feature_units(name, normalization, k):
    got = [prediction_bytes(fit_predict(
               name, replace(dataset, num=np.ldexp(dataset.num, k)), info,
               normalization))
           for dataset, info in feature_tables(name)]
    assert got == feature_unit_predictions(name, normalization)
