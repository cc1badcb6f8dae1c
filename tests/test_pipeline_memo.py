"""The one-entry pipeline memo: a warm fit is a cold fit, and nothing stale.

A pipeline fit whose key (config, task, class count, dataset content and,
under catboost, the seed) matches the memoized one takes its stages and its
read-only train and val matrices. These tests check that a hit gives the
same bytes as a fit with nothing memoized, that every input a fit reads
makes a miss, and that a hit is charged the seconds its first fit took.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tabkit.methods.base as method_base
import tabkit.pipeline as pipeline_module
from tabkit.data import Dataset, TaskType
from tabkit.encode_cat import CAT_POLICIES
from tabkit.encode_num import NUM_POLICIES
from tabkit.methods import MethodConfig, get_method, registered_methods
from tabkit.pipeline import FeaturePipeline, PipelineConfig
from tabkit.preprocess import CAT_NAN_POLICIES, NORMALIZATIONS, NUM_NAN_POLICIES

from conftest import make_classification, make_regression

SMALL = {
    "random_forest": {"model": {"n_trees": 5}},
    "gbdt": {"model": {"n_trees": 5}},
    "mlp": {"model": {"d_layers": [8], "dropout": 0.1},
            "training": {"max_epoch": 3}},
}

TABLES = {
    "clf": make_classification(n_rows=90, n_classes=3, seed=81,
                               missing_rate=0.1),
    "reg": make_regression(n_rows=90, n_cat=2, seed=82, missing_rate=0.1),
}

POLICY_CONFIGS = (
    [PipelineConfig(cat_policy=policy) for policy in CAT_POLICIES]
    + [PipelineConfig(num_policy=policy) for policy in NUM_POLICIES
       if policy != "none"]
)


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(pipeline_module, "_memo", None)


@pytest.fixture
def stage_fits(monkeypatch):
    """How many times the pipeline has fitted its stages (its imputer is
    the first stage every fit makes)."""
    calls = []
    original = pipeline_module.fit_imputer

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "fit_imputer", counting)
    return calls


def table_for(name):
    return TABLES["clf" if TaskType.MULTICLASS in get_method(name).task_types
                  else "reg"]


def fit_method(name, dataset, info, pipeline, seed=1):
    overrides = SMALL.get(name, {})
    config = MethodConfig(model=dict(overrides.get("model", {})),
                          training=dict(overrides.get("training", {})),
                          pipeline=pipeline, seed=seed)
    method = get_method(name)(config, info)
    method.fit(dataset, info)
    return method


def outcome(method, dataset):
    prediction = method.predict_part(dataset, "test")
    probabilities = prediction.probabilities
    return (method.fitted_state(), prediction.values.tobytes(),
            None if probabilities is None else probabilities.tobytes())


def fit_pipeline(dataset, info, config=PipelineConfig(), seed=0):
    pipeline = FeaturePipeline(config, seed=seed)
    train = pipeline.fit_transform_train(dataset, info)
    return pipeline, train


def exact(matrix: np.ndarray) -> tuple:
    return matrix.shape, matrix.dtype.str, matrix.tobytes()


@pytest.mark.parametrize("pipeline", POLICY_CONFIGS,
                         ids=lambda c: f"{c.cat_policy}-{c.num_policy}")
@pytest.mark.parametrize("name", registered_methods())
def test_warm_fit_equals_cold_fit(name, pipeline, stage_fits):
    dataset, info = table_for(name)
    cold = outcome(fit_method(name, dataset, info, pipeline), dataset)
    pipeline_module._memo = None
    # another method with another seed builds the entry; only catboost's
    # fit reads the seed, so there the seed must match to hit
    primer_seed = 1 if pipeline.cat_policy == "catboost" else 0
    fit_method("dummy", dataset, info, pipeline, seed=primer_seed)
    assert len(stage_fits) == 2
    warm = outcome(fit_method(name, dataset, info, pipeline), dataset)
    assert len(stage_fits) == 2, "the second fit missed the memo"
    assert warm == cold


# ---- every input a fit reads makes a miss --------------------------------

def test_other_test_rows_miss(stage_fits):
    dataset, info = TABLES["clf"]
    fit_pipeline(dataset, info)
    test = dataset.split["test"]
    num, cat = dataset.num.copy(), dataset.cat.copy()
    num[test] += 1.0
    cat[test] = "unseen"
    fit_pipeline(replace(dataset, num=num), info)
    fit_pipeline(replace(dataset, cat=cat), info)
    assert len(stage_fits) == 3


def test_reassigned_labels_miss(stage_fits):
    dataset, info = make_regression(n_rows=90, seed=83)
    config = PipelineConfig(cat_policy="target")
    _, before = fit_pipeline(dataset, info, config)
    before = before.copy()
    dataset.labels = dataset.labels + 100.0
    _, after = fit_pipeline(dataset, info, config)
    assert len(stage_fits) == 2
    assert not np.array_equal(before, after)


def test_other_split_misses(stage_fits):
    dataset, info = TABLES["reg"]
    _, before = fit_pipeline(dataset, info)
    split = dict(dataset.split)
    split["train"], split["val"] = split["val"], split["train"]
    _, after = fit_pipeline(replace(dataset, split=split), info)
    assert len(stage_fits) == 2
    assert before.shape != after.shape


def test_other_task_or_class_count_misses(stage_fits):
    dataset, info = make_classification(n_rows=90, n_classes=3, seed=84)
    config = PipelineConfig(cat_policy="target")
    widths = [fit_pipeline(dataset, info, config)[1].shape[1]]
    wider = replace(info, class_count=4)
    widths.append(fit_pipeline(dataset, wider, config)[1].shape[1])
    binary, binary_info = make_classification(n_rows=90, seed=85)
    widths.append(fit_pipeline(binary, binary_info, config)[1].shape[1])
    as_multiclass = replace(binary_info, task=TaskType.MULTICLASS)
    widths.append(fit_pipeline(binary, as_multiclass, config)[1].shape[1])
    assert len(stage_fits) == 4
    n_num, n_cat = info.n_num_features, info.n_cat_features
    assert widths == [n_num + 3 * n_cat, n_num + 4 * n_cat,
                      n_num + n_cat, n_num + 2 * n_cat]


def test_catboost_seed_misses_and_other_seeds_hit(stage_fits):
    dataset, info = TABLES["clf"]
    catboost = PipelineConfig(cat_policy="catboost")
    _, seed0 = fit_pipeline(dataset, info, catboost, seed=0)
    _, seed1 = fit_pipeline(dataset, info, catboost, seed=1)
    assert len(stage_fits) == 2
    assert not np.array_equal(seed0, seed1)
    for policy in ("onehot", "target", "loo"):
        config = PipelineConfig(cat_policy=policy)
        fit_pipeline(dataset, info, config, seed=0)
        fit_pipeline(dataset, info, config, seed=1)
    assert len(stage_fits) == 5


def test_one_entry_is_held(stage_fits):
    dataset, info = TABLES["clf"]
    first, other = PipelineConfig(), PipelineConfig(cat_policy="binary")
    for config in (first, other, first):
        fit_pipeline(dataset, info, config)
    assert len(stage_fits) == 3


# ---- what a hit hands out -------------------------------------------------

def test_memoized_matrices_are_read_only():
    dataset, info = TABLES["clf"]
    for _ in range(2):  # the miss, then the hit
        pipeline, train = fit_pipeline(dataset, info)
        val = pipeline.transform_part(dataset, "val")
        for matrix in (train, val):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
    test = pipeline.transform_part(dataset, "test")
    assert test.flags.writeable
    assert pipeline.transform_part(dataset, "test") is not test


def test_val_of_another_dataset_is_encoded_fresh():
    dataset, info = TABLES["clf"]
    pipeline, _ = fit_pipeline(dataset, info)
    memoized = pipeline.transform_part(dataset, "val")
    split = dict(dataset.split)
    split["val"] = split["test"]
    other = replace(dataset, split=split)
    val = pipeline.transform_part(other, "val")
    assert val is not memoized
    assert exact(val) == exact(pipeline.transform(
        other.part_num("val"), other.part_cat("val")))


def test_time_is_equal_on_hit_and_miss_under_pinned_clock(monkeypatch):
    # the miss spends 5 ticks encoding, the hit half a tick; both fit the
    # model in 1 tick, and both are charged the miss's 5
    ticks = iter([0.0, 5.0, 6.0, 10.0, 10.5, 11.5])
    monkeypatch.setattr(method_base, "_clock", lambda: next(ticks))
    dataset, info = TABLES["clf"]
    miss = get_method("ncm")(MethodConfig(), info).fit(dataset, info)
    hit = get_method("ncm")(MethodConfig(), info).fit(dataset, info)
    assert miss == hit == 6.0
    assert next(ticks, None) is None  # three clock reads per fit


# ---- property: whatever the memo holds, a fit equals a cold fit ----------

PIPELINE_CONFIGS = st.builds(
    PipelineConfig,
    normalization=st.sampled_from(NORMALIZATIONS),
    num_nan_policy=st.sampled_from(NUM_NAN_POLICIES),
    cat_nan_policy=st.sampled_from(CAT_NAN_POLICIES),
    num_policy=st.sampled_from(NUM_POLICIES),
    cat_policy=st.sampled_from(CAT_POLICIES),
)


def encoded(dataset: Dataset, info, config, seed) -> tuple:
    pipeline, train = fit_pipeline(dataset, info, config, seed)
    val = pipeline.transform_part(dataset, "val")
    fresh_val = pipeline.transform(dataset.part_num("val"),
                                   dataset.part_cat("val"))
    assert exact(val) == exact(fresh_val)
    return exact(train), exact(val), pickle.dumps(pipeline.state())


@given(table=st.sampled_from(sorted(TABLES)), config=PIPELINE_CONFIGS,
       seed=st.integers(0, 1), primer=PIPELINE_CONFIGS,
       primer_seed=st.integers(0, 1), same=st.booleans())
def test_fit_after_any_memo_equals_cold_fit(table, config, seed, primer,
                                            primer_seed, same):
    dataset, info = TABLES[table]
    if same:
        primer, primer_seed = config, seed
    pipeline_module._memo = None
    cold = encoded(dataset, info, config, seed)
    pipeline_module._memo = None
    encoded(dataset, info, primer, primer_seed)
    assert encoded(dataset, info, config, seed) == cold
