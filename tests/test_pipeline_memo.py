"""The one-entry pipeline memo: a warm fit is a cold fit, and nothing stale.

A pipeline fit whose key (config, task, class count, dataset content and,
under catboost, the seed) matches the memoized one takes its stages and its
read-only train matrix; val and test rows are encoded afresh. These tests
check that a hit gives the same bytes as a fit with nothing memoized, that
every input a fit reads makes a miss, that val is encoded only for a method
that reads it, and that a hit is charged the seconds its first fit took: the
pipeline times its own stage fits, and a method its own fit, val encoding
included.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabkit.methods as methods_module
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
    monkeypatch.setattr(pipeline_module, "_memo", pipeline_module._Memo())


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
    pipeline_module._memo = pipeline_module._Memo()
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
        assert not train.flags.writeable
        with pytest.raises(ValueError):
            train[0, 0] = 1.0
    # val and test are encoded afresh on each call
    for part in ("val", "test"):
        matrix = pipeline.transform_part(dataset, part)
        assert matrix.flags.writeable
        assert pipeline.transform_part(dataset, part) is not matrix


def test_val_of_another_dataset_is_encoded_fresh():
    dataset, info = TABLES["clf"]
    pipeline, _ = fit_pipeline(dataset, info)
    split = dict(dataset.split)
    split["val"] = split["test"]
    other = replace(dataset, split=split)
    val = pipeline.transform_part(other, "val")
    assert exact(val) == exact(pipeline.transform(
        other.part_num("val"), other.part_cat("val")))


def test_time_is_equal_on_hit_and_miss_under_pinned_clock(monkeypatch):
    # the miss spends 5 ticks fitting the pipeline, which the hit does not
    # fit; both fit the model in 1 tick, and both are charged the miss's 5
    ticks = iter([0.0, 5.0, 6.0, 7.0, 10.0, 11.0])
    monkeypatch.setattr(pipeline_module, "_clock", lambda: next(ticks))
    dataset, info = TABLES["clf"]
    miss = get_method("ncm")(MethodConfig(), info).fit(dataset, info)
    hit = get_method("ncm")(MethodConfig(), info).fit(dataset, info)
    assert miss == hit == 6.0
    assert next(ticks, None) is None  # four clock reads on a miss, two on a hit


def val_reader(name):
    """The method class of ``name`` with ``reads_val`` set: its fit is handed
    the encoded val part, which it does not read."""
    cls = get_method(name)
    return type(f"ValReading{cls.__name__}", (cls,), {"reads_val": True})


def test_reader_is_charged_alike_whoever_built_the_entry(monkeypatch):
    # a miss fits the pipeline in 5 ticks; a non-reader's fit takes 1 tick
    # and a reader's 3, its val encoding included, on a hit as on a miss
    ticks = iter([0.0, 5.0, 6.0, 7.0,           # ncm, miss
                  10.0, 13.0,                   # reader, hit
                  20.0, 23.0])                  # reader, hit
    monkeypatch.setattr(pipeline_module, "_clock", lambda: next(ticks))
    dataset, info = TABLES["clf"]
    reader = val_reader("ncm")
    charged = [cls(MethodConfig(), info).fit(dataset, info)
               for cls in (get_method("ncm"), reader, reader)]
    assert next(ticks, None) is None
    pipeline_module._memo = pipeline_module._Memo()
    ticks = iter([30.0, 35.0, 36.0, 39.0,       # reader, miss
                  41.0, 42.0])                  # ncm, hit
    charged += [cls(MethodConfig(), info).fit(dataset, info)
                for cls in (reader, get_method("ncm"))]
    assert charged == [6.0, 8.0, 8.0, 8.0, 6.0]
    assert next(ticks, None) is None


def test_reader_is_charged_for_a_val_encoded_by_a_direct_call(monkeypatch):
    # a val encoded by a direct call reads no clock and is charged to no one;
    # a reader's fit still encodes and pays for its own
    ticks = iter([0.0, 5.0, 6.0, 7.0,           # ncm, miss
                  20.0, 23.0])                  # reader, hit
    monkeypatch.setattr(pipeline_module, "_clock", lambda: next(ticks))
    dataset, info = TABLES["clf"]
    reader = val_reader("ncm")
    ncm = get_method("ncm")(MethodConfig(), info)
    ncm.fit(dataset, info)
    ncm.pipeline.transform_part(dataset, "val")
    hit = reader(MethodConfig(), info).fit(dataset, info)
    assert next(ticks, None) is None
    pipeline_module._memo = pipeline_module._Memo()
    ticks = iter([30.0, 35.0, 36.0, 39.0])      # reader, miss
    miss = reader(MethodConfig(), info).fit(dataset, info)
    assert hit == miss == 8.0
    assert next(ticks, None) is None


class WorkClock:
    """A pinned clock that moves one tick on each read, so no two reads are
    equal, and further by the work it is told of."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now

    def costing(self, fn, ticks: float):
        """``fn``, moving the clock ``ticks`` on each call."""
        def costly(*args, **kwargs):
            self.now += ticks
            return fn(*args, **kwargs)
        return costly


# fitting the stages costs 100 ticks and a val encoding 10; the stage fit is
# timed by two reads, and a method's own fit, a reader's val encoding
# included, by two more
STAGE_TICKS, VAL_TICKS = 100.0, 10.0
NON_READER_CHARGE = (STAGE_TICKS + 1) + 1
READER_CHARGE = (STAGE_TICKS + 1) + (VAL_TICKS + 1)

OPERATIONS = ("fit", "reader fit", "val transform", "val predict")


@given(operations=st.lists(st.sampled_from(OPERATIONS), max_size=8))
def test_charges_do_not_depend_on_the_order_of_operations(operations):
    dataset, info = TABLES["clf"]
    reader = val_reader("ncm")
    charged = {get_method("ncm"): [], reader: []}
    with pytest.MonkeyPatch.context() as patch:
        clock = WorkClock()
        patch.setattr(pipeline_module, "_clock", clock)
        patch.setattr(pipeline_module, "_memo", pipeline_module._Memo())
        patch.setattr(pipeline_module, "fit_imputer", clock.costing(
            pipeline_module.fit_imputer, STAGE_TICKS))
        patch.setattr(FeaturePipeline, "transform", clock.costing(
            FeaturePipeline.transform, VAL_TICKS))
        fitted = None
        for operation in operations:
            if operation.endswith("fit"):
                cls = reader if operation == "reader fit" else get_method("ncm")
                fitted = cls(MethodConfig(), info)
                charged[cls].append(fitted.fit(dataset, info))
            elif fitted is None:
                continue
            elif operation == "val transform":
                fitted.pipeline.transform_part(dataset, "val")
            else:
                fitted.predict_part(dataset, "val")
    assert set(charged[get_method("ncm")]) <= {NON_READER_CHARGE}
    assert set(charged[reader]) <= {READER_CHARGE}


class EvictingNCM(get_method("ncm")):
    """NCM whose fit also fits a pipeline of another config, which drops the
    memo entry its own fit came from."""

    def _fit(self, x_train, y_train, x_val, y_val):
        FeaturePipeline(PipelineConfig(cat_policy="binary")).fit_transform_train(
            *TABLES["clf"])
        super()._fit(x_train, y_train, x_val, y_val)


def test_fit_that_drops_the_entry_is_charged_its_pipeline(monkeypatch):
    # the pipeline fits in 5 ticks; the fit, which fits the other pipeline
    # in 2 ticks, takes 4
    ticks = iter([0.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    monkeypatch.setattr(pipeline_module, "_clock", lambda: next(ticks))
    monkeypatch.setitem(methods_module._REGISTRY, "evicting_ncm", EvictingNCM)
    dataset, info = TABLES["clf"]
    method = get_method("evicting_ncm")(MethodConfig(), info)
    assert method.fit(dataset, info) == 9.0
    assert next(ticks, None) is None
    assert pipeline_module._memo.value.stages is not method.pipeline.state()


@pytest.fixture
def val_encodings(monkeypatch):
    """Each val part a pipeline encodes."""
    encoded = []
    original = FeaturePipeline.transform_part

    def counting(self, dataset, part):
        matrix = original(self, dataset, part)
        if part == "val":
            encoded.append(matrix)
        return matrix

    monkeypatch.setattr(FeaturePipeline, "transform_part", counting)
    return encoded


def test_non_readers_leave_val_unencoded(val_encodings):
    for table in TABLES:
        dataset, info = TABLES[table]
        for name in registered_methods():
            cls = get_method(name)
            if cls.reads_val or info.task not in cls.task_types:
                continue
            fit_method(name, dataset, info, PipelineConfig())
    assert val_encodings == []
    fit_method("mlp", *TABLES["clf"], PipelineConfig())
    assert len(val_encodings) == 1


def test_val_of_a_reassigned_array_is_encoded_fresh():
    dataset, info = make_classification(n_rows=90, n_classes=3, seed=86)
    ncm = fit_method("ncm", dataset, info, PipelineConfig())
    num = dataset.num.copy()
    num[dataset.split["val"]] += 1.0
    dataset.num = num
    val = ncm.pipeline.transform_part(dataset, "val")
    assert exact(val) == exact(ncm.pipeline.transform(
        dataset.part_num("val"), dataset.part_cat("val")))


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
    pipeline_module._memo = pipeline_module._Memo()
    cold = encoded(dataset, info, config, seed)
    pipeline_module._memo = pipeline_module._Memo()
    encoded(dataset, info, primer, primer_seed)
    assert encoded(dataset, info, config, seed) == cold


# ---- property: a method that reads no val fits as if it had been handed it

VAL_FREE = [name for name in registered_methods()
            if not get_method(name).reads_val]


@settings(max_examples=60)
@given(name=st.sampled_from(VAL_FREE), config=PIPELINE_CONFIGS,
       seed=st.integers(0, 1))
def test_non_reader_fits_as_a_val_reader_does(name, config, seed):
    dataset, info = table_for(name)
    outcomes = []
    for cls in (get_method(name), val_reader(name)):
        pipeline_module._memo = pipeline_module._Memo()
        overrides = SMALL.get(name, {})
        method = cls(MethodConfig(model=dict(overrides.get("model", {})),
                                  pipeline=config, seed=seed), info)
        method.fit(dataset, info)
        outcomes.append(outcome(method, dataset))
    assert outcomes[0] == outcomes[1]
