"""Tables that lack a part or a column kind take the path every table takes.

A table with no val rows sends an empty val part through the pipeline, and
one with no numerical or no categorical column runs every stage on a
zero-width block. So a method fits and predicts them with no special case,
and a zero-width block leaves the other block exactly as the full table
encodes it. A malformed or out-of-range hyperparameter fails when its method
is built.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from tabkit.data import Dataset, DatasetInfo, TaskType
from tabkit.encode_cat import CAT_POLICIES
from tabkit.errors import ConfigError
from tabkit.methods import MethodConfig, get_method, registered_methods
from tabkit.methods.base import bounded_float, positive_int
from tabkit.pipeline import FeaturePipeline, PipelineConfig
from tabkit.preprocess import NORMALIZATIONS

from conftest import make_classification, make_regression

NUM_POLICIES = ("none", "T_PLE", "Q_Unary")
CONFIGS = [
    PipelineConfig(normalization=norm, num_policy=num, cat_policy=cat)
    for cat, norm, num in itertools.product(CAT_POLICIES, NORMALIZATIONS, NUM_POLICIES)
]
KINDS = ("no_val", "no_cat", "no_num")
# small models, so that a few hundred fits stay quick
MODEL = {"cart": {"max_depth": 4}, "random_forest": {"n_trees": 3},
         "gbdt": {"n_trees": 3}, "mlp": {"d_layers": [8]}}
TRAINING = {"mlp": {"max_epoch": 2, "batch_size": 16}}


def table(task: TaskType) -> tuple[Dataset, DatasetInfo]:
    if task is TaskType.REGRESSION:
        return make_regression(n_rows=60, n_num=3, n_cat=2, seed=1)
    return make_classification(n_rows=60, n_num=3, n_cat=2, n_classes=3, seed=1)


def lacking(dataset: Dataset, info: DatasetInfo, kind: str):
    """The table with its val rows moved to train, or with no categorical or
    no numerical column."""
    num, cat, split = dataset.num, dataset.cat, dict(dataset.split)
    if kind == "no_val":
        split["train"] = np.sort(np.r_[split["train"], split["val"]])
        split["val"] = split["val"][:0]
    elif kind == "no_cat":
        cat = cat[:, :0]
    else:
        num = num[:, :0]
    return (Dataset(num, cat, dataset.labels, dataset.task, split),
            replace(info, n_num_features=num.shape[1], n_cat_features=cat.shape[1]))


def encoded(config: PipelineConfig, dataset: Dataset, info: DatasetInfo):
    pipeline = FeaturePipeline(config, seed=3)
    return (pipeline.fit_transform_train(dataset, info),
            *(pipeline.transform_part(dataset, part) for part in ("val", "test")))


@pytest.mark.parametrize("kind", ["no_cat", "no_num"])
@pytest.mark.parametrize("task", [TaskType.MULTICLASS, TaskType.REGRESSION])
def test_zero_width_block_leaves_the_other_as_the_full_table_has_it(task, kind):
    dataset, info = table(task)
    part, part_info = lacking(dataset, info, kind)
    for config in CONFIGS:
        for full, alone in zip(encoded(config, dataset, info),
                               encoded(config, part, part_info)):
            width = alone.shape[1]
            block = full[:, :width] if kind == "no_cat" else full[:, full.shape[1] - width:]
            assert width and width < full.shape[1], config
            np.testing.assert_array_equal(alone, block, err_msg=str(config))


def test_no_val_rows_encode_as_an_empty_part():
    dataset, info = lacking(*table(TaskType.MULTICLASS), "no_val")
    for config in CONFIGS:
        train, val, test = encoded(config, dataset, info)
        assert val.shape == (0, train.shape[1]) and test.shape[1] == train.shape[1]


def covering_configs(offset: int) -> list[PipelineConfig]:
    """Seven configs holding every cat_policy, every normalization and every
    tested num_policy; ``offset`` rotates which ones meet."""
    return [PipelineConfig(cat_policy=cat,
                           normalization=NORMALIZATIONS[(j + offset) % len(NORMALIZATIONS)],
                           num_policy=NUM_POLICIES[(j + offset) % len(NUM_POLICIES)])
            for j, cat in enumerate(CAT_POLICIES)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", registered_methods())
def test_every_method_fits_a_table_lacking_a_part_or_kind(name, kind):
    cls = get_method(name)
    tasks = [t for t in (TaskType.MULTICLASS, TaskType.REGRESSION)
             if t in cls.task_types]
    for task, config in itertools.product(
            tasks, covering_configs(registered_methods().index(name))):
        dataset, info = lacking(*table(task), kind)
        method = cls(MethodConfig(model=MODEL.get(name, {}),
                                  training=TRAINING.get(name, {}),
                                  pipeline=config), info)
        method.fit(dataset, info)
        pred = method.predict_part(dataset, "test")
        assert pred.values.shape == (dataset.part_size("test"),)
        assert np.isfinite(pred.values).all(), (task, config)
        if task is not TaskType.REGRESSION:
            assert pred.probabilities.shape == (len(pred.values), info.class_count)
            assert np.isfinite(pred.probabilities).all(), (task, config)


@pytest.mark.parametrize("name,model,training", [
    ("mlp", {}, {"lr": "fast"}),
    ("mlp", {}, {"weight_decay": "x"}),
    ("mlp", {}, {"patience": "x"}),
    ("mlp", {"d_layers": 5}, {}),
    ("random_forest", {"max_features": "x"}, {}),
    # a width below 1 would fail in the fit, or fit a bias-only net
    ("mlp", {"d_layers": [-3]}, {}),
    ("mlp", {"d_layers": [0]}, {}),
    ("mlp", {"d_layers": [8, 0]}, {}),
    ("mlp", {}, {"patience": 0}),
    ("mlp", {}, {"patience": -4}),
    # bool("false") is True
    ("random_forest", {"bootstrap": "false"}, {}),
    ("random_forest", {"bootstrap": 0}, {}),
])
def test_malformed_hyperparameters_fail_at_construction(name, model, training):
    _, info = table(TaskType.MULTICLASS)
    with pytest.raises((TypeError, ValueError)):
        get_method(name)(MethodConfig(model=model, training=training), info)


@pytest.mark.parametrize("name,group,key,value,kind", [
    # an int hyperparameter was truncated: 2.7 became 2, True 1, "3" 3, and
    # 0.5 failed as "got 0"
    *[("random_forest", "model", "n_trees", v, "an integer")
      for v in (2.7, 0.5, True, np.True_, "3", None, np.nan, np.inf)],
    ("cart", "model", "max_depth", "16", "an integer"),
    ("knn", "model", "n_neighbors", np.float64(2.5), "an integer"),
    ("mlp", "training", "patience", False, "an integer"),
    ("mlp", "model", "d_layers", [8, 2.5], "an integer"),
    # a float hyperparameter took True as 1.0 and "0.1" as 0.1
    *[("gbdt", "model", "learning_rate", v, "a number")
      for v in (True, "0.1", None)],
    ("logreg", "model", "l2", np.False_, "a number"),
    ("mlp", "model", "dropout", "0.1", "a number"),
])
def test_non_numbers_fail_at_construction(name, group, key, value, kind):
    _, info = table(TaskType.MULTICLASS)
    with pytest.raises(ConfigError, match=f"{key} must be {kind}, got"):
        get_method(name)(MethodConfig(**{group: {key: value}}), info)


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3),
                                   3.0, np.float32(3.0)])
def test_integers_and_integral_floats_parse_as_ints(value):
    parsed = positive_int({"k": value}, "k", 1)
    assert parsed == 3 and type(parsed) is int


@pytest.mark.parametrize("value", [2, np.int64(2), 2.0, np.float32(2.0)])
def test_real_numbers_parse_as_floats(value):
    parsed = bounded_float({"x": value}, "x", 1.0)
    assert parsed == 2.0 and type(parsed) is float


@pytest.mark.parametrize("name,group,key,value", [
    # 0.0 is legal for gbdt: it keeps the initial (prior) scores
    *[("gbdt", "model", "learning_rate", v)
      for v in (np.nan, np.inf, -np.inf, -1.0)],
    *[("mlp", "training", "lr", v) for v in (np.nan, np.inf, -1.0, 0.0)],
    *[("mlp", "training", "weight_decay", v) for v in (np.nan, np.inf, -1e-9)],
    *[(name, "model", "l2", v) for name in ("logreg", "svm")
      for v in (np.nan, np.inf)],
])
def test_out_of_range_float_hyperparameters_fail_at_construction(name, group,
                                                                 key, value):
    _, info = table(TaskType.MULTICLASS)
    with pytest.raises(ConfigError, match=f"{key} must be in"):
        get_method(name)(MethodConfig(**{group: {key: value}}), info)
