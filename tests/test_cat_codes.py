"""Categorical cells are tokenized once per table; every stage after that
works on integer codes.

The pipeline takes a table's codes from the per-array cache, once per
``dataset.cat`` array object, and a part's codes are a gather of them. The
public entry points that take cells tokenize them on entry and run the same
code path. Both must give the bytes of ``pipeline_oracle``, which imputes
the cells themselves and maps tokens through ``np.unique``, on cells that
are not plain strings: ints, floats, bools, strings with trailing NULs, the
empty string and a real ``"__nan__"`` cell.
"""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pipeline_oracle
import tabkit.encode_cat as encode_cat
import tabkit.pipeline as pipeline_module
from tabkit.data import Dataset, DatasetInfo, TaskType
from tabkit.encode_cat import CAT_POLICIES, fit_categorical_encoder
from tabkit.errors import FitError
from tabkit.pipeline import FeaturePipeline, PipelineConfig
from tabkit.preprocess import CAT_NAN_POLICIES, fit_imputer

from conftest import make_classification
from test_pipeline_memo import exact


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(pipeline_module, "_memo", pipeline_module._Memo())


@pytest.fixture
def tokenized(monkeypatch):
    """The length of each column ``encode_cat._tokens`` has tokenized."""
    lengths = []
    original = encode_cat._tokens

    def counting(col):
        lengths.append(len(col))
        return original(col)

    monkeypatch.setattr(encode_cat, "_tokens", counting)
    return lengths


def by_value(obj) -> bytes:
    """The pickle of ``obj`` without pickle's memo, so that equal strings
    pickle alike whether or not they are one object. A fill token may be a
    cell object or a new string of the same value: which one depends on the
    column, and only the memo could tell them apart."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=5)
    pickler.fast = True
    pickler.dump(obj)
    return buffer.getvalue()


CELLS = st.sampled_from([
    "a", "b", "c", "", "", "__nan__", "a\x00", "b\x00\x00", "\x00",
    0, 1, 2, 1.0, 1.5, -0.0, 0.0, True,
])
TASKS = {
    TaskType.BINCLASS: 2,
    TaskType.MULTICLASS: 3,
    TaskType.REGRESSION: None,
}


@st.composite
def hostile_tables(draw) -> tuple[Dataset, DatasetInfo]:
    """A small table of hostile categorical cells, split at random: the
    train part is in shuffled order, and val and test cells may be tokens
    the train part never saw."""
    n = draw(st.integers(6, 24))
    n_cat = draw(st.integers(1, 3))
    task = draw(st.sampled_from(list(TASKS)))
    cells = draw(st.lists(CELLS, min_size=n * n_cat, max_size=n * n_cat))
    cat = np.empty((n, n_cat), dtype=object)
    cat.flat[:] = cells
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_train = draw(st.integers(2, n - 2))
    order = rng.permutation(n)
    cut = n_train + (n - n_train) // 2
    split = {"train": order[:n_train], "val": np.sort(order[n_train:cut]),
             "test": np.sort(order[cut:])}
    class_count = TASKS[task]
    labels = (np.arange(n) % class_count if class_count else rng.normal(size=n))
    dataset = Dataset(rng.normal(size=(n, 2)), cat, labels, task, split)
    info = DatasetInfo(task, 2, n_cat, class_count=class_count, name="hostile")
    return dataset, info


CONFIGS = st.builds(PipelineConfig, cat_policy=st.sampled_from(CAT_POLICIES),
                    cat_nan_policy=st.sampled_from(CAT_NAN_POLICIES),
                    n_buckets=st.integers(2, 5))


def fit_both(config, seed, dataset, info):
    """(pipeline fitted from cached codes, its train matrix, the oracle's
    stages and train matrix), or None after checking that both raise
    FitError (a most_frequent column with no training cell)."""
    pipeline = FeaturePipeline(config, seed=seed)
    try:
        stages, want = pipeline_oracle.fit(config, seed, dataset, info)
    except FitError:
        with pytest.raises(FitError):
            pipeline.fit_transform_train(dataset, info)
        return None
    return pipeline, pipeline.fit_transform_train(dataset, info), stages, want


def assert_codes_and_cells_equal_the_oracle(config, seed, dataset, info):
    fitted = fit_both(config, seed, dataset, info)
    if fitted is None:
        return
    pipeline, train, stages, want = fitted
    assert exact(train) == exact(want)
    assert by_value(pipeline.state()) == by_value(stages)
    for part in ("val", "test"):
        num, cells = dataset.part_num(part), dataset.part_cat(part)
        want = exact(pipeline_oracle.transform(stages, num, cells))
        assert exact(pipeline.transform_part(dataset, part)) == want, part
        assert exact(pipeline.transform(num, cells)) == want, part

    # the categorical stages, fitted by the public functions on cells
    imputer, cat_encoder = stages[0], stages[3]
    num, cells = dataset.part_num("train"), dataset.part_cat("train")
    assert by_value(fit_imputer(num, cells, num_policy=config.num_nan_policy,
                                cat_policy=config.cat_nan_policy)) == by_value(imputer)
    _, filled = imputer.transform(num, cells)
    _, oracle_filled = pipeline_oracle.impute(imputer, num, cells)
    assert filled.tolist() == oracle_filled.astype(str).tolist()
    encoder, block = fit_categorical_encoder(
        filled, config.cat_policy, targets=dataset.part_labels("train"),
        task=info.task, class_count=info.class_count, seed=seed,
        n_buckets=config.n_buckets)
    _, oracle_block = pipeline_oracle.fit_cat(
        oracle_filled, config.cat_policy, dataset.part_labels("train"), info,
        seed, config.n_buckets)
    assert by_value(encoder) == by_value(cat_encoder)
    assert exact(block) == exact(oracle_block)
    for part in ("val", "test"):
        _, part_cells = pipeline_oracle.impute(imputer, dataset.part_num(part),
                                               dataset.part_cat(part))
        assert exact(encoder.transform(part_cells)) == exact(
            pipeline_oracle.encode_cat(cat_encoder, part_cells))


@given(table=hostile_tables(), config=CONFIGS, seed=st.integers(0, 1))
def test_codes_and_cells_equal_the_oracle(table, config, seed):
    pipeline_module._memo = pipeline_module._Memo()
    assert_codes_and_cells_equal_the_oracle(config, seed, *table)


def tie_table() -> tuple[Dataset, DatasetInfo]:
    """One column whose train part ties "a" and "b" twice each: "b" comes
    first in the whole table (row 0 is val), "a" first in the train part."""
    cat = np.array([["b"], ["a"], ["b"], ["a"], ["b"], [""], ["c"]], dtype=object)
    split = {"train": np.array([1, 2, 3, 4, 5]), "val": np.array([0]),
             "test": np.array([6])}
    labels = np.array([0, 1, 0, 1, 0, 1, 0])
    dataset = Dataset(np.zeros((7, 1)), cat, labels, TaskType.BINCLASS, split)
    return dataset, DatasetInfo(TaskType.BINCLASS, 1, 1, class_count=2, name="tie")


@pytest.mark.parametrize("policy", CAT_POLICIES)
def test_a_most_frequent_tie_goes_to_the_first_train_cell(policy):
    dataset, info = tie_table()
    config = PipelineConfig(cat_policy=policy)
    pipeline = FeaturePipeline(config)
    pipeline.fit_transform_train(dataset, info)
    assert pipeline.state()[0].cat_fill == ("a",)
    assert_codes_and_cells_equal_the_oracle(config, 0, dataset, info)


def test_a_real_nan_token_merges_with_the_constant_fill():
    cat = np.array([["__nan__"], [""], ["x"], [""], ["__nan__"]], dtype=object)
    split = {"train": np.arange(4), "val": np.array([4]), "test": np.array([4])}
    dataset = Dataset(np.zeros((5, 1)), cat, np.array([0, 1, 0, 1, 0]),
                      TaskType.BINCLASS, split)
    info = DatasetInfo(TaskType.BINCLASS, 1, 1, class_count=2, name="nan-token")
    config = PipelineConfig(cat_policy="ordinal", cat_nan_policy="constant")
    pipeline = FeaturePipeline(config)
    pipeline.fit_transform_train(dataset, info)
    assert pipeline.state()[3].vocabularies == ({"__nan__": 0, "x": 1},)
    assert_codes_and_cells_equal_the_oracle(config, 0, dataset, info)


def test_each_column_is_tokenized_once_per_table(tokenized):
    dataset, info = make_classification(n_rows=120, n_cat=3, seed=5,
                                        missing_rate=0.1)
    for policy in CAT_POLICIES:
        pipeline = FeaturePipeline(PipelineConfig(cat_policy=policy))
        pipeline.fit_transform_train(dataset, info)
        for _ in range(3):
            pipeline.transform_part(dataset, "val")
            pipeline.transform_part(dataset, "test")
    assert tokenized == [len(dataset.cat)] * dataset.cat.shape[1]


def test_a_reassigned_cat_array_gets_fresh_codes(tokenized):
    dataset, info = make_classification(n_rows=120, n_cat=2, seed=6,
                                        missing_rate=0.1)
    config = PipelineConfig(cat_policy="onehot")
    FeaturePipeline(config).fit_transform_train(dataset, info)
    cat = dataset.cat.copy()
    cat[dataset.split["train"][:40], 0] = "new"
    dataset.cat = cat
    pipeline = FeaturePipeline(config)
    train = pipeline.fit_transform_train(dataset, info)
    val = pipeline.transform_part(dataset, "val")
    assert tokenized == [len(cat)] * (2 * cat.shape[1])
    assert "new" in pipeline.state()[3].vocabularies[0]
    stages, want = pipeline_oracle.fit(config, 0, dataset, info)
    assert exact(train) == exact(want)
    assert exact(val) == exact(pipeline_oracle.transform(
        stages, dataset.part_num("val"), dataset.part_cat("val")))
