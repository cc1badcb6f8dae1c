"""One output matrix per pipeline fit or transform, keyed by cached digests.

Each stage writes its block straight into one preallocated matrix; these tests
hold its bytes to the ``np.hstack`` assembly in ``pipeline_oracle``, its
memory to about one output matrix, the dict token lookup to the ``np.unique``
mapping, and the per-array digest cache to its identity semantics.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pipeline_oracle
import tabkit.pipeline as pipeline_module
from tabkit.data import Dataset, DatasetInfo, TaskType
from tabkit.encode_cat import _tokenize, fit_categorical_encoder
from tabkit.pipeline import FeaturePipeline, PipelineConfig, _fit_key

from conftest import make_classification
# empty_memo (autouse) and stage_fits are fixtures
from test_pipeline_memo import (  # noqa: F401
    PIPELINE_CONFIGS,
    POLICY_CONFIGS,
    TABLES,
    empty_memo,
    exact,
    stage_fits,
)


def assert_matches_oracle(table, config, seed=0):
    dataset, info = TABLES[table]
    pipeline_module._memo = pipeline_module._Memo()
    pipeline = FeaturePipeline(config, seed=seed)
    train = pipeline.fit_transform_train(dataset, info)
    stages, want = pipeline_oracle.fit(config, seed, dataset, info)
    assert exact(train) == exact(want)
    assert pickle.dumps(pipeline.state()) == pickle.dumps(stages)
    for part in ("val", "test"):
        got = pipeline.transform_part(dataset, part)
        want = pipeline_oracle.transform(stages, dataset.part_num(part),
                                         dataset.part_cat(part))
        assert exact(got) == exact(want), part


@pytest.mark.parametrize("config", POLICY_CONFIGS,
                         ids=lambda c: f"{c.cat_policy}-{c.num_policy}")
@pytest.mark.parametrize("table", sorted(TABLES))
def test_matrices_equal_the_hstack_oracle(table, config):
    assert_matches_oracle(table, config)


@given(table=st.sampled_from(sorted(TABLES)), config=PIPELINE_CONFIGS,
       seed=st.integers(0, 1))
def test_any_config_equals_the_hstack_oracle(table, config, seed):
    assert_matches_oracle(table, config, seed)


# ---- dict token lookups ----------------------------------------------------

CELLS = st.one_of(
    st.sampled_from(["a", "b", "", "a\x00", "\x00", "b\x00c", "nan", "1"]),
    st.text(max_size=3),
    st.integers(-2, 2),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.booleans(),
    st.none(),
    st.binary(max_size=2).filter(lambda b: b.isascii()),
)


def object_column(cells: list) -> np.ndarray:
    col = np.empty(len(cells), dtype=object)
    col[:] = cells
    return col


@given(train=st.lists(CELLS, min_size=1, max_size=20),
       query=st.lists(CELLS, max_size=30),
       policy=st.sampled_from(["onehot", "hash"]))
def test_rows_equal_the_unique_mapping(train, query, policy):
    encoder, _ = fit_categorical_encoder(object_column(train)[:, None], policy)
    col = object_column(query)
    got = encoder._rows(0, _tokenize(col[:, None]))
    assert got.dtype == np.intp
    assert np.array_equal(got, pipeline_oracle.rows(encoder, 0, col))


def test_rows_of_a_fixed_width_string_column():
    encoder, _ = fit_categorical_encoder(
        np.array([["x"], ["y"], ["x"]], dtype=object), "ordinal")
    col = np.array(["y", "z", "x", ""])
    assert encoder._rows(0, _tokenize(col[:, None])).tolist() == [1, 2, 0, 2]


# ---- the digest cache ------------------------------------------------------

def test_a_new_array_of_equal_content_hits(stage_fits):
    dataset, info = TABLES["clf"]
    FeaturePipeline().fit_transform_train(dataset, info)
    copy = replace(dataset, num=dataset.num.copy(), cat=dataset.cat.copy(),
                   labels=dataset.labels.copy(),
                   split={part: rows.copy() for part, rows in dataset.split.items()})
    FeaturePipeline().fit_transform_train(copy, info)
    assert len(stage_fits) == 1


def test_a_reassigned_array_misses(stage_fits):
    dataset, info = make_classification(n_rows=90, seed=86)
    before = FeaturePipeline().fit_transform_train(dataset, info).copy()
    num = dataset.num.copy()
    num[dataset.split["train"][0], 0] += 1.0
    dataset.num = num
    after = FeaturePipeline().fit_transform_train(dataset, info)
    assert len(stage_fits) == 2
    assert not np.array_equal(before, after)


def test_a_digest_is_computed_once_per_array(monkeypatch):
    dataset, info = TABLES["reg"]
    config = PipelineConfig()
    first = _fit_key(config, 0, dataset, info)
    pickles = []
    monkeypatch.setattr(pipeline_module.pickle, "Pickler",
                        lambda *a, **k: pickles.append(1))
    assert _fit_key(config, 0, dataset, info) == first
    assert _fit_key(replace(config, cat_policy="binary"), 0, dataset, info) != first
    assert pickles == []


def throwaway_table(i: int) -> tuple[Dataset, DatasetInfo]:
    rng = np.random.default_rng(i)
    num = rng.normal(size=(6, 2))
    cat = np.array([[f"t{i % 3}"]] * 6, dtype=object)
    labels = rng.normal(size=6)
    split = {"train": np.arange(4), "val": np.array([4]), "test": np.array([5])}
    info = DatasetInfo(TaskType.REGRESSION, 2, 1, name=f"throwaway-{i}")
    return Dataset(num, cat, labels, TaskType.REGRESSION, split), info


def test_digests_leave_with_their_arrays():
    gc.collect()
    held = len(pipeline_module._by_array)
    keys = set()
    for i in range(1000):
        dataset, info = throwaway_table(i)
        keys.add(_fit_key(PipelineConfig(), 0, dataset, info))
        # ids of collected arrays come back; each key is still its own
        fresh = Dataset(dataset.num.copy(), dataset.cat.copy(),
                        dataset.labels.copy(), dataset.task,
                        {part: rows.copy() for part, rows in dataset.split.items()})
        assert _fit_key(PipelineConfig(), 0, fresh, info) in keys
        del dataset, fresh
    gc.collect()
    assert len(keys) == 1000
    assert len(pipeline_module._by_array) <= held


# ---- memory: about one output matrix ---------------------------------------

def onehot_table() -> tuple[Dataset, DatasetInfo]:
    """10,000 rows, 2 numeric and 6 categorical columns of 60 tokens each."""
    rng = np.random.default_rng(7)
    n, n_cat = 10_000, 6
    cat = np.array([f"tok{t}" for t in range(60)], dtype=object)[
        rng.integers(0, 60, size=(n, n_cat))]
    labels = rng.integers(0, 2, size=n)
    order = rng.permutation(n)
    split = {"train": order[:6000], "val": order[6000:8000],
             "test": order[8000:]}
    dataset = Dataset(rng.normal(size=(n, 2)), cat, labels, TaskType.BINCLASS, split)
    info = DatasetInfo(TaskType.BINCLASS, 2, n_cat, class_count=2, name="onehot")
    return dataset, info


def peak_of(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_fit_and_transform_peak_near_one_output_matrix():
    dataset, info = onehot_table()
    pipeline = FeaturePipeline(PipelineConfig(cat_policy="onehot"))
    train, fit_peak = peak_of(lambda: pipeline.fit_transform_train(dataset, info))
    assert train.shape == (6000, 2 + 6 * 61)
    num, cat = dataset.part_num("test"), dataset.part_cat("test")
    test, transform_peak = peak_of(lambda: pipeline.transform(num, cat))
    assert fit_peak <= 1.1 * train.nbytes
    assert transform_peak <= 1.1 * test.nbytes
