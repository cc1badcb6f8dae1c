"""Shared fixtures: small synthetic datasets with known structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from tabkit.data import Dataset, DatasetInfo, TaskType

# one profile for every property test: no per-example deadline, since this
# suite's speed varies by a third from run to run on a small shared host;
# "thorough" (pytest --hypothesis-profile=thorough) runs ten times the examples
settings.register_profile("tabkit", max_examples=150, deadline=None)
settings.register_profile("thorough", max_examples=1500, deadline=None)
settings.load_profile("tabkit")


def make_classification(
    n_rows: int = 120,
    n_num: int = 4,
    n_cat: int = 2,
    n_classes: int = 2,
    seed: int = 0,
    missing_rate: float = 0.0,
    val_fraction: float = 0.2,
    test_fraction: float = 0.2,
) -> tuple[Dataset, DatasetInfo]:
    """Gaussian blobs per class plus label-correlated categorical tokens."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n_rows)
    centers = rng.normal(0.0, 3.0, size=(n_classes, n_num))
    num = centers[labels] + rng.normal(0.0, 1.0, size=(n_rows, n_num))
    cat = np.empty((n_rows, n_cat), dtype=object)
    tokens = [f"tok{t}" for t in range(n_classes + 2)]
    for j in range(n_cat):
        # mostly label-aligned token, sometimes a random one
        noise = rng.random(n_rows) < 0.25
        pick = np.where(noise, rng.integers(0, len(tokens), size=n_rows), labels)
        cat[:, j] = [tokens[t] for t in pick]
    if missing_rate > 0.0:
        num[rng.random(num.shape) < missing_rate] = np.nan
        cat[rng.random(cat.shape) < missing_rate] = ""
    task = TaskType.BINCLASS if n_classes == 2 else TaskType.MULTICLASS
    split = _three_way_split(n_rows, val_fraction, test_fraction, rng)
    dataset = Dataset(
        num=num, cat=cat, labels=labels.astype(np.int64), task=task, split=split
    )
    info = DatasetInfo(
        task=task, n_num_features=n_num, n_cat_features=n_cat,
        class_count=n_classes, name=f"synthetic-clf-{seed}",
    )
    return dataset, info


def make_regression(
    n_rows: int = 120,
    n_num: int = 4,
    n_cat: int = 1,
    seed: int = 0,
    missing_rate: float = 0.0,
    val_fraction: float = 0.2,
    test_fraction: float = 0.2,
) -> tuple[Dataset, DatasetInfo]:
    """Linear signal with mild noise; categorical column shifts the intercept."""
    rng = np.random.default_rng(seed)
    num = rng.normal(0.0, 1.0, size=(n_rows, n_num))
    weights = rng.normal(0.0, 2.0, size=n_num)
    cat = np.empty((n_rows, n_cat), dtype=object)
    offsets = np.zeros(n_rows)
    tokens = ["red", "green", "blue"]
    for j in range(n_cat):
        pick = rng.integers(0, len(tokens), size=n_rows)
        cat[:, j] = [tokens[t] for t in pick]
        offsets = offsets + pick * 1.5
    labels = num @ weights + offsets + rng.normal(0.0, 0.1, size=n_rows)
    if missing_rate > 0.0:
        num[rng.random(num.shape) < missing_rate] = np.nan
        cat[rng.random(cat.shape) < missing_rate] = ""
    split = _three_way_split(n_rows, val_fraction, test_fraction, rng)
    dataset = Dataset(
        num=num, cat=cat, labels=labels.astype(np.float64),
        task=TaskType.REGRESSION, split=split,
    )
    info = DatasetInfo(
        task=TaskType.REGRESSION, n_num_features=n_num, n_cat_features=n_cat,
        class_count=None, name=f"synthetic-reg-{seed}",
    )
    return dataset, info


def dataset_from_arrays(num, labels, task, cat=None, n_val=0, n_test=0):
    """Wrap raw arrays as a Dataset; the last n_val+n_test rows become the
    validation and test parts."""
    num = np.asarray(num, dtype=np.float64)
    if num.ndim == 1:
        num = num.reshape(-1, 1)
    n = len(labels)
    if cat is None:
        cat = np.empty((n, 0), dtype=object)
    is_reg = task is TaskType.REGRESSION
    labels = np.asarray(labels, dtype=np.float64 if is_reg else np.int64)
    n_train = n - n_val - n_test
    split = {
        "train": np.arange(n_train),
        "val": np.arange(n_train, n_train + n_val),
        "test": np.arange(n_train + n_val, n),
    }
    dataset = Dataset(num=num, cat=cat, labels=labels, task=task, split=split)
    class_count = None if is_reg else int(labels.max()) + 1
    info = DatasetInfo(
        task=task,
        n_num_features=num.shape[1],
        n_cat_features=cat.shape[1],
        class_count=class_count,
        name="inline",
    )
    return dataset, info


def _three_way_split(n_rows, val_fraction, test_fraction, rng):
    order = rng.permutation(n_rows)
    n_test = int(round(test_fraction * n_rows))
    n_val = int(round(val_fraction * n_rows))
    test = np.sort(order[:n_test])
    val = np.sort(order[n_test:n_test + n_val])
    train = np.sort(order[n_test + n_val:])
    return {"train": train, "val": val, "test": test}


@pytest.fixture
def clf_dataset():
    return make_classification(seed=7)


@pytest.fixture
def multiclass_dataset():
    return make_classification(n_classes=4, n_rows=200, seed=11)


@pytest.fixture
def reg_dataset():
    return make_regression(seed=5)
