"""Seeded synthetic tables for the benchmark workloads.

Every generator takes the workload seed and returns the same rows for the
same seed. The ground truth a table is drawn from (class centers, target
weights and token offsets) comes from a separate ``problem`` number that a
workload fixes per table, so that changing the seed draws another sample of
the same problem rather than another problem: the work a pass does and the
scores it reaches then stay close from seed to seed. The knobs are the ones
the workloads vary: row count, categorical token cardinality (tokens drawn
from a Zipf law over the vocabulary) and the share of missing cells. ``make_classification`` and ``make_regression`` with
their defaults draw the table shapes of the acceptance study (criterion 7):
Gaussian class blobs with label-aligned tokens, and a linear target shifted
by token offsets.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from tabkit.data import Dataset, DatasetInfo, TaskType


def zipf_ranks(rng: np.random.Generator, n: int, n_tokens: int,
               exponent: float) -> np.ndarray:
    """Draw n token ranks in [0, n_tokens) with P(rank r) ~ 1 / (r + 1)^exponent;
    exponent 0 is uniform."""
    weights = 1.0 / np.arange(1, n_tokens + 1) ** exponent
    return rng.choice(n_tokens, size=n, p=weights / weights.sum())


def _three_way_split(rng: np.random.Generator, n_rows: int):
    """60/20/20 train/val/test."""
    order = rng.permutation(n_rows)
    n_test = n_val = int(round(0.2 * n_rows))
    return {
        "train": np.sort(order[n_test + n_val:]),
        "val": np.sort(order[n_test:n_test + n_val]),
        "test": np.sort(order[:n_test]),
    }


def _with_missing(rng, num: np.ndarray, cat: np.ndarray, rate: float):
    if rate > 0.0:
        num = num.copy()
        cat = cat.copy()
        num[rng.random(num.shape) < rate] = np.nan
        cat[rng.random(cat.shape) < rate] = ""
    return num, cat


def _token_strings(ranks: np.ndarray, column: int) -> np.ndarray:
    return np.array([f"c{column}t{r}" for r in ranks], dtype=object)


def token_ranks(column: np.ndarray) -> np.ndarray:
    """Invert _token_strings; a missing cell ("") reads as rank 0."""
    return np.array([int(t.split("t", 1)[1]) if t else 0 for t in column])


def make_classification(
    seed, problem: int, *, n_rows: int, n_num: int, n_cat: int, n_classes: int,
    n_tokens: int | None = None, zipf: float = 0.0, label_noise: float = 0.25,
    missing_rate: float = 0.0, name: str = "blobs",
) -> tuple[Dataset, DatasetInfo]:
    """Gaussian blobs per class; each categorical cell holds its class's token
    except, with probability ``label_noise``, a Zipf draw over ``n_tokens``
    (default ``n_classes + 2``) tokens."""
    rng = np.random.default_rng(seed)
    n_tokens = n_tokens or n_classes + 2
    centers = np.random.default_rng(problem).normal(
        0.0, 3.0, size=(n_classes, n_num))
    labels = rng.integers(0, n_classes, size=n_rows)
    num = centers[labels] + rng.normal(0.0, 1.0, size=(n_rows, n_num))
    cat = np.empty((n_rows, n_cat), dtype=object)
    for j in range(n_cat):
        noisy = rng.random(n_rows) < label_noise
        ranks = np.where(noisy, zipf_ranks(rng, n_rows, n_tokens, zipf), labels)
        cat[:, j] = _token_strings(ranks, j)
    num, cat = _with_missing(rng, num, cat, missing_rate)
    task = TaskType.BINCLASS if n_classes == 2 else TaskType.MULTICLASS
    dataset = Dataset(num=num, cat=cat, labels=labels.astype(np.int64),
                      task=task, split=_three_way_split(rng, n_rows))
    info = DatasetInfo(task=task, n_num_features=n_num, n_cat_features=n_cat,
                       class_count=n_classes, name=name)
    return dataset, info


def make_regression(
    seed, problem: int, *, n_rows: int, n_num: int, n_cat: int, n_tokens: int = 3,
    zipf: float = 0.0, missing_rate: float = 0.0, name: str = "linear",
) -> tuple[Dataset, DatasetInfo]:
    """Linear signal with mild noise; each categorical column shifts the
    target by 1.5 per token rank."""
    rng = np.random.default_rng(seed)
    weights = np.random.default_rng(problem).normal(0.0, 2.0, size=n_num)
    num = rng.normal(0.0, 1.0, size=(n_rows, n_num))
    cat = np.empty((n_rows, n_cat), dtype=object)
    offsets = np.zeros(n_rows)
    for j in range(n_cat):
        ranks = zipf_ranks(rng, n_rows, n_tokens, zipf)
        cat[:, j] = _token_strings(ranks, j)
        offsets += 1.5 * ranks
    labels = num @ weights + offsets + rng.normal(0.0, 0.1, size=n_rows)
    num, cat = _with_missing(rng, num, cat, missing_rate)
    dataset = Dataset(num=num, cat=cat, labels=labels,
                      task=TaskType.REGRESSION,
                      split=_three_way_split(rng, n_rows))
    info = DatasetInfo(task=TaskType.REGRESSION, n_num_features=n_num,
                       n_cat_features=n_cat, name=name)
    return dataset, info


def regression_target(seed, problem: int, dataset: Dataset, info: DatasetInfo,
                      n_tokens: int, name: str) -> tuple[Dataset, DatasetInfo]:
    """The same rows and split with a real-valued target: a linear function of
    the numerical cells (missing read as 0) plus an offset per token rank."""
    truth = np.random.default_rng(problem)
    num = np.nan_to_num(dataset.num, nan=0.0)
    target = num @ truth.normal(0.0, 2.0, size=num.shape[1])
    for j in range(dataset.cat.shape[1]):
        offsets = truth.normal(0.0, 1.0, size=n_tokens)
        target += offsets[token_ranks(dataset.cat[:, j])]
    target += np.random.default_rng(seed).normal(0.0, 0.1, size=len(target))
    regression = replace(dataset, labels=target, task=TaskType.REGRESSION)
    return regression, replace(info, task=TaskType.REGRESSION,
                               class_count=None, name=name)
