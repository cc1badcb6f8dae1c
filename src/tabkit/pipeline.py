"""Feature pipeline: impute, normalize, then encode, fitted on train rows only.

The numerical block is imputed, normalized, and (optionally) replaced by a
binned encoding; the categorical block is imputed and encoded under the
chosen policy. Ordinal category indices are standard-scaled so that every
downstream model sees comparably scaled inputs.

The most recent fit is memoized. Its key is a digest of the config, the task,
the class count, the dataset's arrays (test rows included) and, under the
``catboost`` policy only, the seed: no other stage reads the seed. A pipeline
whose key matches takes the memoized stages and the read-only train matrix
instead of fitting again, and the val matrix of the dataset it was fitted on
is encoded once per entry. Only one entry is held; a fit with another key
drops it before fitting.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import weakref
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DatasetInfo
from .encode_cat import (
    DEFAULT_N_BUCKETS,
    CategoricalEncoder,
    fit_categorical_encoder,
)
from .encode_num import DEFAULT_N_BINS, NumericEncoder, fit_numeric_encoder
from .errors import FitError
from .preprocess import (
    FittedImputer,
    FittedNormalizer,
    fit_imputer,
    fit_normalizer,
)


@dataclass(frozen=True)
class PipelineConfig:
    normalization: str = "standard"
    num_nan_policy: str = "mean"
    cat_nan_policy: str = "most_frequent"
    num_policy: str = "none"
    cat_policy: str = "onehot"
    n_bins: int = DEFAULT_N_BINS
    n_buckets: int = DEFAULT_N_BUCKETS


@dataclass(eq=False)
class _Fit:
    """One memoized fit: its stages, its read-only train matrix, the val
    matrix once a pipeline has asked for it, and the seconds the first
    ``Method.fit`` served from it measured."""

    key: bytes
    stages: tuple
    train: np.ndarray
    val: np.ndarray | None = None
    seconds: float | None = None


# the most recent fit of any pipeline in the process; the key holds every
# input the fit reads, so callers need not pass or reset it
_memo: _Fit | None = None


def _fit_key(config: PipelineConfig, seed: int, dataset: Dataset,
             info: DatasetInfo) -> bytes:
    """Digest of everything a fit reads."""
    seed = seed if config.cat_policy == "catboost" else None
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=5)
    # no memo: twice as fast on object arrays of tokens, which hold no
    # cycles, and equal cells pickle alike whether or not they share an object
    pickler.fast = True
    pickler.dump((config, info.task, info.class_count, seed,
                  dataset.num, dataset.cat, dataset.labels, dataset.split))
    return hashlib.sha256(buffer.getbuffer()).digest()


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


def _fit_stages(cfg: PipelineConfig, seed: int, dataset: Dataset,
                info: DatasetInfo) -> tuple[tuple, np.ndarray]:
    """Fit every stage on the train rows: (stages, encoded train matrix)."""
    num = dataset.part_num("train")
    cat = dataset.part_cat("train")
    labels = dataset.part_labels("train")
    normalizer = num_encoder = cat_encoder = ordinal_scaler = None

    imputer = fit_imputer(
        num, cat, num_policy=cfg.num_nan_policy, cat_policy=cfg.cat_nan_policy
    )
    num, cat = imputer.transform(num, cat)

    if num.shape[1]:
        normalizer = fit_normalizer(num, cfg.normalization)
        num = normalizer.transform(num)
        num_encoder = fit_numeric_encoder(
            num, cfg.num_policy, targets=labels, task=info.task, n_bins=cfg.n_bins
        )
        if num_encoder is not None:
            num = num_encoder.transform(num)

    if cat.shape[1]:
        cat_encoder, cat_block = fit_categorical_encoder(
            cat,
            cfg.cat_policy,
            targets=labels,
            task=info.task,
            class_count=info.class_count,
            seed=seed,
            n_buckets=cfg.n_buckets,
        )
        if cfg.cat_policy == "ordinal":
            ordinal_scaler = fit_normalizer(cat_block, "standard")
            cat_block = ordinal_scaler.transform(cat_block)
    else:
        cat_block = np.empty((len(labels), 0))
    stages = (imputer, normalizer, num_encoder, cat_encoder, ordinal_scaler)
    return stages, np.hstack([num, cat_block])


class FeaturePipeline:
    """Fit once on the training part of a dataset, then transform any rows."""

    def __init__(self, config: PipelineConfig | None = None, seed: int = 0):
        self.config = config or PipelineConfig()
        self.seed = seed
        self._imputer: FittedImputer | None = None
        self._normalizer: FittedNormalizer | None = None
        self._num_encoder: NumericEncoder | None = None
        self._cat_encoder: CategoricalEncoder | None = None
        self._ordinal_scaler: FittedNormalizer | None = None
        self._key: bytes | None = None
        self._fitted_on = None  # weak reference to the dataset of the last fit

    @property
    def is_fitted(self) -> bool:
        return self._imputer is not None

    def fit_transform_train(self, dataset: Dataset, info: DatasetInfo) -> np.ndarray:
        """Fit every stage on the train rows and return their encoded,
        read-only matrix; a fit of the memoized key reuses its stages."""
        global _memo
        key = _fit_key(self.config, self.seed, dataset, info)
        if _memo is None or _memo.key != key:
            _memo = None
            stages, train = _fit_stages(self.config, self.seed, dataset, info)
            _memo = _Fit(key, stages, _read_only(train))
        (self._imputer, self._normalizer, self._num_encoder,
         self._cat_encoder, self._ordinal_scaler) = _memo.stages
        self._key = key
        self._fitted_on = weakref.ref(dataset)
        return _memo.train

    def fit_seconds(self, measured: float) -> float:
        """The seconds charged for this pipeline's fit: those the first
        ``Method.fit`` served from its memo entry measured, so that a hit
        costs what the miss did. ``measured`` becomes that figure if the
        entry has none yet."""
        entry = self._entry()
        if entry is None:
            return measured
        if entry.seconds is None:
            entry.seconds = measured
        return entry.seconds

    def _entry(self) -> _Fit | None:
        """The memo entry this pipeline was last fitted from, while held."""
        if _memo is not None and _memo.key == self._key:
            return _memo
        return None

    def transform(self, num: np.ndarray, cat: np.ndarray) -> np.ndarray:
        """Encode rows with inference semantics (no row identity)."""
        if not self.is_fitted:
            raise FitError("pipeline is not fitted")
        num, cat = self._imputer.transform(num, cat)
        if self._normalizer is not None:
            num = self._normalizer.transform(num)
        if self._num_encoder is not None:
            num = self._num_encoder.transform(num)
        if self._cat_encoder is not None:
            cat_block = self._cat_encoder.transform(cat)
            if self._ordinal_scaler is not None:
                cat_block = self._ordinal_scaler.transform(cat_block)
        else:
            cat_block = np.empty((num.shape[0], 0))
        return np.hstack([num, cat_block])

    def transform_part(self, dataset: Dataset, part: str) -> np.ndarray:
        """Encode one part of ``dataset``. The val part of the dataset this
        pipeline was fitted on is encoded once per memo entry and read-only."""
        entry = self._entry()
        if part != "val" or entry is None or self._fitted_on() is not dataset:
            return self.transform(dataset.part_num(part), dataset.part_cat(part))
        if entry.val is None:
            entry.val = _read_only(self.transform(
                dataset.part_num(part), dataset.part_cat(part)))
        return entry.val

    def state(self) -> tuple:
        """The fitted stages, for equality and persistence checks."""
        return (
            self.config,
            self.seed,
            self._imputer,
            self._normalizer,
            self._num_encoder,
            self._cat_encoder,
            self._ordinal_scaler,
        )
