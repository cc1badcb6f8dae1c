"""Feature pipeline: impute, normalize, then encode, fitted on train rows only.

The numerical block is imputed, normalized, and (optionally) replaced by a
binned encoding; the categorical block is imputed and encoded under the
chosen policy. Ordinal category indices are standard-scaled so that every
downstream model sees comparably scaled inputs. A table with no numerical or
no categorical column runs the same stages on a zero-width block.

A fit or transform allocates one (rows x width) matrix, and every stage
writes its block straight into it: the numeric block on the left, then the
categorical one.

The categorical stages work on integer codes. ``dataset.cat`` is tokenized
once per array object, kept with the array digests below, and a part's codes
are the table's rows of that part; ``transform`` tokenizes the cells it is
given.

The most recent fit is memoized. Its key is a digest of the config, the task,
the class count, the dataset's arrays (test rows included) and, when
``PipelineConfig.reads_seed`` (the ``catboost`` policy only), the seed: no
other stage reads the seed. Each array's digest (and ``cat``'s codes) is
computed once per array object and kept until the array is collected, so a
``Dataset``'s arrays must not be modified in place after a fit; assigning a
new array to an attribute is fine.
A pipeline whose key matches takes the memoized stages and the read-only train
matrix instead of fitting again. Only one entry is held; a fit with another
key drops it before fitting. Val and test rows are not memoized: each
``transform_part`` encodes its part afresh.

The entry keeps the seconds its stages took to fit, timed on ``_clock`` (the
one clock every reported second is read from), and a pipeline fitted from it,
on a hit as on the miss, reports them as its ``seconds``.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DatasetInfo
from .encode_cat import (
    DEFAULT_N_BUCKETS,
    _Codes,
    _coded,
    _tokenize,
    fit_categorical_encoder,
)
from .encode_num import DEFAULT_N_BINS, fit_numeric_encoder
from .errors import FitError
from .preprocess import fit_imputer, fit_normalizer


@dataclass(frozen=True)
class PipelineConfig:
    normalization: str = "standard"
    num_nan_policy: str = "mean"
    cat_nan_policy: str = "most_frequent"
    num_policy: str = "none"
    cat_policy: str = "onehot"
    n_bins: int = DEFAULT_N_BINS
    n_buckets: int = DEFAULT_N_BUCKETS

    @property
    def reads_seed(self) -> bool:
        """Whether a fit reads the seed: only the ``catboost`` permutation
        does."""
        return self.cat_policy == "catboost"


# timing source for every reported second; module-level so tests can
# substitute a fake clock
_clock = time.perf_counter


@dataclass(eq=False)
class _Fit:
    """One memoized fit: its stages, its read-only train matrix and the
    seconds fitting them took."""

    stages: tuple
    train: np.ndarray
    seconds: float


class _Memo:
    """One value and its key. ``get`` returns the held value if the key
    matches and ``fits(value)`` holds; otherwise it drops the value before
    computing and holding the next, so at most one is alive at a time."""

    key = value = None

    def get(self, key, compute, fits=lambda value: True):
        if self.key != key or not fits(self.value):
            self.key = self.value = None
            self.value = compute()
            self.key = key
        return self.value


# the most recent fit of any pipeline in the process; the key holds every
# input the fit reads, so callers need not pass or reset it
_memo = _Memo()


# what has been computed from each array (its digest, a categorical table's
# codes), by the array's id and the computing function, until the array is
# collected
_by_array: dict[tuple[int, object], object] = {}


def _of_array(array: np.ndarray, compute):
    """``compute(array)``, computed once per array object."""
    key = (id(array), compute)
    value = _by_array.get(key)
    if value is None:
        value = _by_array[key] = compute(array)
        weakref.finalize(array, _by_array.pop, key, None)
    return value


def _digest(array: np.ndarray) -> bytes:
    """SHA-256 of an array's pickle."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=5)
    # no memo: twice as fast on object arrays of tokens, which hold no
    # cycles, and equal cells pickle alike whether or not they share an
    # object
    pickler.fast = True
    pickler.dump(array)
    return hashlib.sha256(buffer.getbuffer()).digest()


def _array_digest(array: np.ndarray) -> bytes:
    """SHA-256 of an array's pickle, computed once per array object."""
    return _of_array(array, _digest)


def _part_codes(dataset: Dataset, part: str) -> _Codes:
    """The codes of one part's categorical cells, gathered from those of the
    whole ``dataset.cat``, which is tokenized once per array object."""
    return _of_array(dataset.cat, _tokenize).take(dataset.split[part])


def _fit_key(config: PipelineConfig, seed: int, dataset: Dataset,
             info: DatasetInfo) -> bytes:
    """Digest of everything a fit reads: the arrays by their cached digests,
    the rest hashed on every call."""
    seed = seed if config.reads_seed else None
    key = hashlib.sha256(pickle.dumps(
        (config, info.task, info.class_count, seed, tuple(dataset.split))))
    for array in (dataset.num, dataset.cat, dataset.labels,
                  *dataset.split.values()):
        key.update(_array_digest(array))
    return key.digest()


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


def _fit_stages(cfg: PipelineConfig, seed: int, dataset: Dataset,
                info: DatasetInfo) -> _Fit:
    """Fit every stage on the train rows, with their read-only encoded
    matrix. The matrix is allocated once the categorical encoder knows its
    width, and each stage writes its block straight into it."""
    start = _clock()
    num = dataset.part_num("train")
    cat = _part_codes(dataset, "train")
    labels = dataset.part_labels("train")

    imputer = fit_imputer(
        num, cat, num_policy=cfg.num_nan_policy, cat_policy=cfg.cat_nan_policy
    )
    num, cat = imputer.transform(num, cat)

    normalizer = fit_normalizer(num, cfg.normalization)
    num = normalizer.transform(num)
    num_encoder = fit_numeric_encoder(
        num, cfg.num_policy, targets=labels, task=info.task, n_bins=cfg.n_bins
    )
    num_width = num.shape[1] if num_encoder is None else num_encoder.width
    out = None

    def allocate(cat_width: int) -> np.ndarray:
        nonlocal out
        out = np.empty((len(labels), num_width + cat_width))
        return out[:, num_width:]

    cat_encoder, cat_block = fit_categorical_encoder(
        cat,
        cfg.cat_policy,
        targets=labels,
        task=info.task,
        class_count=info.class_count,
        seed=seed,
        n_buckets=cfg.n_buckets,
        allocate=allocate,
    )
    ordinal_scaler = None
    if cfg.cat_policy == "ordinal":
        ordinal_scaler = fit_normalizer(cat_block, "standard")
        ordinal_scaler.transform(cat_block, out=cat_block)
    if num_encoder is None:
        out[:, :num_width] = num
    else:
        num_encoder.transform(num, out=out[:, :num_width])
    stages = (imputer, normalizer, num_encoder, cat_encoder, ordinal_scaler)
    return _Fit(stages, _read_only(out), _clock() - start)


class FeaturePipeline:
    """Fit once on the training part of a dataset, then transform any rows."""

    def __init__(self, config: PipelineConfig | None = None, seed: int = 0):
        self.config = config or PipelineConfig()
        self.seed = seed
        # imputer, normalizer, numeric encoder, categorical encoder, ordinal
        # scaler; a stage is None only when its policy is off (num_policy
        # "none", or a cat_policy other than "ordinal")
        self._stages: tuple = (None,) * 5
        self.seconds = 0.0  # what fitting the stages took, set by a fit

    @property
    def is_fitted(self) -> bool:
        return self._stages[0] is not None

    def fit_transform_train(self, dataset: Dataset, info: DatasetInfo) -> np.ndarray:
        """Fit every stage on the train rows and return their encoded,
        read-only matrix; a fit of the memoized key reuses its stages."""
        key = _fit_key(self.config, self.seed, dataset, info)
        fit = _memo.get(key, lambda: _fit_stages(self.config, self.seed,
                                                 dataset, info))
        self._stages = fit.stages
        self.seconds = fit.seconds
        return fit.train

    def transform(self, num: np.ndarray, cat) -> np.ndarray:
        """Encode rows with inference semantics (no row identity), each
        stage writing its block straight into one output matrix. ``cat`` is
        categorical cells, tokenized here, or their codes."""
        if not self.is_fitted:
            raise FitError("pipeline is not fitted")
        (imputer, normalizer, num_encoder, cat_encoder,
         ordinal_scaler) = self._stages
        num, cat = imputer.transform(num, _coded(cat))
        num_width = num.shape[1] if num_encoder is None else num_encoder.width
        out = np.empty((num.shape[0], num_width + cat_encoder.width))
        left, right = out[:, :num_width], out[:, num_width:]
        if num_encoder is None:
            normalizer.transform(num, out=left)
        else:
            num_encoder.transform(normalizer.transform(num), out=left)
        cat_encoder.transform(cat, out=right)
        if ordinal_scaler is not None:
            ordinal_scaler.transform(right, out=right)
        return out

    def transform_part(self, dataset: Dataset, part: str) -> np.ndarray:
        """Encode one part of ``dataset``."""
        return self.transform(dataset.part_num(part), _part_codes(dataset, part))

    def state(self) -> tuple:
        """The fitted stages, all that a transform reads, for equality checks."""
        return self._stages
