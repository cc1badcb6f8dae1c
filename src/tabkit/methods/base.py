"""The unified method contract: fit on train+val, predict anywhere.

Every method owns a feature pipeline, fits it and its own parameters on the
training part (validation is only consulted for early stopping, and encoded
only for a method that reads it), and reports its wall-clock training time.
Fitted state never depends on test rows.
"""

from __future__ import annotations

import numbers
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from ..data import Dataset, DatasetInfo, TaskType
from ..errors import ConfigError, FitError
from ..pipeline import FeaturePipeline, PipelineConfig
from ..splits import target_exponent

# timing source for fit(); module-level so tests can substitute a fake clock
_clock = time.perf_counter


@dataclass
class MethodConfig:
    """Hyperparameters split into the model and training groups, plus the
    feature pipeline settings and the run seed."""

    model: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    seed: int = 0


def _number(value, key: str, integral: bool = False):
    """``value`` if it is a real number, and integral when ``integral``;
    ConfigError for anything else, a bool or a string included."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, numbers.Real)
            or integral and not isinstance(value, numbers.Integral)
            and not float(value).is_integer()):
        kind = "an integer" if integral else "a number"
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return value


def positive_int(cfg: dict, key: str, default: int) -> int:
    """``cfg[key]`` (or ``default``), an integral number (a Python or numpy
    integer, or a float with no fraction), as an int; ConfigError for any
    other value or one below 1."""
    value = int(_number(cfg.get(key, default), key, integral=True))
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
    return value


def bounded_float(cfg: dict, key: str, default: float, *, positive=False,
                  below=float("inf")) -> float:
    """``cfg[key]`` (or ``default``), a real number, as a float; ConfigError
    unless it is finite and in [0, below), or in (0, below) when
    ``positive``."""
    value = float(_number(cfg.get(key, default), key))
    # nan fails every comparison, and inf is never below ``below``
    if not ((value > 0 if positive else value >= 0) and value < below):
        low = "(0" if positive else "[0"
        raise ConfigError(f"{key} must be in {low}, {below:g}), got {value}")
    return value


def scale_targets(*arrays) -> tuple:
    """``(e, *arrays)``: the ``splits.target_exponent`` of the arrays, and
    each array times 2^-e, whose squares and those of their differences
    cannot overflow; ``np.ldexp(value, e)`` maps a result back."""
    e = target_exponent(*arrays)
    return e, *(np.ldexp(array, -e) for array in arrays)


def validation_score(predicted, truth, classification: bool) -> float:
    """Model-selection score, higher is better: the accuracy of predicted
    labels, or the negated RMSE of predicted values."""
    if classification:
        return float(np.mean(predicted == truth))
    e, predicted, truth = scale_targets(predicted, truth)
    return -float(np.ldexp(np.sqrt(np.mean((predicted - truth) ** 2)), e))


@dataclass(frozen=True)
class Prediction:
    """Model output: class probabilities plus argmax labels, or real values."""

    task: TaskType
    values: np.ndarray
    probabilities: np.ndarray | None = None

    @classmethod
    def classification(cls, task: TaskType, probabilities: np.ndarray) -> "Prediction":
        probabilities = np.asarray(probabilities, dtype=np.float64)
        sums = probabilities.sum(axis=1)
        if len(sums) and (np.abs(sums - 1.0) > 1e-9).any():
            raise ValueError("probability rows must sum to 1")
        if len(sums) and ((probabilities < 0) | (probabilities > 1)).any():
            raise ValueError("probabilities must lie in [0, 1]")
        labels = np.argmax(probabilities, axis=1).astype(np.int64)
        return cls(task=task, values=labels, probabilities=probabilities)

    @classmethod
    def regression(cls, values: np.ndarray) -> "Prediction":
        return cls(
            task=TaskType.REGRESSION,
            values=np.asarray(values, dtype=np.float64),
            probabilities=None,
        )


class Method:
    """Base class; subclasses implement _fit, _predict, and model_size.

    Regressors fit in one target unit: ``fit`` maps targets by 2^-e, for e
    their ``splits.target_exponent``, and predictions map back, exactly short
    of subnormals; ``_fit``, ``_predict`` and ``_state`` see mapped targets.

    ``reads_seed`` says whether the fitted model may depend on
    ``config.seed``. A class that declares it ``False`` fits the same model
    on every seed, so ``report.run_seeds`` fits it once and records that
    outcome for each seed (unless the pipeline reads the seed). It is
    ``True`` here, so a method that does not declare it fits once per seed.

    ``reads_val`` says whether ``_fit`` reads the val part. ``fit`` encodes
    val only for a class that leaves it ``True``, as here, and hands the
    others ``None`` for ``x_val`` and ``y_val``."""

    # which task kinds the method accepts
    task_types: tuple[TaskType, ...] = (
        TaskType.BINCLASS,
        TaskType.MULTICLASS,
        TaskType.REGRESSION,
    )
    is_deep = False
    reads_seed = True
    reads_val = True

    def __init__(self, config: MethodConfig, info: DatasetInfo):
        if info.task not in self.task_types:
            raise FitError(
                f"{type(self).__name__} does not support {info.task.value} tasks"
            )
        self.config = config
        self.info = info
        self.is_regression = info.task is TaskType.REGRESSION
        self.class_count = info.class_count or 0
        self.pipeline = FeaturePipeline(config.pipeline, seed=config.seed)
        self._unit = 0  # the target exponent e; 0 for classification
        self._fitted = False
        self._check_config()

    def fit(self, dataset: Dataset, info: DatasetInfo) -> float:
        """Fit pipeline and model on train (+val, for a method that reads
        it); returns the training time in seconds. Test rows are never read.

        A memoized pipeline fit is charged the seconds its first fit took
        (``FeaturePipeline.fit_seconds``), and its val the seconds the val's
        first encoding took (``FeaturePipeline.val_seconds``), so the time
        does not depend on which run came first; hit and miss read the clock
        equally often."""
        start = _clock()
        x_train = self.pipeline.fit_transform_train(dataset, info)
        encoded = _clock()
        seconds = self.pipeline.fit_seconds(encoded - start)
        y_train = dataset.part_labels("train")
        x_val = y_val = None
        if self.reads_val:
            x_val, val_seconds, encoded = self._encode_val(dataset, encoded)
            seconds += val_seconds
            y_val = dataset.part_labels("val")
        if self.is_regression:
            self._unit = target_exponent(y_train)
            y_train = np.ldexp(y_train, -self._unit)
            if y_val is not None:
                y_val = np.ldexp(y_val, -self._unit)
        self._fit(x_train, y_train, x_val, y_val)
        self._fitted = True
        return seconds + (_clock() - encoded)

    def _encode_val(self, dataset: Dataset, start: float) -> tuple:
        """``dataset``'s encoded val part, the seconds charged for it and the
        clock once it is encoded: the first encoding of a memo entry's val
        keeps the seconds since ``start``, whoever asks for it."""
        x_val = self.pipeline.transform_part(dataset, "val")
        end = _clock()
        return x_val, self.pipeline.val_seconds(dataset, end - start), end

    def predict(self, num: np.ndarray, cat: np.ndarray) -> Prediction:
        self._require_fitted()
        return self._unmapped(self._predict(self.pipeline.transform(num, cat)))

    def predict_part(self, dataset: Dataset, part: str) -> Prediction:
        self._require_fitted()
        if part == "val":
            x = self._encode_val(dataset, _clock())[0]
        else:
            x = self.pipeline.transform_part(dataset, part)
        return self._unmapped(self._predict(x))

    def fitted_state(self) -> bytes:
        """Serialized fitted parameters; equal bytes mean equal models."""
        self._require_fitted()
        unit = (self._unit,) if self.is_regression else ()
        return pickle.dumps((self.pipeline.state(), self._state(), *unit))

    def model_size(self) -> int:
        """Trainable parameter count, or node count for tree ensembles."""
        raise NotImplementedError

    def _require_fitted(self):
        if not self._fitted:
            raise FitError(f"{type(self).__name__} is not fitted")

    def _unmapped(self, prediction: Prediction) -> Prediction:
        """A regression prediction mapped back to the targets' own unit; a
        value past the float range saturates at ±float64 max."""
        if not self.is_regression:
            return prediction
        with np.errstate(over="ignore"):
            values = np.ldexp(prediction.values, self._unit)
        limit = np.finfo(np.float64).max
        return Prediction.regression(np.clip(values, -limit, limit, out=values))

    # ---- subclass hooks -------------------------------------------------
    def _check_config(self):
        """Parse every hyperparameter into attributes, which ``_fit`` and
        ``_predict`` read, and raise ConfigError for one out of range. Runs in
        the constructor, so a bad configuration fails before any data is read."""

    def _fit(self, x_train, y_train, x_val, y_val):
        raise NotImplementedError

    def _predict(self, x) -> Prediction:
        raise NotImplementedError

    def _state(self) -> tuple:
        raise NotImplementedError

    # convenience for classification subclasses
    def _classify(self, probabilities: np.ndarray) -> Prediction:
        return Prediction.classification(self.info.task, probabilities)
