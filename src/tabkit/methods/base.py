"""The unified method contract: fit on train+val, predict anywhere.

Every method owns a feature pipeline, fits it and its own parameters on the
training part (validation is only consulted for early stopping), and reports
its wall-clock training time. Fitted state never depends on test rows.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from ..data import Dataset, DatasetInfo, TaskType
from ..errors import ConfigError, FitError
from ..pipeline import FeaturePipeline, PipelineConfig

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


def positive_int(cfg: dict, key: str, default: int) -> int:
    """``cfg[key]`` (or ``default``) as an int; ConfigError below 1."""
    value = int(cfg.get(key, default))
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
    return value


def validation_score(predicted, truth, classification: bool) -> float:
    """Model-selection score, higher is better: the accuracy of predicted
    labels, or the negated RMSE of predicted values."""
    if classification:
        return float(np.mean(predicted == truth))
    return -float(np.sqrt(np.mean((predicted - truth) ** 2)))


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
    """Base class; subclasses implement _fit, _predict, and model_size."""

    # which task kinds the method accepts
    task_types: tuple[TaskType, ...] = (
        TaskType.BINCLASS,
        TaskType.MULTICLASS,
        TaskType.REGRESSION,
    )
    is_deep = False

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
        self._fitted = False
        self._check_config()

    def fit(self, dataset: Dataset, info: DatasetInfo) -> float:
        """Fit pipeline and model on train (+val for early stopping); returns
        the training time in seconds. Test rows are never read.

        A memoized pipeline fit is charged the seconds its first fit took
        (``FeaturePipeline.fit_seconds``), so the time does not depend on
        which run came first; hit and miss read the clock equally often."""
        start = _clock()
        x_train = self.pipeline.fit_transform_train(dataset, info)
        y_train = dataset.part_labels("train")
        if dataset.part_size("val"):
            x_val = self.pipeline.transform_part(dataset, "val")
            y_val = dataset.part_labels("val")
        else:
            x_val = np.empty((0, x_train.shape[1]))
            y_val = y_train[:0]
        encoded = _clock()
        pipeline_s = self.pipeline.fit_seconds(encoded - start)
        self._fit(x_train, y_train, x_val, y_val)
        self._fitted = True
        return pipeline_s + (_clock() - encoded)

    def predict(self, num: np.ndarray, cat: np.ndarray) -> Prediction:
        self._require_fitted()
        return self._predict(self.pipeline.transform(num, cat))

    def predict_part(self, dataset: Dataset, part: str) -> Prediction:
        self._require_fitted()
        return self._predict(self.pipeline.transform_part(dataset, part))

    def fitted_state(self) -> bytes:
        """Serialized fitted parameters; equal bytes mean equal models."""
        self._require_fitted()
        return pickle.dumps((self.pipeline.state(), self._state()))

    def model_size(self) -> int:
        """Trainable parameter count, or node count for tree ensembles."""
        raise NotImplementedError

    def _require_fitted(self):
        if not self._fitted:
            raise FitError(f"{type(self).__name__} is not fitted")

    # ---- subclass hooks -------------------------------------------------
    def _check_config(self):
        """Raise ConfigError for an out-of-range hyperparameter. Runs in the
        constructor, so a bad configuration fails before any data is read."""

    def _fit(self, x_train, y_train, x_val, y_val):
        raise NotImplementedError

    def _predict(self, x) -> Prediction:
        raise NotImplementedError

    def _state(self) -> tuple:
        raise NotImplementedError

    # convenience for classification subclasses
    def _classify(self, probabilities: np.ndarray) -> Prediction:
        return Prediction.classification(self.info.task, probabilities)
