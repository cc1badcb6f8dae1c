"""Prediction-quality metrics and rank aggregation.

Classification reports accuracy, macro recall/precision/F1, log-loss, and
one-vs-rest AUC; regression reports MAE, RMSE, and R2. Ranking uses accuracy
(higher is better) for classification and RMSE (lower is better) for
regression; the remaining metrics are reported but never ranked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TaskType
from .errors import MetricError
from .methods.base import Prediction

__all__ = [
    "CLASSIFICATION_METRICS",
    "REGRESSION_METRICS",
    "MetricSet",
    "average_ranks",
    "compute_metrics",
    "metric_names",
]

PROB_CLIP = 1e-15
PROB_SUM_TOL = 1e-6
# stand-in for the -inf that R2 hits when SStot == 0 but SSres > 0
R2_SENTINEL = -1e30

CLASSIFICATION_METRICS = (
    "accuracy", "avg_recall", "avg_precision", "f1", "log_loss", "auc",
)
REGRESSION_METRICS = ("mae", "rmse", "r2")


def metric_names(task: TaskType) -> tuple[str, ...]:
    if task.is_classification:
        return CLASSIFICATION_METRICS
    return REGRESSION_METRICS


@dataclass(frozen=True)
class MetricSet:
    """Named metric values for one evaluation; the names identify the task."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    @property
    def is_classification(self) -> bool:
        return "accuracy" in self.values

    def primary(self) -> tuple[float, bool]:
        """The ranking metric value and whether higher is better."""
        if self.is_classification:
            return self.values["accuracy"], True
        return self.values["rmse"], False


def rankdata(values) -> np.ndarray:
    """Average ranks of the flattened values, 1 for the smallest, ties taking
    the mean of their ranks; every rank is nan if any value is. The same
    output as ``scipy.stats.rankdata``'s default, without the import of
    ``scipy.stats``, which would be most of ``import tabkit``."""
    values = np.ravel(values)
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    _, tie, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a run of n ties ends at rank `last`; its ranks average last - (n - 1) / 2
    last = np.cumsum(counts)
    return (last - (counts - 1) / 2)[tie]


def _binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Rank-statistic AUC; tied scores contribute half. 0.5 when one side
    of the labels is empty."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = rankdata(scores)
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _classification_metrics(pred: np.ndarray, probs: np.ndarray,
                            truth: np.ndarray) -> dict:
    n, n_classes = probs.shape
    accuracy = float(np.mean(pred == truth))

    recalls = np.zeros(n_classes)
    precisions = np.zeros(n_classes)
    f1s = np.zeros(n_classes)
    for c in range(n_classes):
        tp = float(np.sum((pred == c) & (truth == c)))
        actual = float(np.sum(truth == c))
        predicted = float(np.sum(pred == c))
        recalls[c] = tp / actual if actual > 0 else 0.0
        precisions[c] = tp / predicted if predicted > 0 else 0.0
        if precisions[c] + recalls[c] > 0:
            f1s[c] = 2 * precisions[c] * recalls[c] / (precisions[c] + recalls[c])

    clipped = np.clip(probs[np.arange(n), truth], PROB_CLIP, 1 - PROB_CLIP)
    log_loss = float(-np.mean(np.log(clipped)))

    if n_classes == 2:
        auc = _binary_auc(probs[:, 1], truth == 1)
    else:
        auc = float(np.mean(
            [_binary_auc(probs[:, c], truth == c) for c in range(n_classes)]
        ))

    return {
        "accuracy": accuracy,
        "avg_recall": float(recalls.mean()),
        "avg_precision": float(precisions.mean()),
        "f1": float(f1s.mean()),
        "log_loss": log_loss,
        "auc": auc,
    }


def _regression_metrics(pred: np.ndarray, truth: np.ndarray) -> dict:
    residual = pred - truth
    mae = float(np.mean(np.abs(residual)))
    rmse = float(np.sqrt(np.mean(residual ** 2)))
    ss_res = float(np.sum(residual ** 2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 0.0 if ss_res == 0.0 else R2_SENTINEL
    else:
        r2 = 1.0 - ss_res / ss_tot
    return {"mae": mae, "rmse": rmse, "r2": r2}


def compute_metrics(prediction: Prediction, truth, task: TaskType) -> MetricSet:
    """Score a prediction against the true labels.

    Raises MetricError when a probability row is non-finite or off by more
    than 1e-6 from summing to 1.
    """
    truth = np.asarray(truth)
    if len(prediction.values) != len(truth):
        raise ValueError(
            f"{len(prediction.values)} predictions for {len(truth)} labels"
        )
    if not task.is_classification:
        return MetricSet(_regression_metrics(prediction.values, truth))

    probs = prediction.probabilities
    if probs is None:
        raise ValueError("classification metrics need class probabilities")
    if not np.isfinite(probs).all():
        raise MetricError("probabilities contain non-finite values")
    sums = probs.sum(axis=1)
    bad = np.abs(sums - 1.0) > PROB_SUM_TOL
    if bad.any():
        row = int(np.argmax(bad))
        raise MetricError(
            f"probability row {row} sums to {sums[row]!r}, expected 1"
        )
    return MetricSet(
        _classification_metrics(prediction.values, probs, truth.astype(np.int64))
    )


def average_ranks(scores, higher_is_better: bool) -> np.ndarray:
    """Ranks with 1 = best and ties averaged, so they sum to m(m+1)/2."""
    scores = np.asarray(scores, dtype=np.float64)
    return rankdata(-scores if higher_is_better else scores)
