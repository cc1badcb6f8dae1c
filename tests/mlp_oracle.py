"""Reference MLP training: the separate evaluation and training passes and the
per-layer Adam loop, with weights and biases updated side by side and every
moment rebuilt out of place, that the single forward pass and single in-place
parameter loop in ``tabkit.methods.mlp`` replaced.

:class:`OracleMLPMethod` fits exactly as ``MLPMethod`` does, at the same
dtypes: float32 inputs clipped to the float32 range, float32 parameters,
targets and dropout draws, and logits upcast to float64 before the softmax,
the validation score and the de-standardisation; a predicted row whose
float32 logits overflow is scored again in float64. The equivalence tests
require the same fitted state, predictions and validation score, bit for bit.
"""

from __future__ import annotations

import numpy as np

from tabkit.errors import DivergenceError
from tabkit.methods.base import Prediction, validation_score
from tabkit.methods.classical import _softmax
from tabkit.methods.mlp import (
    ADAM_EPS,
    BETA1,
    BETA2,
    DEFAULT_BATCH_SIZE,
    DEFAULT_D_LAYERS,
    DEFAULT_DROPOUT,
    DEFAULT_LR,
    DEFAULT_MAX_EPOCH,
    DEFAULT_PATIENCE,
    DEFAULT_WEIGHT_DECAY,
    MLPMethod,
    MLPNetwork,
)

FLOAT32_MAX = np.finfo(np.float32).max


def to_float32(x):
    return np.clip(x, -FLOAT32_MAX, FLOAT32_MAX).astype(np.float32)


class OracleNetwork(MLPNetwork):
    """The same parameters, with one pass for evaluation and one for
    training."""

    def logits(self, x: np.ndarray) -> np.ndarray:
        for i in range(self.n_hidden):
            x = np.maximum(x @ self.weights[i] + self.biases[i], 0.0)
        return x @ self.weights[-1] + self.biases[-1]

    def loss_and_gradients(self, x, y, rng: np.random.Generator | None = None):
        n = x.shape[0]
        activations = [x]
        pre_relu = []
        masks = []
        out = x
        for i in range(self.n_hidden):
            z = out @ self.weights[i] + self.biases[i]
            pre_relu.append(z)
            out = np.maximum(z, 0.0)
            if rng is not None and self.dropout > 0.0:
                keep = rng.random(out.shape, dtype=self.dtype) >= self.dropout
                mask = keep * self.dtype.type(1.0 / (1.0 - self.dropout))
                out = out * mask
                masks.append(mask)
            else:
                masks.append(None)
            activations.append(out)
        scores = out @ self.weights[-1] + self.biases[-1]

        if self.classification:
            wide = scores.astype(np.float64)
            shifted = wide - wide.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(shifted).sum(axis=1))
            loss = float(np.mean(log_norm - shifted[np.arange(n), y]))
            d_scores = _softmax(wide)
            d_scores[np.arange(n), y] -= 1.0
            d_scores = (d_scores / n).astype(self.dtype)
        else:
            residual = scores[:, 0] - y
            loss = float(np.mean(residual ** 2))
            d_scores = (2.0 * residual / n)[:, None]

        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        grad_w[-1] = activations[-1].T @ d_scores
        grad_b[-1] = d_scores.sum(axis=0)
        upstream = d_scores @ self.weights[-1].T
        for i in range(self.n_hidden - 1, -1, -1):
            if masks[i] is not None:
                upstream = upstream * masks[i]
            d_z = upstream * (pre_relu[i] > 0.0)
            grad_w[i] = activations[i].T @ d_z
            grad_b[i] = d_z.sum(axis=0)
            if i:
                upstream = d_z @ self.weights[i].T
        return loss, grad_w, grad_b


class OracleMLPMethod(MLPMethod):
    """``MLPMethod`` with the reference network and training loop."""

    def _fit(self, x_train, y_train, x_val, y_val):
        model_cfg = self.config.model
        train_cfg = self.config.training
        d_layers = list(model_cfg.get("d_layers", DEFAULT_D_LAYERS))
        dropout = float(model_cfg.get("dropout", DEFAULT_DROPOUT))
        lr = float(train_cfg.get("lr", DEFAULT_LR))
        weight_decay = float(train_cfg.get("weight_decay", DEFAULT_WEIGHT_DECAY))
        max_epoch = int(train_cfg.get("max_epoch", DEFAULT_MAX_EPOCH))
        batch_size = int(train_cfg.get("batch_size", DEFAULT_BATCH_SIZE))
        patience = int(train_cfg.get("patience", DEFAULT_PATIENCE))
        rng = np.random.default_rng(self.config.seed)
        x_train, x_val = to_float32(x_train), to_float32(x_val)

        if self.is_regression:
            self._y_mean = float(y_train.mean())
            self._y_std = float(y_train.std())
            if self._y_std < 1e-12:
                self._y_std = 1.0
            y_fit = ((y_train - self._y_mean) / self._y_std).astype(np.float32)
            d_out = 1
        else:
            y_fit = y_train
            d_out = self.class_count
        net = OracleNetwork(
            x_train.shape[1], d_layers, d_out, dropout,
            classification=not self.is_regression, rng=rng, dtype=np.float32,
        )

        score_x, score_y = (x_val, y_val) if len(y_val) else (x_train, y_train)

        moment1_w = [np.zeros_like(w) for w in net.weights]
        moment2_w = [np.zeros_like(w) for w in net.weights]
        moment1_b = [np.zeros_like(b) for b in net.biases]
        moment2_b = [np.zeros_like(b) for b in net.biases]
        step = 0
        decay = 1.0 - lr * weight_decay

        best_score = -np.inf
        best_params = None
        epochs_since_best = 0
        n = len(y_fit)
        for epoch in range(max_epoch):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                batch = order[start:start + batch_size]
                loss, grad_w, grad_b = net.loss_and_gradients(
                    x_train[batch], y_fit[batch], rng=rng
                )
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite training loss at epoch {epoch}", epoch=epoch
                    )
                step += 1
                correction1 = 1.0 - BETA1 ** step
                correction2 = 1.0 - BETA2 ** step
                for i in range(len(net.weights)):
                    moment1_w[i] = BETA1 * moment1_w[i] + (1 - BETA1) * grad_w[i]
                    moment2_w[i] = BETA2 * moment2_w[i] + (1 - BETA2) * grad_w[i] ** 2
                    net.weights[i] -= lr * (moment1_w[i] / correction1) / (
                        np.sqrt(moment2_w[i] / correction2) + ADAM_EPS
                    )
                    net.weights[i] *= decay
                    moment1_b[i] = BETA1 * moment1_b[i] + (1 - BETA1) * grad_b[i]
                    moment2_b[i] = BETA2 * moment2_b[i] + (1 - BETA2) * grad_b[i] ** 2
                    net.biases[i] -= lr * (moment1_b[i] / correction1) / (
                        np.sqrt(moment2_b[i] / correction2) + ADAM_EPS
                    )
            scores = net.logits(score_x).astype(np.float64)
            score = validation_score(
                scores[:, 0] * self._y_std + self._y_mean if self.is_regression
                else np.argmax(scores, axis=1), score_y, not self.is_regression)
            if score > best_score:
                best_score = score
                best_params = (
                    [w.copy() for w in net.weights],
                    [b.copy() for b in net.biases],
                )
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= patience:
                    break
        if best_params is not None:
            net.weights, net.biases = best_params
        self._net = net
        self.validation_score = best_score

    def _predict(self, x) -> Prediction:
        x = to_float32(x)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = self._net.logits(x).astype(np.float64)
        rows = np.flatnonzero(~np.isfinite(scores).all(axis=1))
        scores[rows] = self._net.logits(x[rows].astype(np.float64))
        if self.is_regression:
            return Prediction.regression(scores[:, 0] * self._y_std + self._y_mean)
        return self._classify(_softmax(scores))
