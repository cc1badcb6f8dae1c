"""Multilayer perceptron trained by hand-derived backpropagation.

Architecture: input -> [linear -> ReLU -> dropout] per hidden width -> linear.
Optimization: mini-batch adaptive moments (bias-corrected first/second moment
accumulators) with decoupled multiplicative weight decay on weight matrices
only, early stopping on the validation metric, best weights restored.
"""

from __future__ import annotations

import numpy as np

from ..data import TaskType
from ..errors import ConfigError, DivergenceError
from .base import Method, Prediction, validation_score
from .classical import _softmax

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

DEFAULT_D_LAYERS = [384, 384]
DEFAULT_DROPOUT = 0.1
DEFAULT_LR = 3e-4
DEFAULT_WEIGHT_DECAY = 1e-5
DEFAULT_MAX_EPOCH = 200
DEFAULT_BATCH_SIZE = 256
DEFAULT_PATIENCE = 20


def _check_dropout(dropout: float):
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {dropout}")


class MLPNetwork:
    """Parameters plus pure-numpy forward and backward passes.

    ``params`` alternates weight matrices and bias vectors layer by layer.
    Kept separate from the Method wrapper so gradients can be probed directly.
    """

    def __init__(
        self,
        d_in: int,
        d_layers: list[int],
        d_out: int,
        dropout: float,
        classification: bool,
        rng: np.random.Generator,
    ):
        _check_dropout(dropout)
        self.dropout = dropout
        self.classification = classification
        dims = [d_in, *[int(w) for w in d_layers], d_out]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in) if fan_in else 1.0
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def n_hidden(self) -> int:
        return len(self.weights) - 1

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Evaluation-mode forward pass (dropout off)."""
        for i in range(self.n_hidden):
            x = np.maximum(x @ self.weights[i] + self.biases[i], 0.0)
        return x @ self.weights[-1] + self.biases[-1]

    def loss_and_gradients(self, x, y, rng: np.random.Generator | None = None):
        """Mean loss on the batch and gradients for every weight and bias.

        Cross-entropy against integer labels for classification, mean squared
        error against real targets for regression. Passing ``rng`` enables
        inverted dropout on the hidden activations.
        """
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
                mask = (rng.random(out.shape) >= self.dropout) / (1.0 - self.dropout)
                out = out * mask
                masks.append(mask)
            else:
                masks.append(None)
            activations.append(out)
        scores = out @ self.weights[-1] + self.biases[-1]

        if self.classification:
            shifted = scores - scores.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(shifted).sum(axis=1))
            loss = float(np.mean(log_norm - shifted[np.arange(n), y]))
            d_scores = _softmax(scores)
            d_scores[np.arange(n), y] -= 1.0
            d_scores /= n
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


class MLPMethod(Method):
    """Reference neural baseline over the encoded feature matrix."""

    is_deep = True

    def _check_config(self):
        _check_dropout(float(self.config.model.get("dropout", DEFAULT_DROPOUT)))

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

        if self.is_regression:
            # learn on standardized targets; predictions are mapped back
            self._y_mean = float(y_train.mean())
            self._y_std = float(y_train.std())
            if self._y_std < 1e-12:
                self._y_std = 1.0
            y_fit = (y_train - self._y_mean) / self._y_std
            d_out = 1
        else:
            y_fit = y_train
            d_out = self.class_count
        net = MLPNetwork(
            x_train.shape[1], d_layers, d_out, dropout,
            classification=not self.is_regression, rng=rng,
        )

        # if there are no validation rows, early-stop on the training metric
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
                    net.weights[i] *= decay  # decoupled decay, weights only
                    moment1_b[i] = BETA1 * moment1_b[i] + (1 - BETA1) * grad_b[i]
                    moment2_b[i] = BETA2 * moment2_b[i] + (1 - BETA2) * grad_b[i] ** 2
                    net.biases[i] -= lr * (moment1_b[i] / correction1) / (
                        np.sqrt(moment2_b[i] / correction2) + ADAM_EPS
                    )
            scores = net.logits(score_x)
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
        # higher-is-better: accuracy, or negated RMSE for regression
        self.validation_score = best_score

    def _predict(self, x) -> Prediction:
        scores = self._net.logits(x)
        if self.is_regression:
            return Prediction.regression(scores[:, 0] * self._y_std + self._y_mean)
        return self._classify(_softmax(scores))

    def _state(self):
        extra = (self._y_mean, self._y_std) if self.is_regression else ()
        return (tuple(self._net.weights), tuple(self._net.biases), *extra)

    def model_size(self) -> int:
        return self._net.parameter_count()
