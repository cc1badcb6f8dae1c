"""Multilayer perceptron trained by hand-derived backpropagation.

Architecture: input -> [linear -> ReLU -> dropout] per hidden width -> linear.
Optimization: mini-batch adaptive moments (bias-corrected first/second moment
accumulators) with decoupled multiplicative weight decay on weight matrices
only, early stopping on the validation metric, best weights restored.

``MLPMethod`` trains and predicts in float32, as Talent's PyTorch models do, so
``fitted_state()`` holds float32 parameters. Inputs are clipped to the float32
range, and a test row whose logits still overflow is scored again in float64.
The softmax, the validation score and ``Prediction`` stay float64.
"""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError
from .base import Method, Prediction, bounded_float, positive_int, validation_score
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


def _float32(x: np.ndarray) -> np.ndarray:
    """``x`` as float32, clipped first so that no finite cell becomes inf."""
    bound = np.finfo(np.float32).max
    return np.clip(x, -bound, bound, out=np.empty(x.shape, np.float32))


class MLPNetwork:
    """Parameters plus pure-numpy forward and backward passes.

    ``weights`` and ``biases`` hold one array per layer, of ``dtype``. Kept
    separate from the Method wrapper so gradients can be probed directly.
    """

    def __init__(
        self,
        d_in: int,
        d_layers: list[int],
        d_out: int,
        dropout: float,
        classification: bool,
        rng: np.random.Generator,
        dtype=np.float64,
    ):
        self.dropout = bounded_float({"dropout": dropout}, "dropout", 0.0, below=1.0)
        self.classification = classification
        self.dtype = np.dtype(dtype)
        dims = [d_in, *[int(w) for w in d_layers], d_out]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in) if fan_in else 1.0
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b = rng.uniform(-bound, bound, size=fan_out)
            self.weights.append(w.astype(self.dtype, copy=False))
            self.biases.append(b.astype(self.dtype, copy=False))

    @property
    def n_hidden(self) -> int:
        return len(self.weights) - 1

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def _forward(self, x, rng: np.random.Generator | None = None, keep=True):
        """Each layer's input, each hidden layer's pre-activation and dropout
        mask (None when dropout is off), and the output scores. Passing
        ``rng`` enables inverted dropout on the hidden activations; with
        ``keep`` false the pass holds only the current activation."""
        inputs, pre_relu, masks = [], [], []
        scale = self.dtype.type(1.0 / (1.0 - self.dropout))
        for i in range(self.n_hidden):
            z = x @ self.weights[i] + self.biases[i]
            out = np.maximum(z, 0.0)
            mask = None
            if rng is not None and self.dropout > 0.0:
                mask = (rng.random(out.shape, dtype=self.dtype) >= self.dropout) * scale
                out = out * mask
            if keep:
                inputs.append(x)
                pre_relu.append(z)
                masks.append(mask)
            x = out
        inputs.append(x)
        return inputs, pre_relu, masks, x @ self.weights[-1] + self.biases[-1]

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Evaluation-mode forward pass (dropout off)."""
        return self._forward(x, keep=False)[-1]

    def loss_and_gradients(self, x, y, rng: np.random.Generator | None = None):
        """Mean loss on the batch and gradients for every weight and bias.

        Cross-entropy against integer labels for classification, mean squared
        error against real targets for regression. Passing ``rng`` enables
        inverted dropout on the hidden activations.
        """
        n = x.shape[0]
        inputs, pre_relu, masks, scores = self._forward(x, rng)

        if self.classification:
            scores = scores.astype(np.float64, copy=False)
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
        # one float64 operand would carry the rest of backprop into float64
        d_scores = d_scores.astype(self.dtype, copy=False)

        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        grad_w[-1] = inputs[-1].T @ d_scores
        grad_b[-1] = d_scores.sum(axis=0)
        upstream = d_scores @ self.weights[-1].T
        for i in range(self.n_hidden - 1, -1, -1):
            if masks[i] is not None:
                upstream = upstream * masks[i]
            d_z = upstream * (pre_relu[i] > 0.0)
            grad_w[i] = inputs[i].T @ d_z
            grad_b[i] = d_z.sum(axis=0)
            if i:
                upstream = d_z @ self.weights[i].T
        return loss, grad_w, grad_b


class MLPMethod(Method):
    """Reference neural baseline over the encoded feature matrix."""

    is_deep = True

    def _check_config(self):
        model_cfg, train_cfg = self.config.model, self.config.training
        self._d_layers = [positive_int({"d_layers": width}, "d_layers", 0)
                          for width in model_cfg.get("d_layers", DEFAULT_D_LAYERS)]
        self._dropout = bounded_float(model_cfg, "dropout", DEFAULT_DROPOUT, below=1.0)
        self._lr = bounded_float(train_cfg, "lr", DEFAULT_LR, positive=True)
        self._weight_decay = bounded_float(train_cfg, "weight_decay", DEFAULT_WEIGHT_DECAY)
        self._patience = positive_int(train_cfg, "patience", DEFAULT_PATIENCE)
        self._max_epoch = positive_int(train_cfg, "max_epoch", DEFAULT_MAX_EPOCH)
        self._batch_size = positive_int(train_cfg, "batch_size", DEFAULT_BATCH_SIZE)

    def _fit(self, x_train, y_train, x_val, y_val):
        rng = np.random.default_rng(self.config.seed)
        x_train, x_val = _float32(x_train), _float32(x_val)

        if self.is_regression:
            # learn on standardized targets; predictions are mapped back. The
            # largest |target| is at least 1/2, so the floor is relative
            self._y_mean = float(y_train.mean())
            self._y_std = float(y_train.std())
            if self._y_std < 1e-12:
                self._y_std = 1.0
            y_fit = ((y_train - self._y_mean) / self._y_std).astype(np.float32)
            d_out = 1
        else:
            y_fit = y_train
            d_out = self.class_count
        net = MLPNetwork(
            x_train.shape[1], self._d_layers, d_out, self._dropout,
            classification=not self.is_regression, rng=rng, dtype=np.float32,
        )

        # if there are no validation rows, early-stop on the training metric
        score_x, score_y = (x_val, y_val) if len(y_val) else (x_train, y_train)

        params = net.weights + net.biases
        n_weights = len(net.weights)
        moment1 = [np.zeros_like(p) for p in params]
        moment2 = [np.zeros_like(p) for p in params]
        step = 0
        decay = 1.0 - self._lr * self._weight_decay

        best_score = -np.inf
        best_params = None
        epochs_since_best = 0
        n = len(y_fit)
        for epoch in range(self._max_epoch):
            order = rng.permutation(n)
            for start in range(0, n, self._batch_size):
                batch = order[start:start + self._batch_size]
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
                # a gradient past about 1.8e19 squares to inf in float32; the
                # moments are checked once an epoch, as an inf one stays inf
                with np.errstate(over="ignore"):
                    for i, (p, grad, m1, m2) in enumerate(
                            zip(params, grad_w + grad_b, moment1, moment2)):
                        m1 *= BETA1  # in place, in the textbook update's order
                        m1 += (1 - BETA1) * grad
                        m2 *= BETA2
                        m2 += (1 - BETA2) * grad ** 2
                        p -= self._lr * (m1 / correction1) / (
                            np.sqrt(m2 / correction2) + ADAM_EPS
                        )
                        if i < n_weights:
                            p *= decay  # decoupled decay, weights only
            if not all(np.isfinite(m2).all() for m2 in moment2):
                raise DivergenceError(
                    f"non-finite Adam moment at epoch {epoch}", epoch=epoch)
            scores = net.logits(score_x).astype(np.float64)
            score = validation_score(
                scores[:, 0] * self._y_std + self._y_mean if self.is_regression
                else np.argmax(scores, axis=1), score_y, not self.is_regression)
            if score > best_score:
                best_score = score
                best_params = [p.copy() for p in params]
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= self._patience:
                    break
        if best_params is not None:
            for p, best in zip(params, best_params):
                p[...] = best
        self._net = net
        # higher-is-better: accuracy, or negated RMSE in the targets' own unit
        self.validation_score = float(np.ldexp(best_score, self._unit))

    def _predict(self, x) -> Prediction:
        x = _float32(x)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = self._net.logits(x).astype(np.float64)
        # a row that overflows float32 is scored again in float64
        overflow = ~np.isfinite(scores).all(axis=1)
        scores[overflow] = self._net.logits(x[overflow].astype(np.float64))
        if self.is_regression:
            return Prediction.regression(scores[:, 0] * self._y_std + self._y_mean)
        return self._classify(_softmax(scores))

    def _state(self):
        extra = (self._y_mean, self._y_std) if self.is_regression else ()
        return (tuple(self._net.weights), tuple(self._net.biases), *extra)

    def model_size(self) -> int:
        return self._net.parameter_count()
