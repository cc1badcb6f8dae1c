"""Classical methods: dummy, nearest-neighbor, centroid, Bayes, and linear models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import TaskType
from ..errors import ConfigError, FitError
from ..pipeline import _array_digest
from .base import Method, Prediction

CLASSIFICATION_TASKS = (TaskType.BINCLASS, TaskType.MULTICLASS)

# full-batch gradient descent settings shared by the linear classifiers
_GD_LR = 0.1
_GD_MAX_ITER = 1000
_GD_GRAD_TOL = 1e-6


def _softmax(logits: np.ndarray) -> np.ndarray:
    top = logits.max(axis=1, keepdims=True)
    # a finite logit far below the max falls to -inf, whose exp is 0
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - top
    # an infinite row max turns inf - inf into nan; there the logits equal to
    # the max share the mass (an all -inf row becomes uniform)
    infinite = np.isinf(top[:, 0])
    if infinite.any():
        shifted[infinite] = np.where(logits[infinite] == top[infinite], 0.0,
                                     shifted[infinite])
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _affine(x: np.ndarray, weights: np.ndarray, bias) -> np.ndarray:
    """``x @ weights + bias``. A row with a value that overflows (inf, or nan
    from cancelling infs) is scored again scaled by the power of two that
    brings its largest cell below 1, and the result saturates at ±float64
    max; every other row runs exactly the plain product."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = x @ weights + bias
        overflowed = ~np.isfinite(values)
        if values.ndim == 2:
            overflowed = overflowed.any(axis=1)
        if overflowed.any():
            rows = x[overflowed]
            scale = np.ldexp(1.0, -np.frexp(np.abs(rows).max(axis=1))[1])
            per_row = scale if values.ndim == 1 else scale[:, None]
            scaled = (rows * scale[:, None]) @ weights + bias * per_row
            limit = np.finfo(np.float64).max * per_row
            values[overflowed] = np.clip(scaled, -limit, limit) / per_row
    return values


class DummyMethod(Method):
    """Constant baseline: majority class with empirical frequencies, or the
    training-mean label."""

    def _fit(self, x_train, y_train, x_val, y_val):
        if self.is_regression:
            self._mean = float(y_train.mean())
        else:
            counts = np.bincount(y_train, minlength=self.class_count)
            self._probs = counts / counts.sum()

    def _predict(self, x) -> Prediction:
        n = x.shape[0]
        if self.is_regression:
            return Prediction.regression(np.full(n, self._mean))
        return self._classify(np.tile(self._probs, (n, 1)))

    def _state(self):
        return (self._mean,) if self.is_regression else (self._probs,)

    def model_size(self) -> int:
        return 1 if self.is_regression else self.class_count


# knn screening (see KNNMethod): c in the rounding bound c (d + 2) u (|a|^2 +
# |b|^2), four times the worst case, and the fewest query rows per block
_SCREEN_C = 16
_MIN_BLOCK_ROWS = 32
# the most floats a rescore chunk gathers (512 KiB, so its (features x pairs)
# block can stay in a core's cache); a chunk never outgrows the training matrix
_RESCORE_FLOATS = 1 << 16


def _nearest(x, train, k, block_rows):
    """Indices of each query row's k nearest training rows, exactly as a
    stable argsort of the full squared-distance matrix orders them."""
    d = x.shape[1]
    fi = np.finfo(np.result_type(x, train))
    limit = fi.max / 8  # norms up to this keep every distance finite
    norms = np.einsum("ij,ij->i", train, train)
    wide = ~(norms <= limit)
    norm_max = norms[~wide].max(initial=0.0)
    chunk = max(1, min(len(train), _RESCORE_FLOATS // max(d, 1)))
    # the screen product and its partitioned copy, held for the whole search
    product = np.empty((min(block_rows, x.shape[0]), len(train)), dtype=fi.dtype)
    partitioned = np.empty_like(product)

    def block_nearest(block):
        query_norms = np.einsum("ij,ij->i", block, block)
        # screen: squared distance less the row constant ||a||^2
        approx = np.matmul(block, train.T, out=product[:len(block)])
        approx *= -2.0
        approx += norms
        approx[:, wide] = np.inf
        kth = partitioned[:len(block)]
        np.copyto(kth, approx)
        kth.partition(k - 1, axis=1)
        kth = kth[:, k - 1]
        bound = (_SCREEN_C * (d + 2) * fi.eps / 2) * (query_norms + norm_max)
        bound += (d + 2) * fi.tiny
        candidate = approx <= (kth + 2.0 * bound)[:, None]
        candidate[:, wide] = True
        candidate[~(query_norms <= limit - norm_max)] = True
        rows, cols = np.nonzero(candidate)
        del candidate
        # rescore: the exact sum, in column order, over chunks of pairs
        # gathered as C-contiguous (features x pairs) blocks whose rows are
        # added one by one (a reduce over each pair's contiguous features
        # would add them pairwise, and round differently)
        exact = np.zeros(len(rows))
        for start in range(0, len(rows), chunk):
            squares = (block.take(rows[start:start + chunk], axis=0)
                       - train.take(cols[start:start + chunk], axis=0))
            squares *= squares
            squares = squares.T.copy()
            total = exact[start:start + chunk]
            for j in range(d):
                total += squares[j]
        # select: nan sorts last, ties go to the lowest index
        order = np.lexsort((cols, exact, rows))
        first = np.zeros(len(block), dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=len(block))[:-1], out=first[1:])
        return cols[order[first[:, None] + np.arange(k)]]

    out = np.empty((x.shape[0], k), dtype=np.intp)
    with np.errstate(all="ignore"):
        for start in range(0, x.shape[0], block_rows):
            block = x[start:start + block_rows]
            out[start:start + len(block)] = block_nearest(block)
    return out


@dataclass(eq=False)
class _Search:
    """One memoized search: the digest of its query and training matrices,
    and the read-only (queries × k) indices of the largest k searched."""

    key: bytes
    index: np.ndarray


# the most recent search of any knn in the process; the key holds both
# matrices, so callers need not pass or reset it
_memo: _Search | None = None


def _memo_nearest(x, train, k, block_rows):
    """``_nearest``, served from the memo when the matrices match and no more
    than the memoized k is asked for: the k nearest by (distance, index) are
    the first k columns of any larger search. A miss drops the held entry,
    then searches."""
    global _memo
    key = _array_digest(x) + _array_digest(train)
    if _memo is None or _memo.key != key or _memo.index.shape[1] < k:
        _memo = None
        index = _nearest(x, train, k, block_rows)
        index.flags.writeable = False
        _memo = _Search(key, index)
    return _memo.index[:, :k]


class KNNMethod(Method):
    """k-nearest neighbors in the encoded feature space (euclidean).

    The neighbors are exact: a query's k training rows of least squared
    distance, summed feature by feature in column order, with ties (and nan
    distances, which come last) going to the lowest training index. Query
    rows are taken in blocks of ``max(features, 32)`` rows, so each block's
    (block × training rows) arrays stay within about the training matrix's
    bytes. A block is handled in three steps:

    - **Screen.** One matrix product gives ``‖b‖² − 2 a·b``, the squared
      distance less the query's constant ``‖a‖²``. Plus ``‖a‖²``, it differs
      from the exact sum by less than ``4 (d + 2) u (‖a‖² + ‖b‖²)`` plus
      ``d + 2`` times the smallest normal float, for u the unit roundoff and
      the product summed in any order. A query row's bound δ is four times the first term, with
      the largest training norm for ``‖b‖²``, plus the second; the margin
      covers the rounding of δ itself. The k-th smallest screened value plus
      δ bounds the k-th exact distance from above. Every training row whose
      screened value minus δ does not pass that point is a candidate.
    - **Rescore.** Only candidate pairs get an exact distance, summed with
      the same operations in the same order as a full distance matrix, over
      chunks gathered as (features × pairs) blocks.
    - **Select.** One lexsort by (row, distance, index) picks the first k.

    The product only filters, so the result does not depend on the BLAS build
    or its summation order. Rows whose norms could overflow a distance (±inf,
    nan, values near 1e154 and beyond) cannot be screened: such query rows
    take every training row as a candidate, and such training rows are a
    candidate for every query.

    The most recent search is memoized, keyed by the digests of the query
    and training matrices (``pipeline._array_digest``, computed once per
    array object, so neither may be modified in place after a predict), with
    the read-only indices of the largest k searched on them. A predict with
    no larger k takes their first k columns, which are exactly its own
    neighbors; so tuning trials that change only ``n_neighbors``, and seeds
    that predict the same rows, search once. Any other predict drops the
    entry first.
    """

    def _check_config(self):
        self._k = int(self.config.model.get("n_neighbors", 5))
        if self._k < 1:
            raise ConfigError(f"n_neighbors must be >= 1, got {self._k}")

    def _fit(self, x_train, y_train, x_val, y_val):
        if self._k > len(x_train):
            raise ConfigError(
                f"n_neighbors = {self._k} exceeds the {len(x_train)} training rows"
            )
        self._x = x_train
        self._y = y_train

    def _neighbors(self, x) -> np.ndarray:
        return _memo_nearest(x, self._x, self._k,
                             max(x.shape[1], _MIN_BLOCK_ROWS))

    def _predict(self, x) -> Prediction:
        idx = self._neighbors(x)
        if self.is_regression:
            return Prediction.regression(self._y[idx].mean(axis=1))
        votes = np.zeros((x.shape[0], self.class_count))
        for c in range(self.class_count):
            votes[:, c] = (self._y[idx] == c).sum(axis=1)
        return self._classify(votes / self._k)

    def _state(self):
        return (self._k, self._x, self._y)

    def model_size(self) -> int:
        return self._x.size


class NCMMethod(Method):
    """Nearest class mean; probabilities are a softmax over negated distances."""

    task_types = CLASSIFICATION_TASKS

    def _fit(self, x_train, y_train, x_val, y_val):
        centroids = np.zeros((self.class_count, x_train.shape[1]))
        for c in range(self.class_count):
            members = x_train[y_train == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        self._centroids = centroids

    def _predict(self, x) -> Prediction:
        # one class at a time, in one (rows x features) temporary; a cell far
        # from a centroid squares to inf, a distance the softmax takes
        squares = np.empty(x.shape)
        dist = np.empty((x.shape[0], self.class_count))
        with np.errstate(over="ignore"):
            for c, centroid in enumerate(self._centroids):
                np.subtract(x, centroid, out=squares)
                np.square(squares, out=squares)
                dist[:, c] = squares.sum(axis=1)
        del squares
        return self._classify(_softmax(-np.sqrt(dist)))

    def _state(self):
        return (self._centroids,)

    def model_size(self) -> int:
        return self._centroids.size


class NaiveBayesMethod(Method):
    """Gaussian naive Bayes with a variance floor, scored in the log domain."""

    task_types = CLASSIFICATION_TASKS
    VAR_FLOOR = 1e-9

    def _fit(self, x_train, y_train, x_val, y_val):
        n, d = x_train.shape
        self._means = np.zeros((self.class_count, d))
        self._vars = np.full((self.class_count, d), self.VAR_FLOOR)
        priors = np.zeros(self.class_count)
        for c in range(self.class_count):
            members = x_train[y_train == c]
            priors[c] = len(members) / n
            if len(members):
                self._means[c] = members.mean(axis=0)
                self._vars[c] = np.maximum(members.var(axis=0), self.VAR_FLOOR)
        self._log_priors = np.log(np.clip(priors, 1e-300, None))

    def _predict(self, x) -> Prediction:
        # one class at a time, in one (rows x features) temporary; a cell far
        # from a class mean gives a -inf log-likelihood, which the softmax takes
        log_joint = np.empty((x.shape[0], self.class_count))
        terms = np.empty(x.shape)
        with np.errstate(over="ignore"):
            for c in range(self.class_count):
                np.subtract(x, self._means[c], out=terms)
                np.square(terms, out=terms)
                terms /= self._vars[c]
                terms += np.log(2.0 * np.pi * self._vars[c])
                log_joint[:, c] = self._log_priors[c] + -0.5 * terms.sum(axis=1)
        del terms
        return self._classify(_softmax(log_joint))

    def _state(self):
        return (self._means, self._vars, self._log_priors)

    def model_size(self) -> int:
        return self._means.size + self._vars.size + self._log_priors.size


# The ridge Gram's cost, in multiply-adds of the dense product X'X (n·d² of
# them): built from in-row nonzero pairs, it scans the n·d cells for nonzeros
# and adds (nonzeros + 1)² products a row, the bias included. On one BLAS
# thread, fitted on 6,000-row one-hot tables of 1,603 and 1,600 columns, a
# multiply-add of the product took 17–25 ps, a cell of the scan 3.2–3.4 ns
# (about 135 multiply-adds) and a pair 10.8–11.1 ns (about 450); rounded up:
_CELL_COST = 150
_PAIR_COST = 500
# in-row pairs formed at once; each takes 16 bytes while it is added
_CHUNK_PAIRS = 1 << 17


def _pair_counts(x: np.ndarray):
    """Each row's nonzero count when building the ridge Gram of ``x`` from
    in-row nonzero pairs costs less than the dense product, else None."""
    n, d = x.shape
    if _PAIR_COST + _CELL_COST * d >= d * d:  # one pair a row, the bias's
        return None
    nnz = np.count_nonzero(x != 0, axis=1)  # faster than on the floats
    pairs = float(np.square(nnz + 1.0).sum())
    return nnz if _PAIR_COST * pairs + _CELL_COST * n * d < n * d * d else None


def _ridge_system(x: np.ndarray, y: np.ndarray, nnz=None):
    """The normal equations of ``x`` with a bias column of ones, last: the
    (d + 1)² Gram and its right-hand side. With ``nnz``, each row's nonzero
    count, they are summed from the products of every in-row pair of
    nonzeros; otherwise ``X'X`` and ``X'y`` are dense products, the bias row
    and column of the Gram are the column sums, its corner is the row count
    and the last entry of the right-hand side the target sum. A system that
    is not finite raises ``FitError``."""
    n, d = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if nnz is not None:
            gram, rhs = _pair_system(x, y, nnz)
        else:
            gram = np.empty((d + 1, d + 1))
            rhs = np.empty(d + 1)
            np.matmul(x.T, x, out=gram[:d, :d])
            rhs[:d] = x.T @ y
            gram[d, :d] = gram[:d, d] = x.sum(axis=0)
            gram[d, d] = n
            rhs[d] = y.sum()
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise FitError("ridge system is not finite")
    return gram, rhs


def _pair_system(x, y, nnz):
    n, d = x.shape
    size = d + 1
    gram = np.zeros(size * size)
    rhs = np.zeros(size)
    # slot j of a row holds its j-th nonzero, then the bias (column d, value
    # 1), then padding (column d, value 0, whose products add nothing)
    width = int(nnz.max()) + 1
    slot = np.arange(width)
    step = max(1, _CHUNK_PAIRS // width ** 2)
    for lo in range(0, n, step):
        rows, counts = x[lo:lo + step], nnz[lo:lo + step]
        real = slot < counts[:, None]
        r, c = np.divmod(np.flatnonzero(rows != 0), d)
        cols = np.full(real.shape, d)
        cols[real] = c
        vals = np.zeros(real.shape)
        vals[real] = rows[r, c]
        vals[np.arange(len(rows)), counts] = 1.0
        # np.add.at adds in input order, so chunks sum each entry row by row,
        # as one pass over every pair would
        np.add.at(gram, (cols[:, :, None] * size + cols[:, None, :]).ravel(),
                  (vals[:, :, None] * vals[:, None, :]).ravel())
        np.add.at(rhs, cols.ravel(), (vals * y[lo:lo + step, None]).ravel())
    return gram.reshape(size, size), rhs


class LinearRegressionMethod(Method):
    """Ridge regression via the normal equations; the bias is unpenalized.

    The (d + 1) × (d + 1) system comes from the training matrix itself, with
    no design matrix (:func:`_ridge_system`). It is summed from each row's
    in-row nonzero pairs when that costs less than the dense product: the
    rule weighs a scan of the n·d cells plus ``_PAIR_COST`` per pair,
    (nonzeros + 1)² a row, against n·d² multiply-adds. So one-hot tables skip
    their zeros and other tables take ``X'X`` and ``X'y`` as dense products.
    A system that is not finite, or whose solution is not, fails the fit.
    """

    task_types = (TaskType.REGRESSION,)
    L2 = 1e-6

    def _fit(self, x_train, y_train, x_val, y_val):
        d = x_train.shape[1]
        gram, rhs = _ridge_system(x_train, y_train, _pair_counts(x_train))
        gram[np.diag_indices(d)] += self.L2  # the bias, last, is unpenalized
        try:
            beta = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"ridge system is singular: {exc}") from None
        if not np.isfinite(beta).all():
            raise FitError("ridge solution is not finite")
        self._weights = beta[:-1]
        self._bias = float(beta[-1])

    def _predict(self, x) -> Prediction:
        return Prediction.regression(_affine(x, self._weights, self._bias))

    def _state(self):
        return (self._weights, self._bias)

    def model_size(self) -> int:
        return self._weights.size + 1


class _GradientDescentClassifier(Method):
    """Shared full-batch gradient descent loop over (weights, bias)."""

    task_types = CLASSIFICATION_TASKS
    DEFAULT_L2 = 1e-4

    def _check_config(self):
        self._l2 = float(self.config.model.get("l2", self.DEFAULT_L2))
        if self._l2 < 0:
            raise ConfigError(f"l2 must be >= 0, got {self._l2}")

    def _fit(self, x_train, y_train, x_val, y_val):
        l2 = self._l2
        d = x_train.shape[1]
        weights = np.zeros((d, self.class_count))
        bias = np.zeros(self.class_count)
        onehot = np.zeros((len(y_train), self.class_count))
        onehot[np.arange(len(y_train)), y_train] = 1.0
        # a fixed step diverges once the loss curvature exceeds its inverse,
        # which wide encodings can trigger; shrink to match a curvature bound
        curvature = self._curvature_bound(x_train, l2)
        step = min(_GD_LR, 1.0 / curvature) if curvature > 0 else _GD_LR
        if not step > 0:  # 1 / inf: the iterations would change nothing
            raise FitError(f"loss curvature bound is {curvature}: gradient "
                           "descent cannot take a step")
        for _ in range(_GD_MAX_ITER):
            grad_w, grad_b = self._gradients(x_train, onehot, weights, bias, l2)
            norm = np.sqrt((grad_w ** 2).sum() + (grad_b ** 2).sum())
            if norm < _GD_GRAD_TOL:
                break
            weights -= step * grad_w
            bias -= step * grad_b
        self._weights = weights
        self._bias = bias

    def _predict(self, x) -> Prediction:
        return self._classify(_softmax(_affine(x, self._weights, self._bias)))

    def _state(self):
        return (self._weights, self._bias)

    def model_size(self) -> int:
        return self._weights.size + self._bias.size


class LogisticRegressionMethod(_GradientDescentClassifier):
    """Multinomial logistic regression, cross-entropy with L2 on weights."""

    def _curvature_bound(self, x, l2):
        # softmax Hessian norm <= ||design||^2 / (2n); trace bounds the norm
        n = x.shape[0]
        return ((x * x).sum() + n) / (2.0 * n) + l2

    def _gradients(self, x, onehot, weights, bias, l2):
        n = x.shape[0]
        probs = _softmax(x @ weights + bias)
        residual = (probs - onehot) / n
        return x.T @ residual + l2 * weights, residual.sum(axis=0)


class LinearSVMMethod(_GradientDescentClassifier):
    """Linear one-vs-rest SVM with the squared hinge loss; probabilities are
    a softmax over the margins."""

    DEFAULT_L2 = 1e-3

    def _curvature_bound(self, x, l2):
        # squared hinge Hessian norm <= 2 ||design||^2 / n
        n = x.shape[0]
        return 2.0 * ((x * x).sum() + n) / n + 2.0 * l2

    def _gradients(self, x, onehot, weights, bias, l2):
        n = x.shape[0]
        signs = 2.0 * onehot - 1.0
        margins = x @ weights + bias
        slack = np.maximum(0.0, 1.0 - signs * margins)
        coeff = -2.0 * signs * slack / n
        return x.T @ coeff + 2.0 * l2 * weights, coeff.sum(axis=0)
