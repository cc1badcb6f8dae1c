"""Classical methods: dummy, nearest-neighbor, centroid, Bayes, and linear models."""

from __future__ import annotations

import numpy as np

from ..data import TaskType
from ..errors import ConfigError, FitError
from ..pipeline import _Memo, _array_digest, _read_only
from .base import Method, Prediction, bounded_float, positive_int

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


def _class_frequencies(y: np.ndarray, class_count: int) -> np.ndarray:
    """Each class's share of the integer labels ``y``."""
    return np.bincount(y, minlength=class_count) / len(y)


class DummyMethod(Method):
    """Constant baseline: majority class with empirical frequencies, or the
    training-mean label."""

    reads_seed = False
    reads_val = False

    def _fit(self, x_train, y_train, x_val, y_val):
        if self.is_regression:
            self._mean = float(y_train.mean())
        else:
            self._probs = _class_frequencies(y_train, self.class_count)

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


# the most recent search of any knn in the process; the key holds both
# matrices, so callers need not pass or reset it
_memo = _Memo()


def _memo_nearest(x, train, k, block_rows):
    """``_nearest``, served from the memo when the matrices match and no more
    than the memoized k is asked for: the k nearest by (distance, index) are
    the first k columns of any larger search. A miss drops the held entry,
    then searches."""
    index = _memo.get(_array_digest(x) + _array_digest(train),
                      lambda: _read_only(_nearest(x, train, k, block_rows)),
                      lambda index: index.shape[1] >= k)
    return index[:, :k]


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

    The most recent search is memoized (``pipeline._Memo``), keyed by the
    digests of the query and training matrices (``pipeline._array_digest``,
    computed once per array object, so neither may be modified in place after
    a predict), with the read-only indices of the largest k searched on them.
    A predict with no larger k takes their first k columns, which are exactly
    its own neighbors; so tuning trials that change only ``n_neighbors`` search
    once. Any other predict drops the entry first.
    """

    reads_seed = False
    reads_val = False

    def _check_config(self):
        self._k = positive_int(self.config.model, "n_neighbors", 5)

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


# the most floats a row block of NCM or naive Bayes holds (1 MiB): each class
# is scored, and summed for the fit, one block of rows at a time
_BLOCK_FLOATS = 1 << 17


def _block_rows(n: int, d: int) -> int:
    """Rows in a block of ``n`` rows of ``d`` columns: at most
    ``_BLOCK_FLOATS // d``, but all ``n`` for fewer than two columns, which
    numpy sums pairwise down a column rather than row after row."""
    return max(1, _BLOCK_FLOATS // d if d > 1 else n)


def _class_sums(x: np.ndarray, y: np.ndarray, class_count: int,
                centers: np.ndarray | None = None) -> tuple:
    """Each class's row count, and the sum over its rows of ``x`` (or of
    ``(x - centers[c])²`` for class c), as numpy's axis-0 sum of the class's
    rows gives it: added row after row from 0.0, so a block's rows are summed
    behind the sum of the blocks before it. No class's rows are copied whole."""
    n, d = x.shape
    step = _block_rows(n, d)
    counts = np.bincount(y, minlength=class_count)
    sums = np.zeros((class_count, d))
    seen = np.zeros(class_count, dtype=bool)
    # the running sum, then one class's rows of a block, which are no more
    # than the block's or the class's
    buffer = np.empty((min(step, counts.max(initial=0)) + 1, d))
    for start in range(0, n, step):
        block, labels = x[start:start + step], y[start:start + step]
        for c in range(class_count):
            members = np.flatnonzero(labels == c)
            if not len(members):
                continue
            lead = int(seen[c])
            end = lead + len(members)
            rows = buffer[lead:end]
            # "clip" takes straight into ``rows``; "raise" would take into a
            # temporary first (the indices are in range either way)
            np.take(block, members, axis=0, out=rows, mode="clip")
            if centers is not None:
                np.subtract(rows, centers[c], out=rows)
                np.square(rows, out=rows)
            if lead:
                buffer[0] = sums[c]
            np.add.reduce(buffer[:end], axis=0, out=sums[c])
            seen[c] = True
    return counts, sums


def _class_means(x: np.ndarray, y: np.ndarray, class_count: int) -> tuple:
    """Each class's row count and mean row, zeros for a class with no rows."""
    counts, sums = _class_sums(x, y, class_count)
    present = counts > 0
    sums[present] /= counts[present, None]
    return counts, sums


def _class_scores(x: np.ndarray, centers: np.ndarray, score) -> np.ndarray:
    """The (rows x classes) scores of ``x``, one row block at a time: column
    c of a block is ``score(c, squares)``, for ``squares`` the block's squared
    differences from ``centers[c]`` in one block-sized temporary, which
    ``score`` may overwrite."""
    n, d = x.shape
    step = _block_rows(n, d)
    scores = np.empty((n, len(centers)))
    squares = np.empty((min(step, n), d))
    for start in range(0, n, step):
        block = x[start:start + step]
        temp = squares[:len(block)]
        for c, center in enumerate(centers):
            np.subtract(block, center, out=temp)
            np.square(temp, out=temp)
            scores[start:start + step, c] = score(c, temp)
    return scores


class NCMMethod(Method):
    """Nearest class mean; probabilities are a softmax over negated distances."""

    task_types = CLASSIFICATION_TASKS
    reads_seed = False
    reads_val = False

    def _fit(self, x_train, y_train, x_val, y_val):
        self._centroids = _class_means(x_train, y_train, self.class_count)[1]

    def _predict(self, x) -> Prediction:
        # a cell far from a centroid squares to inf, a distance the softmax
        # takes
        with np.errstate(over="ignore"):
            dist = _class_scores(x, self._centroids,
                                 lambda c, squares: squares.sum(axis=1))
        return self._classify(_softmax(-np.sqrt(dist)))

    def _state(self):
        return (self._centroids,)

    def model_size(self) -> int:
        return self._centroids.size


class NaiveBayesMethod(Method):
    """Gaussian naive Bayes with a variance floor, scored in the log domain."""

    task_types = CLASSIFICATION_TASKS
    reads_seed = False
    reads_val = False
    VAR_FLOOR = 1e-9

    def _fit(self, x_train, y_train, x_val, y_val):
        classes = self.class_count
        counts, self._means = _class_means(x_train, y_train, classes)
        squares = _class_sums(x_train, y_train, classes, self._means)[1]
        present = counts > 0
        self._vars = np.full_like(self._means, self.VAR_FLOOR)
        self._vars[present] = np.maximum(
            squares[present] / counts[present, None], self.VAR_FLOOR)
        priors = _class_frequencies(y_train, self.class_count)
        self._log_priors = np.log(np.clip(priors, 1e-300, None))

    def _predict(self, x) -> Prediction:
        # a cell far from a class mean gives a -inf log-likelihood, which the
        # softmax takes
        log_norms = [np.log(2.0 * np.pi * var) for var in self._vars]

        def log_joint(c, squares):
            squares /= self._vars[c]
            squares += log_norms[c]
            return self._log_priors[c] + -0.5 * squares.sum(axis=1)

        with np.errstate(over="ignore"):
            return self._classify(_softmax(
                _class_scores(x, self._means, log_joint)))

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
    reads_seed = False
    reads_val = False
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
    reads_seed = False
    reads_val = False
    DEFAULT_L2 = 1e-4

    def _check_config(self):
        self._l2 = bounded_float(self.config.model, "l2", self.DEFAULT_L2)

    def _fit(self, x_train, y_train, x_val, y_val):
        l2 = self._l2
        d = x_train.shape[1]
        weights = np.zeros((d, self.class_count))
        bias = np.zeros(self.class_count)
        onehot = np.eye(self.class_count)[y_train]
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
