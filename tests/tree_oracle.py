"""Reference tree grower: the recursive, re-sorting-per-node growth that the
batched engine in ``tabkit.methods.tree`` replaced, plus the forest and
boosting loops around it.

Each node re-sorts its rows per feature and evaluates every split with a dense
gain array, so it is slow but plainly correct. The equivalence tests require
the engine's fitted state to be byte-identical to what these functions build.
"""

from __future__ import annotations

import math

import numpy as np

from tabkit.methods.classical import _softmax


def _split_gains(x_sorted, y_sorted, classification, n_classes):
    """Gain of every (position, feature) split of the sorted node data."""
    n, f = x_sorted.shape
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    if classification:
        counts = np.zeros((n, f, n_classes))
        cols = np.arange(f)
        counts[np.arange(n)[:, None], cols, y_sorted.astype(np.int64)] = 1.0
        left = np.cumsum(counts, axis=0)[:-1]
        total = left[-1] + counts[-1]
        right = total - left
        child = (
            n_left - (left ** 2).sum(axis=2) / n_left
            + n_right - (right ** 2).sum(axis=2) / n_right
        )
        parent = n - float((total[0] ** 2).sum()) / n
    else:
        csum = np.cumsum(y_sorted, axis=0)[:-1]
        csum2 = np.cumsum(y_sorted ** 2, axis=0)[:-1]
        total = csum[-1] + y_sorted[-1]
        total2 = csum2[-1] + y_sorted[-1] ** 2
        child = (
            csum2 - csum ** 2 / n_left
            + (total2 - csum2) - (total - csum) ** 2 / n_right
        )
        parent = float(total2[0]) - float(total[0]) ** 2 / n
    return parent - child


def _leaf_value(y, classification, n_classes):
    if classification:
        counts = np.bincount(y.astype(np.int64), minlength=n_classes)
        return counts / counts.sum()
    return np.array([y.mean()])


class OracleTree:
    """Flat-array decision tree; feature[i] == -1 marks a leaf."""

    def __init__(self):
        self.feature: list = []
        self.threshold: list = []
        self.left: list = []
        self.right: list = []
        self.value: list = []

    def add_node(self, value) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def finalize(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.stack(self.value)
        return self

    def state(self):
        return (self.feature, self.threshold, self.left, self.right, self.value)

    def predict_values(self, x: np.ndarray) -> np.ndarray:
        node = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            internal = self.feature[node] >= 0
            if not internal.any():
                break
            active = np.flatnonzero(internal)
            at = node[active]
            goes_left = x[active, self.feature[at]] < self.threshold[at]
            node[active] = np.where(goes_left, self.left[at], self.right[at])
        return self.value[node]


def build_tree(x, y, *, classification, n_classes, max_depth, min_leaf,
               max_features=None, rng=None) -> OracleTree:
    tree = OracleTree()
    d = x.shape[1]

    def grow(rows: np.ndarray, depth: int) -> int:
        node = tree.add_node(_leaf_value(y[rows], classification, n_classes))
        n = len(rows)
        if depth >= max_depth or n < 2 * min_leaf or d == 0:
            return node
        if max_features is not None and max_features < d:
            feats = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            feats = np.arange(d)
        xs = x[np.ix_(rows, feats)]
        order = np.argsort(xs, axis=0, kind="stable")
        x_sorted = np.take_along_axis(xs, order, axis=0)
        y_sorted = y[rows][order]
        gains = _split_gains(x_sorted, y_sorted, classification, n_classes)
        positions = np.arange(1, n)[:, None]
        valid = (
            (x_sorted[:-1] < x_sorted[1:])
            & (positions >= min_leaf)
            & (n - positions >= min_leaf)
        )
        gains = np.where(valid, gains, -np.inf)
        # feature-major argmax: ties resolve to the lowest feature index,
        # then the lowest threshold
        flat = np.ascontiguousarray(gains.T).ravel()
        best = int(np.argmax(flat))
        if flat[best] <= 1e-12:
            return node
        f_local, pos = divmod(best, n - 1)
        feature = int(feats[f_local])
        threshold = float(
            (x_sorted[pos, f_local] + x_sorted[pos + 1, f_local]) / 2.0
        )
        left_mask = x[rows, feature] < threshold
        if not left_mask.any() or left_mask.all():
            return node  # midpoint rounded onto a boundary value
        tree.feature[node] = feature
        tree.threshold[node] = threshold
        tree.left[node] = grow(rows[left_mask], depth + 1)
        tree.right[node] = grow(rows[~left_mask], depth + 1)
        return node

    grow(np.arange(x.shape[0]), 0)
    return tree.finalize()


def cart_state(x, y, *, regression, n_classes, model):
    tree = build_tree(
        x, y.astype(np.float64) if regression else y,
        classification=not regression, n_classes=n_classes,
        max_depth=int(model.get("max_depth", 16)),
        min_leaf=int(model.get("min_samples_leaf", 1)),
    )
    return tree.state()


def forest_state(x, y, *, regression, n_classes, model, seed):
    n_trees = int(model.get("n_trees", 100))
    d = x.shape[1]
    max_features = model.get("max_features")
    if max_features is None:
        max_features = (max(1, math.ceil(d / 3.0)) if regression
                        else max(1, math.ceil(math.sqrt(d))))
    bootstrap = bool(model.get("bootstrap", True))
    y = y.astype(np.float64) if regression else y
    n = len(y)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(build_tree(
            x[rows], y[rows], classification=not regression,
            n_classes=n_classes,
            max_depth=int(model.get("max_depth", 16)),
            min_leaf=int(model.get("min_samples_leaf", 1)),
            max_features=int(max_features), rng=rng,
        ))
    return tuple(t.state() for t in trees)


def boosting_state(x, y, *, regression, n_classes, model):
    n_trees = int(model.get("n_trees", 100))
    lr = float(model.get("learning_rate", 0.1))
    max_depth = int(model.get("max_depth", 3))
    min_leaf = int(model.get("min_samples_leaf", 1))

    def fit_stage_tree(residual):
        return build_tree(x, residual, classification=False, n_classes=0,
                          max_depth=max_depth, min_leaf=min_leaf)

    stages = []
    if regression:
        init = np.array([float(y.mean())])
        scores = np.full(len(y), init[0])
        for _ in range(n_trees):
            tree = fit_stage_tree(y - scores)
            stages.append([tree])
            scores += lr * tree.predict_values(x)[:, 0]
    else:
        priors = np.bincount(y, minlength=n_classes) / len(y)
        init = np.log(np.clip(priors, 1e-15, None))
        onehot = np.zeros((len(y), n_classes))
        onehot[np.arange(len(y)), y] = 1.0
        scores = np.tile(init, (len(y), 1))
        for _ in range(n_trees):
            probs = _softmax(scores)
            stage = []
            for c in range(n_classes):
                tree = fit_stage_tree(onehot[:, c] - probs[:, c])
                stage.append(tree)
                scores[:, c] += lr * tree.predict_values(x)[:, 0]
            stages.append(stage)
    trees = tuple(tuple(t.state() for t in stage) for stage in stages)
    return (init, lr, trees)
