"""Tree-based methods: CART, random forest, and gradient-boosted trees.

All three fit greedy binary trees: splits on midpoint thresholds, Gini
impurity for classification and squared error for regression, ties broken
toward the lowest feature index then the lowest threshold.

One exact engine, :class:`_Grower`, grows a set of independent trees together:
CART's single tree, a forest's trees, or one boosting stage's per-class trees.

* Rank once. A fit ranks each feature's values once (:func:`_ranks`); every
  tree and every boosting stage shares those ranks.
* Partition in place. Each tree owns one row of sample ids, in sample order,
  and a node owns the slice ``[lo, hi)`` of it. A split stably moves the rows
  that go left to the front of the slice, so both children keep sample order
  with no copy.
* Sort in batches. The kernel sorts every (node, feature) line of a batch by
  the key rank x span + slot. The keys are unique, so numpy's fast unstable
  sort yields the stable order: tied values keep sample order, as in a
  per-node stable sort. A per-tree presorted buffer (features + 1 rows of
  ids) would skip these sorts, but then a lock-step group of trees holds
  trees x features x rows ids; with one row per tree a group's samples take
  at most ``_GROUP_TABLES`` times the training matrix's bytes, so memory
  follows the table, not the tree count.
* Lock-step growth. Each step grows one level of every tree of the group
  still growing, and their split gains come from a few vectorized kernel
  calls over nodes of similar size, padded at the end; one call never covers
  more than the root's work (sample size x features drawn per node). Each
  tree's nodes are numbered in the order grown: level by level, left to
  right.
* Feature subsets, for a forest that samples features, are drawn level by
  level from each tree's own generator: one call per tree and step draws a
  row of uniforms per node, in the level's left-to-right order, and a node
  takes the first k of its row's stable argsort. A tree's subsets do not
  depend on the trees it grows beside.
* Split gains come from :mod:`tabkit.splits`, shared with target-aware
  binning; classification gains build no (rows, features, classes) block.

Every floating-point operation that decides a split or a leaf value is the one
a per-node sort-and-scan performs, in the same order, so the fitted arrays do
not depend on how nodes are batched. Boosting updates its training scores
from the leaf each row reached while growing, where prediction sends it too.
"""

from __future__ import annotations

import math

import numpy as np

from ..splits import MIN_GAIN, gini_gains, target_scale, variance_gains
from .base import Method, Prediction, positive_int
from .classical import _softmax

# the samples of trees grown in lock-step take at most this many times the
# training matrix's bytes
_GROUP_TABLES = 2


class _Tree:
    """Flat-array decision tree; feature[i] == -1 marks a leaf."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def state(self) -> tuple:
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over the (start, length) pairs."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def _ranks(xt: np.ndarray) -> np.ndarray:
    """Each value's dense rank within its feature, for ``xt`` (features x
    rows): equal values share a rank, and nan takes the top rank, ``rows``,
    with the kernel's padding. The dtype holds every key rank x span + slot."""
    d, n = xt.shape
    ids = np.int32 if (n + 1) * n <= np.iinfo(np.int32).max else np.int64
    ranks = np.empty((d, n), dtype=ids)
    rises = np.zeros(n, dtype=bool)
    for j in range(d):
        order = np.argsort(xt[j])
        ordered = xt[j, order]
        np.greater(ordered[1:], ordered[:-1], out=rises[1:])
        ranks[j, order] = np.cumsum(rises)
    ranks[np.isnan(xt)] = n
    return ranks


class _Grower:
    """Grows one tree per sample, all on the same training matrix.

    ``xt`` is the training matrix transposed (features x rows) and ``ranks``
    its :func:`_ranks`; ``y`` holds one target row shared by every tree or
    one row per tree; ``samples`` is (trees, sample size), each tree's row
    ids in sample order, and is partitioned in place. With ``max_features``
    below the feature count, ``rngs`` (one generator per tree) draw each
    node's feature subset.
    """

    def __init__(self, xt, ranks, y, samples, *, classification, n_classes,
                 max_depth, min_leaf, max_features=None, rngs=None):
        # n: rows in each tree's sample; n_rows: rows of the training matrix
        n_trees, self.n = samples.shape
        self.d, self.n_rows = xt.shape
        self.xt = np.ascontiguousarray(xt).ravel()
        self.ranks = ranks.ravel()
        y = np.atleast_2d(y).astype(np.int32 if classification else np.float64)
        self.y = np.ascontiguousarray(y).ravel()
        # leaf values come from the raw targets, split gains from scaled ones
        self.scale = 1.0 if classification else target_scale(self.y)
        self.y_offset = (np.arange(n_trees) if len(y) > 1
                         else np.zeros(n_trees, dtype=np.intp)) * self.n_rows
        self.samples = samples
        self.flat = samples.reshape(-1)
        self.classification = classification
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.sample_features = max_features is not None and max_features < self.d
        self.k = max_features if self.sample_features else self.d
        self.rngs = rngs
        # no kernel call covers more (nodes x features x positions) than the
        # root's work, and no other per-step pass more rows
        self.block = self.n * max(self.k, 1)
        # node records in the order grown: tree, lo, size, split feature (-1
        # for a leaf); then threshold and value
        cap = 16 * n_trees
        self._nodes = np.empty((cap, 4), dtype=np.int32)
        self._threshold = np.empty(cap)
        self._value = np.empty((cap, n_classes if classification else 1))

    # ---- growth -----------------------------------------------------------
    def grow(self) -> list[_Tree]:
        n_trees = len(self.samples)
        # one level per step, one row per node in the first three record
        # columns, by tree and then left to right
        step = np.zeros((n_trees, 3), dtype=np.intp)
        step[:, 0] = np.arange(n_trees)
        step[:, 2] = self.n
        done = depth = 0
        while len(step):
            t, lo, size = step.T
            end = done + len(step)
            self._reserve(end)
            self._nodes[done:end, :3] = step
            self._value[done:end] = self._values(t, lo, size)
            feature, threshold = self._nodes[done:end, 3], self._threshold[done:end]
            feature[:], threshold[:] = -1, 0.0
            cand = np.flatnonzero((depth < self.max_depth)
                                  & (size >= 2 * self.min_leaf) & (self.d > 0))
            f, thr, n_left, ok = self._best_splits(t[cand], lo[cand], size[cand])
            s, n_left = cand[ok], n_left[ok]
            feature[s], threshold[s] = f[ok], thr[ok]
            self._partition(t[s], lo[s], size[s], n_left, f[ok], thr[ok])
            # each split's left child, then its right one
            step = np.repeat(step[s], 2, axis=0)
            step[0::2, 2] = n_left
            step[1::2, 1] += n_left
            step[1::2, 2] -= n_left
            done, depth = end, depth + 1
        return self._assemble(done)

    def _reserve(self, count: int):
        """Grow the record arrays, doubling, to hold ``count`` nodes."""
        if count <= len(self._nodes):
            return
        cap = max(count, 2 * len(self._nodes))
        for name in ("_nodes", "_threshold", "_value"):
            old = getattr(self, name)
            new = np.empty((cap, *old.shape[1:]), dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def _assemble(self, total: int) -> list[_Tree]:
        """Scatter the records into tree-major arrays, each tree's nodes in
        the order grown: level by level, left to right."""
        tree, lo, size, feature = self._nodes[:total].T
        leaf = feature < 0
        self._leaves = (tree[leaf], lo[leaf], size[leaf],
                        self._value[:total][leaf, 0])
        count = np.bincount(tree, minlength=len(self.samples))
        start = np.cumsum(count) - count
        order = np.argsort(tree, kind="stable")
        feat = feature[order].astype(np.int64)
        thr = self._threshold[order]
        val = self._value[order]
        del self._nodes, self._threshold, self._value, tree, lo, size, feature
        del leaf, order
        # children follow in their parents' order, so a tree's j-th split
        # node (from 0) has children 2j + 1 and 2j + 2
        split = feat >= 0
        j = np.cumsum(split)
        j -= np.repeat((j - split)[start], count)
        left = np.where(split, 2 * j - 1, -1)
        right = np.where(split, 2 * j, -1)
        del split, j
        return [
            _Tree(feat[a:b], thr[a:b], left[a:b], right[a:b], val[a:b])
            for a, b in zip(start.tolist(), (start + count).tolist())
        ]

    def row_values(self) -> np.ndarray:
        """(trees, rows): the value of the leaf each training row reached.
        Meant for trees grown on every row once (no bootstrap)."""
        tree, lo, size, value = self._leaves
        rows = np.take(self.flat, _ranges(tree * self.n + lo, size))
        out = np.empty((len(self.samples), self.n_rows))
        out[np.repeat(tree, size), rows] = np.repeat(value, size)
        return out

    # ---- per-step work ----------------------------------------------------
    def _batches(self, size) -> list[np.ndarray]:
        """Runs of consecutive nodes holding about ``block`` rows."""
        work = np.cumsum(size)
        cuts = np.flatnonzero(np.diff((work - size) // self.block)) + 1
        return np.split(np.arange(len(size)), cuts)

    def _values(self, t, lo, size) -> np.ndarray:
        """Leaf value of each node: class frequencies, or the mean target."""
        out = np.empty((len(t), self.n_classes if self.classification else 1))
        for at in self._batches(size):
            rows = np.take(self.flat, _ranges(t[at] * self.n + lo[at], size[at]))
            labels = np.take(self.y, np.repeat(self.y_offset[t[at]], size[at])
                             + rows)
            if self.classification:
                c = self.n_classes
                seg = np.repeat(np.arange(len(at)), size[at])
                counts = np.bincount(seg * c + labels, minlength=len(at) * c)
                counts = counts.reshape(len(at), c)
                out[at] = counts / counts.sum(axis=1, keepdims=True)
                continue
            # one pairwise sum per node, over its rows in sample order, so
            # each mean rounds as numpy's mean of that node's targets does
            ends = np.cumsum(size[at]).tolist()
            sums = [np.add.reduce(labels[a:b]) for a, b in zip([0, *ends], ends)]
            out[at, 0] = np.array(sums, dtype=np.float64) / size[at]
        return out

    def _best_splits(self, t, lo, size):
        """Best split of each node: feature, threshold, left row count, and
        whether the split is taken."""
        m = len(t)
        feature = np.empty(m, dtype=np.int64)
        threshold = np.empty(m)
        n_left = np.empty(m, dtype=np.intp)
        ok = np.zeros(m, dtype=bool)
        if not m:
            return feature, threshold, n_left, ok
        if self.sample_features:
            feats = self._subsets(t)
        else:
            feats = np.broadcast_to(np.arange(self.d), (m, self.d))
        # nodes of similar size share a kernel call, largest first
        order = np.argsort(-size, kind="stable")
        sizes = size[order].tolist()
        first = 0
        while first < m:
            width, stop, filled = sizes[first], first + 1, sizes[first]
            # padding stays below the real work and the block below the cap
            while (stop < m and (stop + 1 - first) * width * self.k <= self.block
                   and (stop + 1 - first) * width < 2 * (filled + sizes[stop])):
                filled += sizes[stop]
                stop += 1
            sel = order[first:stop]
            (feature[sel], threshold[sel], n_left[sel],
             ok[sel]) = self._kernel(t[sel], lo[sel], size[sel], feats[sel])
            first = stop
        return feature, threshold, n_left, ok

    def _subsets(self, t) -> np.ndarray:
        """Each node's feature subset, k distinct ids in ascending order. Per
        tree, one call draws a row of uniforms per node, in the step's order
        (``t`` is sorted), and a node takes the first k of its row's stable
        argsort; another tree's draws never change a tree's subsets."""
        counts = np.bincount(t, minlength=len(self.rngs)).tolist()
        return np.concatenate([
            np.sort(np.argsort(rng.random((count, self.d)), axis=1,
                               kind="stable")[:, :self.k], axis=1)
            for rng, count in zip(self.rngs, counts) if count])

    def _kernel(self, t, lo, size, feats):
        m, span = len(t), int(size.max())
        node, last = np.arange(m), size - 1
        slot = np.arange(span)
        # each node's rows in sample order; padded slots repeat its last row
        pad = slot > last[:, None]
        rows = np.take(self.flat, (t * self.n + lo)[:, None]
                       + np.minimum(slot, last[:, None]))
        # each (node, feature) line sorted by value rank, then by slot: ties
        # keep sample order, and as the keys are unique any sort is stable;
        # padded slots take the top rank, after every row
        keys = np.take(self.ranks, (feats * self.n_rows)[:, :, None]
                       + rows[:, None])
        np.copyto(keys, self.n_rows, where=pad[:, None])
        keys *= span
        keys += slot.astype(keys.dtype)
        keys.sort(axis=2)
        rank, order = np.divmod(keys, span)
        del keys
        # no split falls between equal values, or next to a nan or padding
        valid = rank[:, :, :-1] < rank[:, :, 1:]
        valid &= rank[:, :, 1:] < self.n_rows
        del rank
        if self.min_leaf > 1:
            at = np.arange(1, span)
            valid &= ((at >= self.min_leaf)
                      & (at <= size[:, None] - self.min_leaf))[:, None, :]
        ys = np.take(self.y, self.y_offset[t][:, None] + rows)
        ys = np.take(ys, (node * span)[:, None, None] + order)
        del order
        if self.scale != 1.0:
            ys *= self.scale
        n_left = np.arange(1, span, dtype=np.float64)
        # clipped past a node's end, where no position is valid anyway
        n_right = np.maximum(size[:, None] - n_left, 1.0)[:, None, :]
        gains = (gini_gains(ys, node, last, n_left, n_right, self.n_classes)
                 if self.classification
                 else variance_gains(ys, node, last, n_left, n_right))
        del ys
        np.copyto(gains, -np.inf, where=np.logical_not(valid, out=valid))
        del valid
        # feature-major argmax: ties resolve to the lowest feature index,
        # then the lowest threshold
        flat = gains.reshape(m, -1)
        best = flat.argmax(axis=1)
        gain = flat[node, best]
        f_local, pos = np.divmod(best, span - 1)
        feature = feats[node, f_local]
        # the chosen feature's values, sorted again, one row per node
        xs = np.take(self.xt, (feature * self.n_rows)[:, None] + rows)
        np.copyto(xs, np.nan, where=pad)
        xs.sort(axis=1)
        threshold = (xs[node, pos] + xs[node, pos + 1]) / 2.0
        # a midpoint can round onto a boundary value and leave a side empty
        n_left_rows = (xs < threshold[:, None]).sum(axis=1)
        ok = ~(gain <= MIN_GAIN) & (n_left_rows > 0) & (n_left_rows < size)
        return feature, threshold, n_left_rows, ok

    def _partition(self, t, lo, size, n_left, feature, threshold):
        """Stably move each split node's left rows to the front of its slice,
        so both children keep their rows in sample order."""
        for at in self._batches(size):
            start, length, n_l = t[at] * self.n + lo[at], size[at], n_left[at]
            rows = np.take(self.flat, _ranges(start, length))
            goes_left = (
                np.take(self.xt, np.repeat(feature[at] * self.n_rows, length)
                        + rows)
                < np.repeat(threshold[at], length))
            self.flat[_ranges(start, n_l)] = rows[goes_left]
            self.flat[_ranges(start + n_l, length - n_l)] = rows[~goes_left]


def _row_ids(n: int) -> np.dtype:
    """The smallest dtype that holds the row ids of an ``n``-row table."""
    return np.min_scalar_type(max(n - 1, 0))


def _groups(items, n: int, d: int) -> list:
    """``items``, one per tree, in lock-step groups whose samples (``n`` row
    ids per tree) take at most ``_GROUP_TABLES`` times the bytes of the
    training matrix (``n`` x ``d`` floats), so a fit's memory follows the
    table, not its tree count."""
    size = max(1, _GROUP_TABLES * 8 * d // _row_ids(n).itemsize)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _samples(n: int, count: int, rngs=None) -> np.ndarray:
    """(count, n) row ids in sample order: a bootstrap sample drawn from each
    of ``rngs``, or else every row."""
    ids = _row_ids(n)
    if rngs is None:
        return np.tile(np.arange(n, dtype=ids), (count, 1))
    out = np.empty((count, n), dtype=ids)
    for row, rng in zip(out, rngs):
        row[:] = rng.integers(0, n, size=n)
    return out


class CARTMethod(Method):
    """Single greedy decision tree."""

    def _check_config(self):
        cfg = self.config.model
        self._max_depth = positive_int(cfg, "max_depth", 16)
        self._min_leaf = positive_int(cfg, "min_samples_leaf", 1)

    def _fit(self, x_train, y_train, x_val, y_val):
        xt = np.ascontiguousarray(x_train.T)
        self._tree = _Grower(
            xt, _ranks(xt), y_train, _samples(len(y_train), 1),
            classification=not self.is_regression, n_classes=self.class_count,
            max_depth=self._max_depth, min_leaf=self._min_leaf,
        ).grow()[0]

    def _predict(self, x) -> Prediction:
        values = self._tree.predict_values(x)
        if self.is_regression:
            return Prediction.regression(values[:, 0])
        return self._classify(values)

    def _state(self):
        return self._tree.state()

    def model_size(self) -> int:
        return self._tree.n_nodes


class RandomForestMethod(Method):
    """Bagged trees with per-split feature subsampling; vote-fraction probs."""

    def _check_config(self):
        cfg = self.config.model
        self._n_trees = positive_int(cfg, "n_trees", 100)
        self._max_depth = positive_int(cfg, "max_depth", 16)
        self._min_leaf = positive_int(cfg, "min_samples_leaf", 1)
        if cfg.get("max_features") is not None:
            positive_int(cfg, "max_features", 1)

    def _fit(self, x_train, y_train, x_val, y_val):
        cfg = self.config.model
        d = x_train.shape[1]
        max_features = cfg.get("max_features")
        if max_features is None:
            max_features = (
                max(1, math.ceil(d / 3.0))
                if self.is_regression
                else max(1, math.ceil(math.sqrt(d)))
            )
        bootstrap = bool(cfg.get("bootstrap", True))
        xt = np.ascontiguousarray(x_train.T)
        ranks = _ranks(xt)
        rngs = [np.random.default_rng([self.config.seed, t])
                for t in range(self._n_trees)]
        self._trees = []
        for group in _groups(rngs, *x_train.shape):
            self._trees += _Grower(
                xt, ranks, y_train,
                _samples(len(y_train), len(group), group if bootstrap else None),
                classification=not self.is_regression,
                n_classes=self.class_count, max_depth=self._max_depth,
                min_leaf=self._min_leaf, max_features=int(max_features),
                rngs=group,
            ).grow()

    def _predict(self, x) -> Prediction:
        if self.is_regression:
            total = np.zeros(x.shape[0])
            for tree in self._trees:
                total += tree.predict_values(x)[:, 0]
            return Prediction.regression(total / len(self._trees))
        votes = np.zeros((x.shape[0], self.class_count))
        for tree in self._trees:
            winner = np.argmax(tree.predict_values(x), axis=1)
            votes[np.arange(x.shape[0]), winner] += 1.0
        return self._classify(votes / len(self._trees))

    def _state(self):
        return tuple(t.state() for t in self._trees)

    def model_size(self) -> int:
        return sum(tree.n_nodes for tree in self._trees)


class GBDTMethod(Method):
    """Stagewise regression trees on loss gradients with shrinkage.

    Regression boosts mean squared error from the training mean; classification
    boosts per-class softmax cross-entropy from the log class priors. A stage's
    per-class trees are independent (the stage's probabilities are fixed), so
    they grow together, and the training scores are updated from the leaf
    each row reached while growing.
    """

    def _check_config(self):
        cfg = self.config.model
        self._n_trees = positive_int(cfg, "n_trees", 100)
        self._max_depth = positive_int(cfg, "max_depth", 3)
        self._min_leaf = positive_int(cfg, "min_samples_leaf", 1)
        self._lr = float(cfg.get("learning_rate", 0.1))

    def _fit(self, x_train, y_train, x_val, y_val):
        n, d = x_train.shape
        xt = np.ascontiguousarray(x_train.T)
        ranks = _ranks(xt)

        def grow_stage(residuals):
            trees, values = [], []
            for group in _groups(residuals, n, d):
                grower = _Grower(
                    xt, ranks, group, _samples(n, len(group)),
                    classification=False, n_classes=0,
                    max_depth=self._max_depth, min_leaf=self._min_leaf,
                )
                trees += grower.grow()
                values.append(grower.row_values())
            return trees, np.concatenate(values)

        # regression is the one-column case of the per-class residuals
        if self.is_regression:
            self._init = np.array([float(y_train.mean())])
            target = y_train[:, None]
        else:
            priors = np.bincount(y_train, minlength=self.class_count) / n
            self._init = np.log(np.clip(priors, 1e-15, None))
            target = np.zeros((n, self.class_count))
            target[np.arange(n), y_train] = 1.0
        scores = np.tile(self._init, (n, 1))
        self._trees = []
        for _ in range(self._n_trees):
            residuals = target - (scores if self.is_regression else _softmax(scores))
            stage, values = grow_stage(residuals.T)
            self._trees.append(stage)
            scores += self._lr * values.T

    def _raw_scores(self, x) -> np.ndarray:
        scores = np.tile(self._init, (x.shape[0], 1))
        for stage in self._trees:
            for c, tree in enumerate(stage):
                scores[:, c] += self._lr * tree.predict_values(x)[:, 0]
        return scores

    def _predict(self, x) -> Prediction:
        scores = self._raw_scores(x)
        if self.is_regression:
            return Prediction.regression(scores[:, 0])
        return self._classify(_softmax(scores))

    def _state(self):
        trees = tuple(tuple(t.state() for t in stage) for stage in self._trees)
        return (self._init, self._lr, trees)

    def model_size(self) -> int:
        return sum(tree.n_nodes for stage in self._trees for tree in stage)
