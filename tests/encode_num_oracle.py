"""Reference target-aware binning: the per-leaf impurity scan that
``tabkit.encode_num.compute_target_bins`` replaced.

Every leaf keeps copies of its sorted values and targets and scores its splits
with its own prefix aggregates (pairwise totals, a one-hot count block per
leaf), and the next leaf to split is found by a linear scan. It is slow but
plainly correct.

The two versions add the same terms in different orders, so where two
candidates have equal exact gain, rounding alone picks one, and it may pick
differently in each. :func:`target_bins` therefore also reports whether any
choice it made was such a near tie: a runner-up split within ``_TIE`` of the
node's impurity of the best one, or a leaf within that of the leaf it split.
The equivalence test requires byte-identical edges wherever no choice was.
"""

from __future__ import annotations

import numpy as np

from tabkit.encode_num import (
    DEFAULT_N_BINS,
    BinEdges,
    _degenerate_edges,
    compute_quantile_bins,
)


def _node_impurity_parts(ys: np.ndarray, classification: bool):
    """Prefix aggregates for impurity of every left/right split of sorted ys."""
    n = len(ys)
    if classification:
        classes, codes = np.unique(ys, return_inverse=True)
        onehot = np.zeros((n, len(classes)))
        onehot[np.arange(n), codes] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[:-1]
        total = left_counts[-1] + onehot[-1]
        right_counts = total - left_counts
        n_left = np.arange(1, n)
        n_right = n - n_left
        # weighted Gini: n_node - sum(count^2)/n_node
        left = n_left - (left_counts ** 2).sum(axis=1) / n_left
        right = n_right - (right_counts ** 2).sum(axis=1) / n_right
        parent = n - float((total ** 2).sum()) / n
    else:
        csum = np.cumsum(ys)[:-1]
        csum2 = np.cumsum(ys ** 2)[:-1]
        total, total2 = float(np.sum(ys)), float(np.sum(ys ** 2))
        n_left = np.arange(1, n)
        n_right = n - n_left
        # weighted squared error: sum(y^2) - sum(y)^2/n
        left = csum2 - csum ** 2 / n_left
        right = (total2 - csum2) - (total - csum) ** 2 / n_right
        parent = total2 - total ** 2 / n
    return parent, left + right


# gains closer than this, relative to the node's impurity, count as tied
_TIE = 1e-9


class _TreeLeaf:
    __slots__ = ("xs", "ys", "gain", "threshold", "split_at", "scale",
                 "near_tie")

    def __init__(self, xs, ys, min_leaf, classification):
        self.xs = xs
        self.ys = ys
        self.gain = 0.0
        self.threshold = None
        self.split_at = None
        self.scale = 0.0
        self.near_tie = False
        n = len(xs)
        if n < 2 * min_leaf:
            return
        parent, children = _node_impurity_parts(ys, classification)
        gains = parent - children
        positions = np.arange(1, n)
        valid = (
            (xs[:-1] < xs[1:])
            & (positions >= min_leaf)
            & (n - positions >= min_leaf)
        )
        if not valid.any():
            return
        gains = np.where(valid, gains, -np.inf)
        best = int(np.argmax(gains))  # ties keep the lowest threshold
        if gains[best] <= 1e-12:
            return
        self.gain = float(gains[best])
        self.split_at = best + 1
        self.threshold = float((xs[best] + xs[best + 1]) / 2.0)
        self.scale = _TIE * abs(float(parent))
        runner_up = np.delete(gains, best).max(initial=-np.inf)
        self.near_tie = bool(runner_up >= self.gain - self.scale)

    def split(self, min_leaf, classification):
        at = self.split_at
        left = _TreeLeaf(self.xs[:at], self.ys[:at], min_leaf, classification)
        right = _TreeLeaf(self.xs[at:], self.ys[at:], min_leaf, classification)
        return left, right


def target_bins(train_col, targets, task, n_bins=DEFAULT_N_BINS):
    """(edges, near_tie): the edges ``tabkit.encode_num.compute_target_bins``
    must reproduce, and whether rounding decided any choice on the way."""
    targets = np.asarray(targets)
    if len(targets) == 0 or np.all(targets == targets[0]):
        return compute_quantile_bins(train_col, n_bins), False

    lo, hi = float(np.min(train_col)), float(np.max(train_col))
    if lo == hi:
        return _degenerate_edges(lo, "target"), False

    classification = task.is_classification
    min_leaf = max(1, len(train_col) // (4 * n_bins))
    order = np.argsort(train_col, kind="stable")
    leaves = [_TreeLeaf(train_col[order], targets[order], min_leaf, classification)]
    thresholds: list[float] = []
    near_tie = False
    while len(leaves) < n_bins:
        best = max(range(len(leaves)), key=lambda i: leaves[i].gain)
        if leaves[best].gain <= 0.0:
            break
        leaf = leaves.pop(best)
        near_tie |= leaf.near_tie or any(
            other.gain > 0.0
            and other.gain >= leaf.gain - max(leaf.scale, other.scale)
            for other in leaves)
        thresholds.append(leaf.threshold)
        leaves.extend(leaf.split(min_leaf, classification))

    edges = np.unique(np.array([lo, *thresholds, hi]))
    if len(edges) < 2:
        return _degenerate_edges(lo, "target"), near_tie
    return BinEdges(edges, "target"), near_tie
