"""Numerical-feature encodings: two binning schemes crossed with four codecs.

Bins come either from empirical quantiles or from the split thresholds of a
single-feature decision tree grown against the labels. A fitted feature is
then rendered as a bin index, a thermometer (unary) code, a Johnson
shift-register code, or a piecewise-linear vector.

The tree grows on the column sorted once: each leaf is a slice of that order,
and a heap keyed by (-gain, push order) splits the best leaf next. A leaf
scores its splits with the tree methods' gains (:mod:`tabkit.splits`) on a
one-line view of its slice. Equal computed gains go to the lowest threshold,
but two splits of equal exact gain (mostly with integer class labels) can
round to different floats, and then rounding picks one.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .data import TaskType
from .encode_cat import _side_by_side
from .errors import EncodeError, ShapeError
from .splits import MIN_GAIN, gini_gains, target_scale, variance_gains

DEFAULT_N_BINS = 48

NUM_POLICIES = (
    "none",
    "Q_bins", "T_bins",
    "Q_Unary", "T_Unary",
    "Q_Johnson", "T_Johnson",
    "Q_PLE", "T_PLE",
)

_CODEC_BY_SUFFIX = {
    "bins": "bin_index",
    "Unary": "unary",
    "Johnson": "johnson",
    "PLE": "ple",
}


def parse_num_policy(token: str) -> tuple[str, str] | None:
    """Map a policy token to (binning scheme, codec); ``none`` maps to None."""
    if token == "none":
        return None
    if token not in NUM_POLICIES:
        raise ValueError(f"unknown num_policy {token!r}")
    prefix, suffix = token.split("_", 1)
    scheme = "quantile" if prefix == "Q" else "target"
    return scheme, _CODEC_BY_SUFFIX[suffix]


@dataclass(frozen=True)
class BinEdges:
    """Strictly increasing boundaries b_0 < ... < b_B covering the train range."""

    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("need at least two boundaries")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1


def _degenerate_edges(value: float) -> BinEdges:
    return BinEdges(np.array([value - 0.5, value + 0.5]))


def compute_quantile_bins(train_col: np.ndarray, n_bins: int = DEFAULT_N_BINS) -> BinEdges:
    """Edges at the empirical quantiles k/n_bins; duplicate edges collapse."""
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    edges = np.unique(np.quantile(train_col, np.linspace(0.0, 1.0, n_bins + 1)))
    if len(edges) < 2:
        return _degenerate_edges(float(edges[0]))
    return BinEdges(edges)


def _best_split(xs, ys, min_leaf, n_classes):
    """(gain, left size, threshold) of a sorted leaf's best split, or None."""
    n = len(xs)
    if n < 2 * min_leaf:
        return None
    n_left = np.arange(1, n, dtype=np.float64)
    parts = (np.arange(1), np.array([n - 1]), n_left, (n - n_left)[None, None])
    # a (1, 1, n) batch of one line; variance_gains overwrites its targets
    gains = (gini_gains(ys[None, None], *parts, n_classes) if n_classes
             else variance_gains(ys[None, None].copy(), *parts))[0, 0]
    # values strictly rise at the split, and each side keeps min_leaf rows
    gains[~(xs[:-1] < xs[1:])] = -np.inf
    gains[:min_leaf - 1] = gains[n - min_leaf:] = -np.inf
    best = int(np.argmax(gains))  # ties keep the lowest threshold
    if gains[best] <= MIN_GAIN:
        return None
    return float(gains[best]), best + 1, float((xs[best] + xs[best + 1]) / 2.0)


def compute_target_bins(
    train_col: np.ndarray,
    targets: np.ndarray,
    task: TaskType,
    n_bins: int = DEFAULT_N_BINS,
) -> BinEdges:
    """Edges at the thresholds of a greedy single-feature decision tree.

    The tree minimizes Gini impurity (classification) or squared error
    (regression), grows best-first to at most ``n_bins`` leaves with minimum
    leaf size max(1, floor(N/(4*n_bins))), and a constant target falls back
    to quantile binning.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    if len(train_col) != len(targets):
        raise ShapeError("feature and target lengths differ")
    targets = np.asarray(targets)
    if len(targets) == 0 or np.all(targets == targets[0]):
        return compute_quantile_bins(train_col, n_bins)

    lo, hi = float(np.min(train_col)), float(np.max(train_col))
    if lo == hi:
        return _degenerate_edges(lo)

    min_leaf = max(1, len(train_col) // (4 * n_bins))
    order = np.argsort(train_col, kind="stable")
    xs = train_col[order]
    if task.is_classification:
        classes, ys = np.unique(targets[order], return_inverse=True)
        n_classes = len(classes)
    else:
        ys, n_classes = targets[order].astype(np.float64), 0
        ys *= target_scale(ys)
    # leaves that can split, largest gain first, then the first pushed
    heap, pushed = [], itertools.count()

    def push(start, stop):
        split = _best_split(xs[start:stop], ys[start:stop], min_leaf, n_classes)
        if split is not None:
            gain, n_left, threshold = split
            heapq.heappush(heap, (-gain, next(pushed), start, stop,
                                  start + n_left, threshold))

    push(0, len(xs))
    thresholds: list[float] = []
    while heap and len(thresholds) < n_bins - 1:
        _, _, start, stop, at, threshold = heapq.heappop(heap)
        thresholds.append(threshold)
        push(start, at)
        push(at, stop)

    return BinEdges(np.unique(np.array([lo, *thresholds, hi])))


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise EncodeError("cannot encode non-finite values")


def encode_bin_index(edges: BinEdges, x) -> np.ndarray:
    """Bin index k with b_k <= x < b_{k+1}, clamped to [0, B-1] outside."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_finite(arr)
    idx = np.searchsorted(edges.edges, arr, side="right") - 1
    return np.clip(idx, 0, edges.n_bins - 1).astype(np.int64)


def encode_unary(edges: BinEdges, x) -> np.ndarray:
    """Thermometer code of width B-1: bin k sets the first k bits."""
    idx = encode_bin_index(edges, x)
    width = edges.n_bins - 1
    return (np.arange(width) < idx[:, None]).astype(np.float64)


def _johnson_table(n_bins: int) -> np.ndarray:
    width = (n_bins + 1) // 2
    table = np.zeros((n_bins, width))
    for state in range(n_bins):
        if state <= width:
            table[state, :state] = 1.0
        else:
            table[state, state - width:] = 1.0
    return table


def encode_johnson(edges: BinEdges, x) -> np.ndarray:
    """Johnson shift-register code of width ceil(B/2); bin k is state k."""
    idx = encode_bin_index(edges, x)
    return _johnson_table(edges.n_bins)[idx]


def encode_ple(edges: BinEdges, x) -> np.ndarray:
    """Piecewise-linear encoding of width B.

    Component t is the position of x within bin t, clipped to [0, 1] except
    that the first component is not clipped below nor the last above, so
    out-of-range inputs extrapolate linearly.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_finite(arr)
    bounds = edges.edges
    raw = (arr[:, None] - bounds[:-1]) / np.diff(bounds)
    if edges.n_bins == 1:
        return raw
    out = np.clip(raw, 0.0, 1.0)
    out[:, 0] = np.minimum(raw[:, 0], 1.0)
    out[:, -1] = np.maximum(raw[:, -1], 0.0)
    return out


_ENCODERS = {
    "bin_index": lambda edges, x: encode_bin_index(edges, x)[:, None].astype(np.float64),
    "unary": encode_unary,
    "johnson": encode_johnson,
    "ple": encode_ple,
}


@dataclass(frozen=True)
class NumericEncoder:
    """Fitted per-feature bins plus the codec used to render them."""

    bins: tuple[BinEdges, ...]
    codec: str

    @property
    def width(self) -> int:
        widths = {
            "bin_index": lambda b: 1,
            "unary": lambda b: b - 1,
            "johnson": lambda b: (b + 1) // 2,
            "ple": lambda b: b,
        }[self.codec]
        return sum(widths(edges.n_bins) for edges in self.bins)

    def transform(self, num: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Each column's code, side by side, written into ``out`` (an
        (n, width) array or view) when given."""
        if num.shape[1] != len(self.bins):
            raise ShapeError(
                f"encoder was fitted on {len(self.bins)} columns, got {num.shape[1]}"
            )
        if out is None:
            out = np.empty((num.shape[0], self.width))
        return _side_by_side(out, (
            (_ENCODERS[self.codec](edges, num[:, j]), None)
            for j, edges in enumerate(self.bins)
        ))


def fit_numeric_encoder(
    train_num: np.ndarray,
    policy: str,
    targets: np.ndarray | None = None,
    task: TaskType | None = None,
    n_bins: int = DEFAULT_N_BINS,
) -> NumericEncoder | None:
    """Fit bins for every numerical column under the named policy.

    Returns None for policy ``none`` (columns pass through untouched).
    Target-aware policies require aligned training labels and the task type.
    """
    parsed = parse_num_policy(policy)
    if parsed is None:
        return None
    scheme, codec = parsed
    if scheme == "target" and (targets is None or task is None):
        raise ValueError("target-aware binning needs training labels and task")
    bins = []
    for j in range(train_num.shape[1]):
        col = train_num[:, j]
        if scheme == "quantile":
            bins.append(compute_quantile_bins(col, n_bins))
        else:
            bins.append(compute_target_bins(col, targets, task, n_bins))
    return NumericEncoder(bins=tuple(bins), codec=codec)
