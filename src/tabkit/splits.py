"""Split gains shared by the tree engine and target-aware binning.

Both score every split of a batch of sorted lines. ``ys`` is (nodes, features,
span): one node's targets sorted by one feature per line, padded after slot
``last[node]``; ``node`` is ``arange(nodes)``. Position p puts ``n_left[p]``
(p + 1) rows left and ``n_right`` right. The result is (nodes, features,
span - 1): the node's impurity minus its children's.

* :func:`variance_gains`: squared error, sum(y^2) - sum(y)^2 / n per side,
  from prefix sums of y and of y^2. It overwrites ``ys``. Callers scale the
  targets by :func:`target_scale` first, so the squared sums cannot overflow.
* :func:`gini_gains`: size-weighted Gini, n - sum_c count_c^2 / n per side,
  over integer labels 0..``n_classes`` - 1, one class at a time. The counts
  are squared in float64 (an int32 square wraps past 46,340 rows); they and
  their squares are integers far below 2^53, so their float sums are exact,
  whatever order they are added in.
"""

from __future__ import annotations

import math

import numpy as np

# a split must gain more than this; smaller gains are rounding noise
MIN_GAIN = 1e-12
# below this no sum of fewer than 2^256 targets squares past the float range
_HUGE_TARGET = 2.0 ** 256


def target_scale(y) -> float:
    """What to multiply regression targets by before :func:`variance_gains`:
    1, or for targets reaching 2^256 the power of two that brings the largest
    below 1. A power of two scales every target, square and sum exactly (short
    of subnormals), so each gain is the raw targets' gain, as a float range
    without overflow would give it, times the scale squared: splits rank the
    same. ``MIN_GAIN`` then applies in the scaled units. Ordinary targets are
    left as they are."""
    top = float(np.max(np.abs(y), initial=0.0))
    if not top >= _HUGE_TARGET:
        return 1.0
    return math.ldexp(1.0, -math.frexp(top)[1])  # inf gives 1


def variance_gains(ys, node, last, n_left, n_right):
    csum = np.cumsum(ys, axis=2)
    # ys turns into the prefix sums of its squares
    csum2 = np.cumsum(np.square(ys, out=ys), axis=2, out=ys)
    total, total2 = csum[node, :, last], csum2[node, :, last]
    # the node's own impurity, from the first feature's order
    parent = np.array([
        s2 - s ** 2 / (n + 1) for s, s2, n in
        zip(total[:, 0].tolist(), total2[:, 0].tolist(), last.tolist())
    ])
    total, total2 = total[:, :, None], total2[:, :, None]
    left, left2 = csum[:, :, :-1], csum2[:, :, :-1]
    # left2 - left**2 / n_left + (total2 - left2) - (total - left)**2 / n_right
    child = np.square(left)
    child /= n_left
    np.subtract(left2, child, out=child)
    right = np.subtract(total2, left2)
    child += right
    np.subtract(total, left, out=right)
    np.square(right, out=right)
    right /= n_right
    child -= right
    return np.subtract(parent[:, None, None], child, out=child)


def gini_gains(ys, node, last, n_left, n_right, n_classes):
    left_sq = np.zeros(ys.shape[:2] + (ys.shape[2] - 1,))
    right_sq = np.zeros_like(left_sq)
    scratch = np.empty_like(left_sq)
    counts = np.empty(ys.shape, dtype=np.int32)
    parent_sq = np.zeros(len(node))
    for c in range(n_classes):
        np.cumsum(ys == c, axis=2, out=counts)
        total = counts[node, :, last]
        left = counts[:, :, :-1]
        # square in float64: int32 squares wrap past 46,340 rows of a class
        left_sq += np.square(left, out=scratch, dtype=np.float64)
        np.subtract(total[:, :, None], left, out=scratch)
        right_sq += np.square(scratch, out=scratch)
        parent_sq += np.square(total[:, 0], dtype=np.float64)
    del counts, scratch
    # n_left - left_sq / n_left + n_right - right_sq / n_right
    left_sq /= n_left
    child = np.subtract(n_left, left_sq, out=left_sq)
    child += n_right
    right_sq /= n_right
    child -= right_sq
    size = last + 1
    parent = size - parent_sq / size
    return np.subtract(parent[:, None, None], child, out=child)
