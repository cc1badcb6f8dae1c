"""Reference knn neighbor search: the full squared-distance matrix, summed one
feature at a time, then a stable argsort of every row.

The screened search in ``tabkit.methods.classical`` must return the same index
array, element for element.
"""

from __future__ import annotations

import numpy as np


def neighbors(x, x_train, k):
    # accumulate squared distances one feature at a time: exact arithmetic
    # (ties stay ties) without an (n_query, n_train, d) intermediate
    d2 = np.zeros((x.shape[0], x_train.shape[0]))
    for j in range(x.shape[1]):
        d2 += (x[:, j][:, None] - x_train[:, j][None, :]) ** 2
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]
