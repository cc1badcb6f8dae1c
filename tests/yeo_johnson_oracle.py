"""Reference Yeo-Johnson lambda fit: every likelihood call transforms the
column from scratch, recomputing its sign mask, both ``log1p`` halves and the
Jacobian.

``tabkit.preprocess`` computes that lambda-free work once per column; the
lambda it fits must equal this one bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from tabkit.preprocess import _golden_section_max


def _yeo_johnson(col, lam):
    out = np.empty_like(col, dtype=np.float64)
    pos = col >= 0
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(lam) < 1e-12:
            out[pos] = np.log1p(col[pos])
        else:
            out[pos] = np.expm1(lam * np.log1p(col[pos])) / lam
        if abs(lam - 2.0) < 1e-12:
            out[~pos] = -np.log1p(-col[~pos])
        else:
            out[~pos] = -np.expm1((2.0 - lam) * np.log1p(-col[~pos])) / (2.0 - lam)
    return out


def log_likelihood(col, lam):
    transformed = _yeo_johnson(col, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(np.var(transformed))
    if not math.isfinite(var) or var <= 0.0:
        return -math.inf
    jacobian = float(np.sum(np.sign(col) * np.log1p(np.abs(col))))
    return -0.5 * len(col) * math.log(var) + (lam - 1.0) * jacobian


def fit_lambda(col):
    if np.all(col == col[0]):
        return 1.0
    grid = np.linspace(-5.0, 5.0, 21)
    scores = [log_likelihood(col, lam) for lam in grid]
    best = int(np.argmax(scores))
    if scores[best] == -math.inf:
        return 1.0
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    refined = _golden_section_max(lambda lam: log_likelihood(col, lam), lo, hi)
    if log_likelihood(col, refined) >= scores[best]:
        return float(refined)
    return float(grid[best])
