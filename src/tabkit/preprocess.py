"""Missing-value imputation and per-column normalization.

Everything here is fitted on training rows only and applied as a pure
function afterwards. Numerical missing cells are NaN; categorical missing
cells are the empty string.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import FitError, ShapeError

NUM_NAN_POLICIES = ("mean", "median")
CAT_NAN_POLICIES = ("most_frequent", "constant")
NORMALIZATIONS = ("standard", "minmax", "quantile", "maxabs", "power", "robust")

# reserved fill token for the "constant" categorical policy
NAN_TOKEN = "__nan__"

_EPS_STD = 1e-12
_FLOAT_MAX = np.finfo(np.float64).max
_CDF_CLIP = 1e-7


@dataclass(frozen=True)
class FittedImputer:
    """Per-column fill values for numerical and categorical blocks."""

    num_fill: np.ndarray
    cat_fill: tuple[str, ...]

    def transform(self, num: np.ndarray, cat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if num.shape[1] != len(self.num_fill):
            raise ShapeError(
                f"imputer was fitted on {len(self.num_fill)} numerical columns, "
                f"got {num.shape[1]}"
            )
        if cat.shape[1] != len(self.cat_fill):
            raise ShapeError(
                f"imputer was fitted on {len(self.cat_fill)} categorical columns, "
                f"got {cat.shape[1]}"
            )
        num_out = np.where(np.isnan(num), self.num_fill, num)
        cat_out = cat.copy()
        for j, fill in enumerate(self.cat_fill):
            col = cat_out[:, j]
            col[col == ""] = fill
        return num_out, cat_out


def fit_imputer(
    train_num: np.ndarray,
    train_cat: np.ndarray,
    num_policy: str = "mean",
    cat_policy: str = "most_frequent",
) -> FittedImputer:
    """Learn fill values from training rows.

    ``num_policy`` is ``mean`` or ``median`` over the non-missing cells of
    each column; ``cat_policy`` is ``most_frequent`` (mode, first-seen token
    wins ties) or ``constant`` (the reserved token).
    """
    if num_policy not in NUM_NAN_POLICIES:
        raise ValueError(f"unknown num_nan_policy {num_policy!r}")
    if cat_policy not in CAT_NAN_POLICIES:
        raise ValueError(f"unknown cat_nan_policy {cat_policy!r}")

    num_fill = np.zeros(train_num.shape[1])
    for j in range(train_num.shape[1]):
        col = train_num[:, j]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise FitError(
                f"numerical column {j} has no observed training values, "
                f"cannot fit {num_policy!r} imputation"
            )
        fill = float(np.mean(observed) if num_policy == "mean" else np.median(observed))
        if not math.isfinite(fill):
            raise FitError(f"numerical column {j}: non-finite fill value {fill}")
        num_fill[j] = fill

    cat_fill = []
    for j in range(train_cat.shape[1]):
        if cat_policy == "constant":
            cat_fill.append(NAN_TOKEN)
            continue
        counts = Counter(train_cat[:, j].tolist())
        counts.pop("", None)
        if not counts:
            raise FitError(
                f"categorical column {j} has no observed training values, "
                f"cannot fit most_frequent imputation"
            )
        # most_common keeps the first-seen token on ties
        cat_fill.append(counts.most_common(1)[0][0])
    return FittedImputer(num_fill=num_fill, cat_fill=tuple(cat_fill))


def _yeo_johnson(col: np.ndarray, lam: float) -> np.ndarray:
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


def yeo_johnson_log_likelihood(col: np.ndarray, lam: float) -> float:
    """Profile Gaussian log-likelihood of the transformed column."""
    transformed = _yeo_johnson(col, lam)
    var = float(np.var(transformed))
    if not math.isfinite(var) or var <= 0.0:
        return -math.inf
    jacobian = float(np.sum(np.sign(col) * np.log1p(np.abs(col))))
    return -0.5 * len(col) * math.log(var) + (lam - 1.0) * jacobian


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(fn, lo: float, hi: float, tol: float = 1e-6,
                        max_iter: int = 200) -> float:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def _fit_yeo_johnson_lambda(col: np.ndarray) -> float:
    if np.all(col == col[0]):
        return 1.0
    grid = np.linspace(-5.0, 5.0, 21)
    scores = [yeo_johnson_log_likelihood(col, lam) for lam in grid]
    best = int(np.argmax(scores))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    refined = _golden_section_max(lambda lam: yeo_johnson_log_likelihood(col, lam), lo, hi)
    if yeo_johnson_log_likelihood(col, refined) >= scores[best]:
        return float(refined)
    return float(grid[best])


@dataclass(frozen=True)
class FittedNormalizer:
    """One of the six per-column normalizations, frozen after fitting.

    ``standard``, ``minmax``, ``maxabs``, and ``robust`` are all affine maps
    (x - shift) / scale with kind-specific statistics and degenerate scales
    replaced by 1. ``power`` stores a Yeo-Johnson lambda per column followed
    by standard scaling of the transformed training column. Where a finite
    cell would overflow, these maps saturate at the largest float64; inf and
    NaN cells pass through them. ``quantile`` stores a reference quantile
    table per column and maps through the empirical CDF to a probit (normal)
    output.
    """

    kind: str
    n_columns: int
    shift: np.ndarray | None = None
    scale: np.ndarray | None = None
    lambdas: np.ndarray | None = None
    quantiles: np.ndarray | None = None
    references: np.ndarray | None = None

    def transform(self, num: np.ndarray) -> np.ndarray:
        if num.shape[1] != self.n_columns:
            raise ShapeError(
                f"normalizer was fitted on {self.n_columns} columns, "
                f"got {num.shape[1]}"
            )
        if self.kind == "quantile":
            out = np.empty_like(num, dtype=np.float64)
            for j in range(self.n_columns):
                out[:, j] = self._quantile_column(num[:, j], j)
            return out
        out = num
        if self.kind == "power":
            out = np.empty_like(num, dtype=np.float64)
            for j in range(self.n_columns):
                out[:, j] = _yeo_johnson(num[:, j], float(self.lambdas[j]))
        with np.errstate(over="ignore"):
            out = (out - self.shift) / self.scale
        # a finite cell stays finite: where the map overflows, it saturates
        return np.clip(out, -_FLOAT_MAX, _FLOAT_MAX, out=out,
                       where=np.isfinite(num))

    def _quantile_column(self, col: np.ndarray, j: int) -> np.ndarray:
        table = self.quantiles[j]
        refs = self.references
        # two-sided interpolation keeps tie plateaus at their shared CDF value
        forward = np.interp(col, table, refs)
        backward = -np.interp(-col, -table[::-1], -refs[::-1])
        cdf = np.clip(0.5 * (forward + backward), _CDF_CLIP, 1.0 - _CDF_CLIP)
        return ndtri(cdf)


def fit_normalizer(train_num: np.ndarray, kind: str) -> FittedNormalizer:
    """Fit the named normalization on (already imputed) training columns."""
    if kind not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {kind!r}")
    if not np.isfinite(train_num).all():
        raise FitError("normalizer input contains non-finite cells")
    n_cols = train_num.shape[1]

    if kind == "standard":
        shift = train_num.mean(axis=0)
        scale = train_num.std(axis=0)
        scale = np.where(scale < _EPS_STD, 1.0, scale)
        return FittedNormalizer(kind=kind, n_columns=n_cols, shift=shift, scale=scale)
    if kind == "minmax":
        lo = train_num.min(axis=0)
        span = train_num.max(axis=0) - lo
        span = np.where(span == 0.0, 1.0, span)
        return FittedNormalizer(kind=kind, n_columns=n_cols, shift=lo, scale=span)
    if kind == "maxabs":
        peak = np.abs(train_num).max(axis=0)
        peak = np.where(peak == 0.0, 1.0, peak)
        return FittedNormalizer(
            kind=kind, n_columns=n_cols, shift=np.zeros(n_cols), scale=peak
        )
    if kind == "robust":
        center = np.median(train_num, axis=0)
        iqr = np.quantile(train_num, 0.75, axis=0) - np.quantile(train_num, 0.25, axis=0)
        iqr = np.where(iqr == 0.0, 1.0, iqr)
        return FittedNormalizer(kind=kind, n_columns=n_cols, shift=center, scale=iqr)
    if kind == "power":
        lambdas = np.array(
            [_fit_yeo_johnson_lambda(train_num[:, j]) for j in range(n_cols)]
        )
        transformed = np.empty_like(train_num, dtype=np.float64)
        for j in range(n_cols):
            transformed[:, j] = _yeo_johnson(train_num[:, j], float(lambdas[j]))
        scale = transformed.std(axis=0)
        return FittedNormalizer(
            kind=kind, n_columns=n_cols, shift=transformed.mean(axis=0),
            scale=np.where(scale < _EPS_STD, 1.0, scale), lambdas=lambdas
        )
    # quantile
    n_refs = min(1000, train_num.shape[0])
    references = np.linspace(0.0, 1.0, n_refs)
    quantiles = np.stack(
        [np.quantile(train_num[:, j], references) for j in range(n_cols)]
    ) if n_cols else np.empty((0, n_refs))
    return FittedNormalizer(
        kind=kind, n_columns=n_cols, quantiles=quantiles, references=references
    )
