"""Missing-value imputation and per-column normalization.

Everything here is fitted on training rows only and applied as a pure
function afterwards. Numerical missing cells are NaN; categorical missing
cells are the empty string. The imputer works on a categorical table's codes
(``encode_cat._tokenize``): a fill is a token, and filling remaps the missing
cells' code to the fill token's. Given cells, it tokenizes them first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encode_cat import _Codes, _coded, _Column, _first_seen
from .errors import FitError, check_width

NUM_NAN_POLICIES = ("mean", "median")
CAT_NAN_POLICIES = ("most_frequent", "constant")
NORMALIZATIONS = ("standard", "minmax", "quantile", "maxabs", "power", "robust")

# reserved fill token for the "constant" categorical policy
NAN_TOKEN = "__nan__"

_EPS_STD = 1e-12
_FLOAT_MAX = np.finfo(np.float64).max
_CDF_CLIP = 1e-7

# Cephes' ndtri, the rational approximation scipy.special.ndtri compiles: its
# set for exp(-2) < p < 1 - exp(-2), and its tail set for sqrt(-2 log p) < 8,
# which covers every p in [_CDF_CLIP, 1 - _CDF_CLIP]. Coefficients run from
# the highest power down; a leading 1.0 stands for Cephes' p1evl.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


@dataclass(frozen=True)
class FittedImputer:
    """Per-column fill values for numerical and categorical blocks; a
    categorical fill is a token."""

    num_fill: np.ndarray
    cat_fill: tuple[str, ...]

    def transform(self, num: np.ndarray, cat) -> tuple[np.ndarray, object]:
        """``num`` with its NaN cells filled, and ``cat`` with its missing
        cells filled: codes whose missing code is remapped to the fill's, or,
        for an array of cells, the tokens of its cells."""
        codes = _coded(cat)
        check_width("imputer", len(self.num_fill), num.shape[1], "numerical columns")
        check_width("imputer", len(self.cat_fill), codes.shape[1],
                    "categorical columns")
        num_out = np.where(np.isnan(num), self.num_fill, num)
        filled = codes.codes.copy()
        columns = list(codes.columns)
        for j, (column, fill) in enumerate(zip(codes.columns, self.cat_fill)):
            if column.blank < 0:
                continue
            if fill not in column.tokens:
                columns[j] = _Column(column.tokens + [fill], column.cells + [fill],
                                     column.blank)
            col = filled[:, j]
            col[col == column.blank] = columns[j].tokens.index(fill)
        filled = _Codes(filled, tuple(columns))
        return num_out, filled if cat is codes else filled.to_cells()


def _most_frequent(codes: np.ndarray, column: _Column) -> str | None:
    """The token of a column's most frequent non-missing cell among the
    training ``codes``, the first seen winning ties, or None if every cell is
    missing. Cells are counted as ``Counter`` counts them, so codes whose
    first cells are equal count together."""
    counts = np.bincount(codes).tolist()
    totals, tokens = {}, {}
    for code in _first_seen(codes, len(column.tokens)).tolist():
        cell = column.cells[code]
        totals[cell] = totals.get(cell, 0) + counts[code]
        tokens.setdefault(cell, column.tokens[code])
    totals.pop("", None)
    return tokens[max(totals, key=totals.get)] if totals else None


def fit_imputer(
    train_num: np.ndarray,
    train_cat,
    num_policy: str = "mean",
    cat_policy: str = "most_frequent",
) -> FittedImputer:
    """Learn fill values from training rows.

    ``num_policy`` is ``mean`` or ``median`` over the non-missing cells of
    each column; ``cat_policy`` is ``most_frequent`` (the token of the mode,
    first-seen cell wins ties) or ``constant`` (the reserved token).
    ``train_cat`` is categorical cells or their codes.
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

    codes = _coded(train_cat)
    if cat_policy == "constant":
        return FittedImputer(num_fill, (NAN_TOKEN,) * codes.shape[1])
    cat_fill = []
    for j, column in enumerate(codes.columns):
        fill = _most_frequent(codes.codes[:, j], column)
        if fill is None:
            raise FitError(
                f"categorical column {j} has no observed training values, "
                f"cannot fit most_frequent imputation"
            )
        cat_fill.append(fill)
    return FittedImputer(num_fill=num_fill, cat_fill=tuple(cat_fill))


def _yeo_johnson_logs(col: np.ndarray) -> tuple:
    """The part of the Yeo-Johnson transform no lambda changes: the masks of
    the cells at or above 0 and of the rest, and ``log1p`` of each side's
    magnitude."""
    pos = col >= 0
    neg = ~pos
    with np.errstate(over="ignore", invalid="ignore"):
        return pos, neg, np.log1p(col[pos]), np.log1p(-col[neg])


def _yeo_johnson(col: np.ndarray, lam: float, logs: tuple | None = None) -> np.ndarray:
    pos, neg, log_pos, log_neg = logs or _yeo_johnson_logs(col)
    out = np.empty_like(col, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(lam) < 1e-12:
            out[pos] = log_pos
        else:
            out[pos] = np.expm1(lam * log_pos) / lam
        if abs(lam - 2.0) < 1e-12:
            out[neg] = -log_neg
        else:
            out[neg] = -np.expm1((2.0 - lam) * log_neg) / (2.0 - lam)
    return out


def _log_jacobian(col: np.ndarray) -> float:
    # +inf and -inf cells sum to nan here, but then no lambda's transform has
    # a finite variance, so that Jacobian is never read
    with np.errstate(invalid="ignore"):
        return float(np.sum(np.sign(col) * np.log1p(np.abs(col))))


def yeo_johnson_log_likelihood(col: np.ndarray, lam: float, logs: tuple | None = None,
                               jacobian: float | None = None) -> float:
    """Profile Gaussian log-likelihood of the transformed column. A fit that
    scores many lambdas passes the column's ``logs`` (:func:`_yeo_johnson_logs`)
    and ``jacobian`` (:func:`_log_jacobian`), which no lambda changes."""
    transformed = _yeo_johnson(col, lam, logs)
    # a cell near the float64 limit squares to inf, or an infinite cell turns
    # the deviations to nan: either is no likelihood
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(np.var(transformed))
    if not math.isfinite(var) or var <= 0.0:
        return -math.inf
    if jacobian is None:
        jacobian = _log_jacobian(col)
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
    logs, jacobian = _yeo_johnson_logs(col), _log_jacobian(col)

    def log_likelihood(lam):
        return yeo_johnson_log_likelihood(col, lam, logs, jacobian)

    grid = np.linspace(-5.0, 5.0, 21)
    scores = [log_likelihood(lam) for lam in grid]
    best = int(np.argmax(scores))
    # no lambda keeps the column's variance finite: leave it as it is
    if scores[best] == -math.inf:
        return 1.0
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    refined = _golden_section_max(log_likelihood, lo, hi)
    if log_likelihood(refined) >= scores[best]:
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
    table per column and maps through the empirical CDF, clipped to
    [1e-7, 1 - 1e-7], to a probit (normal) output. The probit is a numpy
    port of Cephes' ``ndtri``, with the bytes of ``scipy.special.ndtri``.
    """

    kind: str
    n_columns: int
    shift: np.ndarray | None = None
    scale: np.ndarray | None = None
    lambdas: np.ndarray | None = None
    quantiles: np.ndarray | None = None
    references: np.ndarray | None = None

    def transform(self, num: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The normalized columns, written into ``out`` (an array or view of
        ``num``'s shape, ``num`` itself included) when given."""
        check_width("normalizer", self.n_columns, num.shape[1])
        if out is None:
            out = np.empty(num.shape)
        if self.kind == "quantile":
            for j in range(self.n_columns):
                out[:, j] = self._quantile_column(num[:, j], j)
            return out
        finite = np.isfinite(num)
        source = num
        if self.kind == "power":
            for j in range(self.n_columns):
                out[:, j] = _yeo_johnson(num[:, j], float(self.lambdas[j]))
            source = out
        with np.errstate(over="ignore"):
            np.subtract(source, self.shift, out=out)
            np.divide(out, self.scale, out=out)
        # a finite cell stays finite: where the map overflows, it saturates
        return np.clip(out, -_FLOAT_MAX, _FLOAT_MAX, out=out, where=finite)

    def _quantile_column(self, col: np.ndarray, j: int) -> np.ndarray:
        table = self.quantiles[j]
        refs = self.references
        # two-sided interpolation keeps tie plateaus at their shared CDF value
        forward = np.interp(col, table, refs)
        backward = -np.interp(-col, -table[::-1], -refs[::-1])
        cdf = np.clip(0.5 * (forward + backward), _CDF_CLIP, 1.0 - _CDF_CLIP)
        return _ndtri(cdf)


def _horner(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _libm_log(values: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, which the compiled ndtri calls; numpy's
    # vectorized log is off from it by 1-3 ulp on some tail inputs
    return np.fromiter(map(math.log, values.tolist()), np.float64, values.size)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each ``p`` in [1e-7, 1 - 1e-7], NaN
    passing through, with the bytes of ``scipy.special.ndtri``."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _horner(c2, _P0) / _horner(c2, _Q0))) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x = x - _libm_log(x) / x - z * _horner(z, _P1) / _horner(z, _Q1)
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _std_scale(columns: np.ndarray) -> np.ndarray:
    """Each column's std, or 1 where it is at most ``_EPS_STD`` times the
    column's largest |value|, as for an all-equal column. Deviations past
    about 1.3e154 square to inf; an infinite scale maps the column to 0."""
    with np.errstate(over="ignore"):
        std = columns.std(axis=0)
    top = np.abs(columns).max(axis=0, initial=0.0)
    return np.where(std <= _EPS_STD * top, 1.0, std)


def fit_normalizer(train_num: np.ndarray, kind: str) -> FittedNormalizer:
    """Fit the named normalization on (already imputed) training columns."""
    if kind not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {kind!r}")
    if not np.isfinite(train_num).all():
        raise FitError("normalizer input contains non-finite cells")
    n_cols = train_num.shape[1]

    if kind == "standard":
        shift, scale = train_num.mean(axis=0), _std_scale(train_num)
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
        return FittedNormalizer(
            kind=kind, n_columns=n_cols, shift=transformed.mean(axis=0),
            scale=_std_scale(transformed), lambdas=lambdas
        )
    # quantile
    # one row gets two references, so it maps as a constant column does
    n_refs = max(2, min(1000, train_num.shape[0]))
    references = np.linspace(0.0, 1.0, n_refs)
    quantiles = np.stack(
        [np.quantile(train_num[:, j], references) for j in range(n_cols)]
    ) if n_cols else np.empty((0, n_refs))
    return FittedNormalizer(
        kind=kind, n_columns=n_cols, quantiles=quantiles, references=references
    )
