"""The feature pipeline as it was assembled before it wrote one output matrix.

The byte-identity reference for ``tabkit.pipeline``: every stage builds its
own block, the numeric and categorical blocks are joined with ``np.hstack``,
and a categorical cell finds its table row through ``np.unique`` of the
column's ``astype(str)`` tokens. The imputer works on the cells themselves: a
column's most frequent cell is found by ``Counter``, and missing cells are
overwritten in a copy. The other stages are fitted with the library's own
per-column fitting functions, which the one-matrix assembly did not change,
a categorical column's fed with codes numbered by ``np.unique``, and a numeric
column is rendered by its reference codec in ``encode_num_oracle``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from encode_num_oracle import CODECS
from tabkit.encode_cat import (
    CategoricalEncoder,
    _fit_column,
    _target_columns,
    fnv1a64,
)
from tabkit.encode_num import fit_numeric_encoder
from tabkit.errors import FitError
from tabkit.preprocess import (
    _FLOAT_MAX,
    NAN_TOKEN,
    FittedImputer,
    _yeo_johnson,
    fit_imputer,
    fit_normalizer,
)


def fit_cat_fill(cat: np.ndarray, cat_policy: str) -> tuple:
    """Each column's fill: the reserved token, or the token of its most
    frequent non-missing cell as ``Counter`` counts the cells, the first seen
    winning ties. A ``str`` cell without NULs is its own token."""
    if cat_policy == "constant":
        return (NAN_TOKEN,) * cat.shape[1]
    fills = []
    for j in range(cat.shape[1]):
        cells = cat[:, j].tolist()
        counts = Counter(cells)
        counts.pop("", None)
        if not counts:
            raise FitError(f"categorical column {j} has no observed training values")
        winner = counts.most_common(1)[0][0]
        if type(winner) is not str or "\x00" in winner:
            first = next(i for i, cell in enumerate(cells) if cell is winner)
            winner = cat[first:first + 1, j].astype(str).tolist()[0]
        fills.append(winner)
    return tuple(fills)


def impute(imputer: FittedImputer, num: np.ndarray, cat: np.ndarray) -> tuple:
    """The imputer's fills written over the missing cells of copies."""
    num = np.where(np.isnan(num), imputer.num_fill, num)
    cat = cat.astype(object)
    for j, fill in enumerate(imputer.cat_fill):
        col = cat[:, j]
        col[col == ""] = fill
    return num, cat


def rows(encoder: CategoricalEncoder, j: int, col: np.ndarray) -> np.ndarray:
    """The table row of each cell of column j, through ``np.unique``."""
    tokens, inverse = np.unique(col.astype(str), return_inverse=True)
    if encoder.vocabularies is None:
        n_buckets = len(encoder.tables[j])
        found = [fnv1a64(token) % n_buckets for token in tokens.tolist()]
    else:
        vocab = encoder.vocabularies[j]
        found = [vocab.get(token, len(vocab)) for token in tokens.tolist()]
    return np.array(found, dtype=np.intp)[inverse]


def encode_cat(encoder: CategoricalEncoder, cat: np.ndarray) -> np.ndarray:
    return np.hstack([np.empty((len(cat), 0))] + [
        table[rows(encoder, j, cat[:, j])] for j, table in enumerate(encoder.tables)
    ])


def encode_num(encoder, num: np.ndarray) -> np.ndarray:
    if not encoder.bins:
        return np.empty((num.shape[0], 0))
    return np.hstack([CODECS[encoder.codec](edges, num[:, j])
                      for j, edges in enumerate(encoder.bins)])


def normalize(normalizer, num: np.ndarray) -> np.ndarray:
    if normalizer.kind == "quantile":
        out = np.empty_like(num, dtype=np.float64)
        for j in range(normalizer.n_columns):
            out[:, j] = normalizer._quantile_column(num[:, j], j)
        return out
    out = num
    if normalizer.kind == "power":
        out = np.empty_like(num, dtype=np.float64)
        for j in range(normalizer.n_columns):
            out[:, j] = _yeo_johnson(num[:, j], float(normalizer.lambdas[j]))
    with np.errstate(over="ignore"):
        out = (out - normalizer.shift) / normalizer.scale
    return np.clip(out, -_FLOAT_MAX, _FLOAT_MAX, out=out, where=np.isfinite(num))


def fit_cat(cat, policy, labels, info, seed, n_buckets):
    """(encoder, training block) with each column's block made whole."""
    n, n_features = cat.shape
    if policy == "hash":
        encoder = CategoricalEncoder(None, (np.eye(n_buckets),) * n_features)
        return encoder, encode_cat(encoder, cat)
    ys = permutation = None
    if policy in ("target", "loo", "catboost"):
        ys = _target_columns(np.asarray(labels), info.task, info.class_count)
        permutation = np.random.default_rng(seed).permutation(n)
    columns = []
    for j in range(n_features):
        tokens, codes = np.unique(cat[:, j].astype(str), return_inverse=True)
        columns.append(_fit_column(codes, tokens.tolist(), policy, ys, permutation))
    encoder = CategoricalEncoder(tuple(vocab for vocab, _, _ in columns),
                                 tuple(table for _, table, _ in columns))
    return encoder, np.hstack([
        block if block.ndim == 2 else table[block] for _, table, block in columns
    ])


def fit(config, seed, dataset, info) -> tuple[tuple, np.ndarray]:
    """(stages, encoded train matrix), in the order ``FeaturePipeline.state``
    lists the stages."""
    num = dataset.part_num("train")
    cat = dataset.part_cat("train")
    labels = dataset.part_labels("train")
    normalizer = num_encoder = cat_encoder = ordinal_scaler = None
    num_fill = fit_imputer(num, cat[:, :0], num_policy=config.num_nan_policy).num_fill
    imputer = FittedImputer(num_fill, fit_cat_fill(cat, config.cat_nan_policy))
    num, cat = impute(imputer, num, cat)
    if num.shape[1]:
        normalizer = fit_normalizer(num, config.normalization)
        num = normalize(normalizer, num)
        num_encoder = fit_numeric_encoder(num, config.num_policy, targets=labels,
                                          task=info.task, n_bins=config.n_bins)
        if num_encoder is not None:
            num = encode_num(num_encoder, num)
    if cat.shape[1]:
        cat_encoder, cat_block = fit_cat(cat, config.cat_policy, labels, info,
                                         seed, config.n_buckets)
        if config.cat_policy == "ordinal":
            ordinal_scaler = fit_normalizer(cat_block, "standard")
            cat_block = normalize(ordinal_scaler, cat_block)
    else:
        cat_block = np.empty((len(labels), 0))
    stages = (imputer, normalizer, num_encoder, cat_encoder, ordinal_scaler)
    return stages, np.hstack([num, cat_block])


def transform(stages: tuple, num: np.ndarray, cat: np.ndarray) -> np.ndarray:
    imputer, normalizer, num_encoder, cat_encoder, ordinal_scaler = stages
    num, cat = impute(imputer, num, cat)
    if normalizer is not None:
        num = normalize(normalizer, num)
    if num_encoder is not None:
        num = encode_num(num_encoder, num)
    if cat_encoder is not None:
        cat_block = encode_cat(cat_encoder, cat)
        if ordinal_scaler is not None:
            cat_block = normalize(ordinal_scaler, cat_block)
    else:
        cat_block = np.empty((num.shape[0], 0))
    return np.hstack([num, cat_block])
