"""Categorical-feature encodings: token -> index -> ``table[index]``.

Every policy renders a column the same way. A token (the cell's ``str``) maps
to an integer index, and its encoded row is ``table[index]`` of a float64
table fitted per column:

- ``hash``: the index is ``fnv1a64(token) % n_buckets``, into
  ``eye(n_buckets)``; there is no vocabulary.
- every other policy: the index is the token's position in the column's
  training vocabulary, in first-appearance order, and a token the vocabulary
  lacks takes the unseen slot K. The ``(K+1, width)`` table holds
  ``arange(K+1)`` for ``ordinal``, ``eye(K+1)`` for ``onehot`` and the
  big-endian bits of ``arange(K+1)`` for ``binary``. For ``target``, ``loo``
  and ``catboost`` it has one column per target (the label, in the fit's
  target unit for regression, or a one-vs-rest indicator per class) of
  per-category statistics of the training labels, and its unseen row is the
  global target mean (the prior).

The fitted state is the vocabularies and the tables, which is all that
``transform`` reads.

Training rows of ``loo`` and ``catboost`` depend on row identity, so fitting
returns the training matrix in the same pass: ``loo`` leaves each row's own
target out, and ``catboost`` (ordered target statistics) averages only the
same-category rows before it in a seeded permutation. Per-category sums come
from ``np.bincount``, which adds in row order like a sequential sum. The
ordered prefixes are differences of one cumulative sum over rows grouped by
category. Their rounding depends on the order of the groups, so the groups
follow the sorted order of the tokens, not the vocabulary order; that keeps
the training column byte-identical to earlier fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import TaskType
from .errors import FitError, check_width
from .splits import target_exponent

CAT_POLICIES = ("ordinal", "onehot", "binary", "hash", "target", "loo", "catboost")

DEFAULT_SMOOTHING = 10.0
DEFAULT_PRIOR_WEIGHT = 1.0
DEFAULT_N_BUCKETS = 8

# FNV-1a, 64-bit: platform-independent hash of the UTF-8 token bytes
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 1 << 64


def fnv1a64(token: str) -> int:
    value = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) % _U64
    return value


@dataclass(frozen=True, eq=False)
class CategoricalEncoder:
    """All categorical columns fitted under one policy.

    ``vocabularies[j]`` maps each training token of column j to its row of
    ``tables[j]``; any other token reads the table's last row. Under ``hash``
    ``vocabularies`` is None and the row is the token's FNV-1a bucket.
    """

    vocabularies: tuple[dict[str, int], ...] | None
    tables: tuple[np.ndarray, ...]

    @property
    def width(self) -> int:
        return sum(table.shape[1] for table in self.tables)

    def transform(self, cat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inference-semantics encoding of categorical rows, written into
        ``out`` (an (n, width) array or view) when given."""
        check_width("encoder", len(self.tables), cat.shape[1])
        if out is None:
            out = np.empty((cat.shape[0], self.width))
        return _side_by_side(out, (
            (table, self._rows(j, cat[:, j])) for j, table in enumerate(self.tables)
        ))

    def _rows(self, j: int, col: np.ndarray) -> np.ndarray:
        """The table row of each cell of column j."""
        tokens = _tokens(col)
        if self.vocabularies is None:
            n_buckets = len(self.tables[j])
            buckets = {token: fnv1a64(token) % n_buckets for token in set(tokens)}
            rows = [buckets[token] for token in tokens]
        else:
            vocab, unseen = self.vocabularies[j], len(self.vocabularies[j])
            rows = [vocab.get(token, unseen) for token in tokens]
        return np.array(rows, dtype=np.intp)


def _tokens(col: np.ndarray) -> list[str]:
    """Each cell's token, as ``col.astype(str)`` renders it. A column of
    ``str`` cells without NULs is its own tokens; any other column goes
    through numpy, which renders non-``str`` cells its own way and drops
    trailing NULs."""
    cells = col.tolist()
    if set(map(type, cells)) <= {str} and "\x00" not in "".join(cells):
        return cells
    return col.astype(str).tolist()


# the most floats a table gather copies at once (128 KiB): on a 6,000-row,
# 201-wide one-hot column, as fast as larger chunks and faster than one gather
_GATHER_FLOATS = 1 << 14


def _side_by_side(out: np.ndarray, blocks) -> np.ndarray:
    """Write column blocks into ``out`` left to right, and return it. A block
    is a (table, rows) pair: ``table[rows]`` for an index vector ``rows`` (a
    categorical column's token rows, or a numeric column's bin indices),
    gathered a few rows at a time so that no whole copy is made, or the
    table itself when ``rows`` is None (a computed block, such as PLE's)."""
    start = 0
    for table, rows in blocks:
        view = out[:, start:start + table.shape[1]]
        if rows is None:
            view[...] = table
        else:
            step = max(1, _GATHER_FLOATS // max(1, table.shape[1]))
            for lo in range(0, len(rows), step):
                view[lo:lo + step] = table[rows[lo:lo + step]]
        start += table.shape[1]
    return out


def _target_columns(targets: np.ndarray, task: TaskType, class_count) -> list[np.ndarray]:
    """Real-valued target columns: the labels (regression labels mapped by
    2^-e, for e their ``splits.target_exponent``), or one-vs-rest indicators
    per class for multiclass."""
    if task is TaskType.MULTICLASS:
        return [(targets == c).astype(np.float64) for c in range(class_count)]
    y = np.asarray(targets, dtype=np.float64)
    if task is TaskType.REGRESSION:
        y = np.ldexp(y, -target_exponent(y))
    return [y]


def _ordered_column(sorted_codes, y, permutation, prior) -> np.ndarray:
    """CatBoost training column: each row's same-category prefix in the
    permutation, smoothed toward the prior with weight DEFAULT_PRIOR_WEIGHT."""
    n = len(y)
    a = DEFAULT_PRIOR_WEIGHT
    position = np.empty(n, dtype=np.int64)
    position[permutation] = np.arange(n)
    # group rows by category, ordered by permutation position, then take
    # exclusive prefix sums within each group
    order = np.lexsort((position, sorted_codes))
    y_ord = y[order]
    codes_ord = sorted_codes[order]
    group_start = np.r_[True, codes_ord[1:] != codes_ord[:-1]]
    csum = np.cumsum(y_ord) - y_ord
    base = np.where(group_start, csum, 0.0)
    group_base = np.maximum.accumulate(np.where(group_start, np.arange(n), 0))
    prefix_count = np.arange(n) - group_base
    prefix_sum = csum - base[group_base]
    out = np.empty(n)
    out[order] = (prefix_sum + a * prior) / (prefix_count + a)
    return out


def _fit_column(col, policy: str, ys, permutation):
    """(vocabulary, table, training rows) of one column under a non-hash
    policy. The training rows are an (n, width) block for ``loo`` and
    ``catboost``, and the table row of each cell otherwise."""
    vocab: dict[str, int] = {}
    codes = np.array([vocab.setdefault(token, len(vocab)) for token in _tokens(col)],
                     dtype=np.intp)
    k = len(vocab)
    # new key strings: the pickled state shares no object with the cells
    tokens = np.array(list(vocab))
    vocab = dict(zip(tokens.tolist(), range(k)))
    if policy == "ordinal":
        return vocab, np.arange(k + 1, dtype=np.float64)[:, None], codes
    if policy == "onehot":
        return vocab, np.eye(k + 1), codes
    if policy == "binary":
        shifts = np.arange(max(1, k.bit_length()))[::-1]
        bits = np.arange(k + 1)[:, None] >> shifts & 1
        return vocab, bits.astype(np.float64), codes
    counts = np.bincount(codes, minlength=k).astype(np.float64)
    if policy == "catboost":  # each row's token's place in sorted order
        sorted_codes = np.argsort(np.argsort(tokens))[codes]
    seen_rows, train_rows = [], []
    for y in ys:
        sums = np.bincount(codes, weights=y, minlength=k)
        prior = y.mean()
        if policy == "loo":
            seen = sums / counts
            row_counts = counts[codes]
            with np.errstate(invalid="ignore", divide="ignore"):
                own_left_out = (sums[codes] - y) / (row_counts - 1.0)
            train_rows.append(np.where(row_counts == 1.0, prior, own_left_out))
        else:
            m = DEFAULT_SMOOTHING if policy == "target" else DEFAULT_PRIOR_WEIGHT
            seen = (sums + m * prior) / (counts + m)
            if policy == "catboost":
                train_rows.append(_ordered_column(sorted_codes, y, permutation, prior))
        seen_rows.append(np.append(seen, prior))
    table = np.column_stack(seen_rows)
    return vocab, table, np.column_stack(train_rows) if train_rows else codes


def fit_categorical_encoder(
    train_cat: np.ndarray,
    policy: str,
    targets: np.ndarray | None = None,
    task: TaskType | None = None,
    class_count: int | None = None,
    seed: int = 0,
    n_buckets: int = DEFAULT_N_BUCKETS,
    allocate: Callable[[int], np.ndarray] | None = None,
) -> tuple[CategoricalEncoder, np.ndarray]:
    """Fit all categorical columns and encode the training rows in one pass.

    Returns the fitted encoder (inference semantics via ``transform``) and
    the training-row matrix, which for leave-one-out and ordered statistics
    differs from what ``transform`` would produce. ``allocate(width)``, once
    the encoder's width is known, gives the (n, width) array or view that the
    training rows are written into; by default it is a new array.
    """
    if policy not in CAT_POLICIES:
        raise ValueError(f"unknown cat_policy {policy!r}")
    n, n_features = train_cat.shape
    allocate = allocate or (lambda width: np.empty((n, width)))
    if policy == "hash":
        if n_buckets < 2:
            raise ValueError(f"n_buckets must be >= 2, got {n_buckets}")
        encoder = CategoricalEncoder(None, (np.eye(n_buckets),) * n_features)
        return encoder, encoder.transform(train_cat, allocate(encoder.width))
    ys = permutation = None
    if policy in ("target", "loo", "catboost"):
        if targets is None or task is None:
            raise ValueError(f"{policy} encoding needs training labels and task")
        if task is TaskType.MULTICLASS and class_count is None:
            raise ValueError("multiclass target encodings need the class count")
        if n == 0:
            raise FitError("cannot fit a target encoding on an empty training column")
        ys = _target_columns(np.asarray(targets), task, class_count)
        permutation = np.random.default_rng(seed).permutation(n)
    columns = [
        _fit_column(train_cat[:, j], policy, ys, permutation) for j in range(n_features)
    ]
    encoder = CategoricalEncoder(
        tuple(vocab for vocab, _, _ in columns), tuple(table for _, table, _ in columns)
    )
    return encoder, _side_by_side(allocate(encoder.width), (
        (rows, None) if rows.ndim == 2 else (table, rows) for _, table, rows in columns
    ))
