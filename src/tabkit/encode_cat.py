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

Cells become tokens once per table: ``_tokenize`` turns each column into
integer codes, numbering its distinct cells in first-appearance order, each
with its token. Fitting and ``transform`` work on codes only: a vocabulary is
applied as one lookup per code, a column's hash buckets are computed once per
distinct token, and a column is written as ``table[lookup[codes]]``. The
public functions still take cells and tokenize them on entry; the pipeline
passes the cached codes of its table instead.

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
from typing import Callable, NamedTuple

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


@dataclass(eq=False)
class _Column:
    """One categorical column's distinct cells, numbered by code: each code's
    token and first cell, the code of the missing ("") cells or -1, and, once
    a hash encoder has asked, each token's FNV-1a hash."""

    tokens: list[str]
    cells: list
    blank: int
    hashes: np.ndarray | None = None

    def buckets(self, n_buckets: int) -> np.ndarray:
        """Each code's hash bucket; every token is hashed once per column."""
        if self.hashes is None:
            self.hashes = np.array([fnv1a64(token) for token in self.tokens],
                                   dtype=np.uint64)
        return (self.hashes % np.uint64(n_buckets)).astype(np.intp)


class _Codes(NamedTuple):
    """A categorical table as integer codes: ``codes[i, j]`` numbers cell
    (i, j) among the distinct cells of column j, described by ``columns[j]``.
    The rows of a table's parts share its columns."""

    codes: np.ndarray
    columns: tuple[_Column, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    def take(self, rows: np.ndarray) -> _Codes:
        return _Codes(self.codes[rows], self.columns)

    def to_cells(self) -> np.ndarray:
        """The table as an object array of its cells' tokens."""
        out = np.empty(self.shape, dtype=object)
        for j, column in enumerate(self.columns):
            out[:, j] = np.array(column.tokens, dtype=object)[self.codes[:, j]]
        return out


def _tokens(col: np.ndarray) -> tuple[np.ndarray, _Column]:
    """Column ``col`` as codes, its distinct cells numbered in first-appearance
    order. A cell's token is as ``col.astype(str)`` renders it: a column of
    ``str`` cells without NULs is its own tokens; any other column goes
    through numpy, which renders non-``str`` cells its own way and drops
    trailing NULs. Two cells share a code when both their tokens and the
    cells themselves are equal, so that a code is one token to the encoders
    and one cell to the imputer, which counts cells as ``Counter`` does."""
    cells = col.tolist()
    plain = set(map(type, cells)) <= {str} and "\x00" not in "".join(cells)
    tokens = cells if plain else col.astype(str).tolist()
    index: dict = {}
    codes = np.array([index.setdefault(key, len(index)) for key in zip(tokens, cells)],
                     dtype=np.intp)
    return codes, _Column([token for token, _ in index], [cell for _, cell in index],
                          index.get(("", ""), -1))


def _tokenize(cat: np.ndarray) -> _Codes:
    """A table of categorical cells as codes, one column at a time."""
    codes = np.empty(cat.shape, dtype=np.intp)
    columns = []
    for j in range(cat.shape[1]):
        codes[:, j], column = _tokens(cat[:, j])
        columns.append(column)
    return _Codes(codes, tuple(columns))


def _first_seen(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """The codes (of ``n_codes``) that ``codes`` holds, in order of first
    appearance."""
    first = np.full(n_codes, len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    present = np.flatnonzero(first < len(codes))
    return present[np.argsort(first[present])]


def _coded(cat) -> _Codes:
    """``cat`` as codes: tokenized here if it is an array of cells."""
    return cat if isinstance(cat, _Codes) else _tokenize(cat)


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

    def transform(self, cat, out: np.ndarray | None = None) -> np.ndarray:
        """Inference-semantics encoding of categorical rows (cells, or their
        codes), written into ``out`` (an (n, width) array or view) when
        given."""
        codes = _coded(cat)
        check_width("encoder", len(self.tables), codes.shape[1])
        if out is None:
            out = np.empty((codes.shape[0], self.width))
        widths = [table.shape[1] for table in self.tables]
        for j, view in enumerate(_blocks(out, widths)):
            _write(view, self.tables[j], self._rows(j, codes))
        return out

    def _rows(self, j: int, codes: _Codes) -> np.ndarray:
        """The table row of each cell of column j: one lookup per code."""
        column = codes.columns[j]
        if self.vocabularies is None:
            lookup = column.buckets(len(self.tables[j]))
        else:
            vocab, unseen = self.vocabularies[j], len(self.vocabularies[j])
            lookup = np.array([vocab.get(token, unseen) for token in column.tokens],
                              dtype=np.intp)
        return lookup[codes.codes[:, j]]


# the most floats a table gather copies at once (128 KiB): on a 6,000-row,
# 201-wide one-hot column, as fast as larger chunks and faster than one gather
_GATHER_FLOATS = 1 << 14
_ONE_BITS = np.float64(1.0).view(np.uint64)


def _blocks(out: np.ndarray, widths) -> list[np.ndarray]:
    """Views of ``out``'s consecutive column blocks of the given widths."""
    stops = np.cumsum(widths, dtype=np.intp).tolist()
    return [out[:, stop - width:stop] for width, stop in zip(widths, stops)]


def _write(view: np.ndarray, table: np.ndarray, rows: np.ndarray | None) -> None:
    """Write ``table[rows]`` into ``view`` (an index vector ``rows``: a
    categorical column's table rows, or a numeric column's bin indices), or
    ``table`` itself when ``rows`` is None (a block computed whole). An
    identity table (one-hot, hash) is written as a zero fill and one 1.0 per
    row, its exact bytes; any other is gathered a few rows at a time, so that
    no whole copy is made."""
    if rows is None:
        view[...] = table
    elif _is_identity(table):
        view[...] = 0.0
        view[np.arange(len(rows)), rows] = 1.0
    else:
        step = max(1, _GATHER_FLOATS // max(1, table.shape[1]))
        for lo in range(0, len(rows), step):
            view[lo:lo + step] = table[rows[lo:lo + step]]


def _is_identity(table: np.ndarray) -> bool:
    """Whether ``table`` is ``np.eye(len(table))`` bit for bit."""
    if table.dtype != np.float64 or table.shape[0] != table.shape[1]:
        return False
    bits = table.view(np.uint64)
    return (np.count_nonzero(bits) == len(table)
            and bool((np.diagonal(bits) == _ONE_BITS).all()))


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


def _ordered_groups(sorted_codes, permutation) -> tuple:
    """The target-independent part of a column's CatBoost training rows:
    the row order that groups rows by category, each group in permutation
    order; for each ordered row, the ordered index where its group starts;
    and its prefix count plus DEFAULT_PRIOR_WEIGHT."""
    n = len(sorted_codes)
    position = np.empty(n, dtype=np.int64)
    position[permutation] = np.arange(n)
    order = np.lexsort((position, sorted_codes))
    codes_ord = sorted_codes[order]
    group_start = np.r_[True, codes_ord[1:] != codes_ord[:-1]]
    group_base = np.maximum.accumulate(np.where(group_start, np.arange(n), 0))
    return order, group_base, (np.arange(n) - group_base) + DEFAULT_PRIOR_WEIGHT


def _ordered_column(groups, y, prior) -> np.ndarray:
    """CatBoost training column: each row's same-category prefix in the
    permutation, smoothed toward the prior with weight DEFAULT_PRIOR_WEIGHT;
    ``groups`` is the column's ``_ordered_groups``."""
    order, group_base, smoothed_count = groups
    y_ord = y[order]
    # exclusive prefix sums within each group
    csum = np.cumsum(y_ord) - y_ord
    out = np.empty(len(y))
    a = DEFAULT_PRIOR_WEIGHT
    out[order] = (csum - csum[group_base] + a * prior) / smoothed_count
    return out


def _fit_column(codes: np.ndarray, tokens: list[str], policy: str, ys, permutation):
    """(vocabulary, table, training rows) of one column under a non-hash
    policy, from each training cell's code and each code's token. The
    training rows are an (n, width) block for ``loo`` and ``catboost``, and
    the table row of each cell otherwise."""
    vocab: dict[str, int] = {}
    for code in _first_seen(codes, len(tokens)).tolist():
        vocab.setdefault(tokens[code], len(vocab))
    k = len(vocab)
    # from here on, each training cell's vocabulary index
    codes = np.array([vocab.get(token, k) for token in tokens], dtype=np.intp)[codes]
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
    if policy == "catboost":  # rows grouped by their token's sorted place
        groups = _ordered_groups(np.argsort(np.argsort(tokens))[codes], permutation)
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
                train_rows.append(_ordered_column(groups, y, prior))
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

    ``train_cat`` is categorical cells, tokenized here, or their codes.
    Returns the fitted encoder (inference semantics via ``transform``) and
    the training-row matrix, which for leave-one-out and ordered statistics
    differs from what ``transform`` would produce. ``allocate(width)``, once
    the encoder's width is known, gives the (n, width) array or view that the
    training rows are written into; by default it is a new array.
    """
    if policy not in CAT_POLICIES:
        raise ValueError(f"unknown cat_policy {policy!r}")
    codes = _coded(train_cat)
    n, n_features = codes.shape
    allocate = allocate or (lambda width: np.empty((n, width)))
    if policy == "hash":
        if n_buckets < 2:
            raise ValueError(f"n_buckets must be >= 2, got {n_buckets}")
        encoder = CategoricalEncoder(None, (np.eye(n_buckets),) * n_features)
        return encoder, encoder.transform(codes, allocate(encoder.width))
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
        _fit_column(codes.codes[:, j], column.tokens, policy, ys, permutation)
        for j, column in enumerate(codes.columns)
    ]
    encoder = CategoricalEncoder(
        tuple(vocab for vocab, _, _ in columns), tuple(table for _, table, _ in columns)
    )
    out = allocate(encoder.width)
    widths = [table.shape[1] for table in encoder.tables]
    for (_, table, rows), view in zip(columns, _blocks(out, widths)):
        if rows.ndim == 2:  # a loo or catboost training block
            _write(view, rows, None)
        else:
            _write(view, table, rows)
    return encoder, out
