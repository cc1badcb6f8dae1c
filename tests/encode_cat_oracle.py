"""Reference categorical encoders: one scalar encoder per token and policy.

This is the per-token implementation that ``tabkit.encode_cat`` replaced with
one lookup table per column. ``fit_categorical_encoder`` here and there must
give the same training matrix and the same ``transform`` output, byte for
byte. The scalar helpers state each policy's formula one token at a time:
``encode_catboost_ordered`` with a ``position`` walks the fitting permutation
and is the O(N^2) oracle of the ordered (CatBoost) training column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tabkit.data import TaskType
from tabkit.errors import FitError, ShapeError

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


@dataclass(frozen=True)
class Vocabulary:
    """Distinct training tokens in first-appearance order; unseen maps to K."""

    tokens: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {token: i for i, token in enumerate(self.tokens)}
        )

    @classmethod
    def fit(cls, column) -> "Vocabulary":
        seen: dict[str, None] = {}
        for token in column:
            if token not in seen:
                seen[token] = None
        return cls(tokens=tuple(seen))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self._index.get(token, self.size)


def encode_ordinal(vocab: Vocabulary, token: str) -> int:
    return vocab.lookup(token)


def encode_onehot(vocab: Vocabulary, token: str) -> np.ndarray:
    out = np.zeros(vocab.size + 1)
    out[vocab.lookup(token)] = 1.0
    return out


def binary_code_width(vocab_size: int) -> int:
    return max(1, int(vocab_size).bit_length())


def encode_binarycode(vocab: Vocabulary, token: str) -> np.ndarray:
    """Big-endian base-2 representation of the ordinal index."""
    width = binary_code_width(vocab.size)
    index = vocab.lookup(token)
    return np.array(
        [(index >> (width - 1 - b)) & 1 for b in range(width)], dtype=np.float64
    )


def encode_hash(token: str, n_buckets: int = DEFAULT_N_BUCKETS) -> np.ndarray:
    """Stateless one-hot over bucket fnv1a64(token) mod n_buckets."""
    if n_buckets < 2:
        raise ValueError(f"n_buckets must be >= 2, got {n_buckets}")
    out = np.zeros(n_buckets)
    out[fnv1a64(token) % n_buckets] = 1.0
    return out


@dataclass(frozen=True)
class TargetStats:
    """Per-category count and target sum, plus the global target mean.

    For the ordered (CatBoost) variant the fitting permutation and the
    training sequence it induces are kept so prefix statistics can be
    recomputed for any training position.
    """

    counts: dict
    sums: dict
    prior: float
    smoothing: float = DEFAULT_SMOOTHING
    prior_weight: float = DEFAULT_PRIOR_WEIGHT
    permutation: np.ndarray | None = None
    perm_tokens: tuple[str, ...] | None = None
    perm_targets: np.ndarray | None = None


def fit_target_encoding(tokens, targets, m: float = DEFAULT_SMOOTHING) -> TargetStats:
    targets = np.asarray(targets, dtype=np.float64)
    if len(targets) == 0:
        raise FitError("cannot fit a target encoding on an empty training column")
    if m < 0:
        raise ValueError(f"smoothing must be >= 0, got {m}")
    counts: dict[str, int] = {}
    sums: dict[str, float] = {}
    for token, y in zip(tokens, targets):
        counts[token] = counts.get(token, 0) + 1
        sums[token] = sums.get(token, 0.0) + float(y)
    return TargetStats(counts=counts, sums=sums, prior=float(targets.mean()), smoothing=m)


def fit_catboost_encoding(
    tokens, targets, seed: int, a: float = DEFAULT_PRIOR_WEIGHT
) -> TargetStats:
    base = fit_target_encoding(tokens, targets)
    tokens = list(tokens)
    targets = np.asarray(targets, dtype=np.float64)
    permutation = np.random.default_rng(seed).permutation(len(targets))
    return TargetStats(
        counts=base.counts,
        sums=base.sums,
        prior=base.prior,
        prior_weight=a,
        permutation=permutation,
        perm_tokens=tuple(tokens[i] for i in permutation),
        perm_targets=targets[permutation],
    )


def encode_target(stats: TargetStats, token: str) -> float:
    count = stats.counts.get(token)
    if count is None:
        return stats.prior
    m = stats.smoothing
    return (stats.sums[token] + m * stats.prior) / (count + m)


def encode_leave_one_out(stats: TargetStats, token: str, own_target=None) -> float:
    count = stats.counts.get(token)
    if count is None:
        return stats.prior
    if own_target is None:
        return stats.sums[token] / count
    if count == 1:
        return stats.prior
    return (stats.sums[token] - float(own_target)) / (count - 1)


def encode_catboost_ordered(stats: TargetStats, position, token: str) -> float:
    """Ordered target statistic.

    ``position`` is the row's index in the fitting permutation; the prefix
    aggregates same-category rows strictly before it. ``position=None`` means
    an inference row, which uses full training statistics.
    """
    a = stats.prior_weight
    if position is None:
        count = stats.counts.get(token)
        if count is None:
            return stats.prior
        return (stats.sums[token] + a * stats.prior) / (count + a)
    prefix_sum = 0.0
    prefix_count = 0
    for other, y in zip(stats.perm_tokens[:position], stats.perm_targets[:position]):
        if other == token:
            prefix_sum += y
            prefix_count += 1
    return (prefix_sum + a * stats.prior) / (prefix_count + a)


def _target_columns(targets: np.ndarray, task: TaskType, class_count) -> list[np.ndarray]:
    """Real-valued target columns: the labels themselves, or one-vs-rest
    indicators per class for multiclass."""
    if task is TaskType.MULTICLASS:
        return [(targets == c).astype(np.float64) for c in range(class_count)]
    return [np.asarray(targets, dtype=np.float64)]


@dataclass(frozen=True)
class CategoricalEncoder:
    """All categorical columns fitted under one policy."""

    policy: str
    n_buckets: int = DEFAULT_N_BUCKETS
    vocabularies: tuple[Vocabulary, ...] | None = None
    stats: tuple[tuple[TargetStats, ...], ...] | None = None
    n_hash_features: int = 0

    @property
    def n_features(self) -> int:
        if self.policy == "hash":
            return self.n_hash_features
        if self.vocabularies is not None:
            return len(self.vocabularies)
        return len(self.stats)

    @property
    def width(self) -> int:
        return sum(self._feature_widths())

    def _feature_widths(self) -> list[int]:
        if self.policy == "ordinal":
            return [1] * len(self.vocabularies)
        if self.policy == "onehot":
            return [v.size + 1 for v in self.vocabularies]
        if self.policy == "binary":
            return [binary_code_width(v.size) for v in self.vocabularies]
        if self.policy == "hash":
            return [self.n_buckets] * self.n_hash_features
        return [len(per_feature) for per_feature in self.stats]

    def transform(self, cat: np.ndarray) -> np.ndarray:
        """Inference-semantics encoding of categorical rows."""
        if cat.shape[1] != self.n_features:
            raise ShapeError(
                f"encoder was fitted on {self.n_features} columns, got {cat.shape[1]}"
            )
        n = cat.shape[0]
        if self.n_features == 0 or n == 0:
            return np.empty((n, self.width))
        blocks = []
        for j in range(cat.shape[1]):
            blocks.append(self._transform_column(cat[:, j], j))
        return np.hstack(blocks)

    def _transform_column(self, col: np.ndarray, j: int) -> np.ndarray:
        distinct, inverse = np.unique(col.astype(str), return_inverse=True)
        if self.policy == "ordinal":
            codes = np.array([self.vocabularies[j].lookup(t) for t in distinct])
            return codes[inverse].astype(np.float64)[:, None]
        if self.policy == "onehot":
            table = np.array([encode_onehot(self.vocabularies[j], t) for t in distinct])
            return table[inverse]
        if self.policy == "binary":
            table = np.array(
                [encode_binarycode(self.vocabularies[j], t) for t in distinct]
            )
            return table[inverse]
        if self.policy == "hash":
            table = np.array([encode_hash(t, self.n_buckets) for t in distinct])
            return table[inverse]
        if self.policy == "target":
            table = np.array(
                [[encode_target(stats, t) for stats in self.stats[j]] for t in distinct]
            )
            return table[inverse]
        if self.policy == "loo":
            table = np.array(
                [[encode_leave_one_out(stats, t) for stats in self.stats[j]]
                 for t in distinct]
            )
            return table[inverse]
        # catboost inference: full statistics
        table = np.array(
            [[encode_catboost_ordered(stats, None, t) for stats in self.stats[j]]
             for t in distinct]
        )
        return table[inverse]


def _loo_train_column(col, targets) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.float64)
    distinct, inverse = np.unique(col.astype(str), return_inverse=True)
    counts = np.bincount(inverse).astype(np.float64)
    sums = np.bincount(inverse, weights=targets)
    prior = targets.mean()
    row_counts = counts[inverse]
    row_sums = sums[inverse]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (row_sums - targets) / (row_counts - 1.0)
    return np.where(row_counts == 1.0, prior, out)


def _catboost_train_column(col, targets, permutation, a: float) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.float64)
    n = len(targets)
    prior = targets.mean()
    position = np.empty(n, dtype=np.int64)
    position[permutation] = np.arange(n)
    _, codes = np.unique(col.astype(str), return_inverse=True)
    # group rows by category, ordered by permutation position, then take
    # exclusive prefix sums within each group
    order = np.lexsort((position, codes))
    y_ord = targets[order]
    codes_ord = codes[order]
    group_start = np.r_[True, codes_ord[1:] != codes_ord[:-1]]
    csum = np.cumsum(y_ord) - y_ord
    base = np.where(group_start, np.cumsum(y_ord) - y_ord, 0.0)
    group_base = np.maximum.accumulate(np.where(group_start, np.arange(n), 0))
    prefix_count = np.arange(n) - group_base
    prefix_sum = csum - base[group_base]
    out = np.empty(n)
    out[order] = (prefix_sum + a * prior) / (prefix_count + a)
    return out


def fit_categorical_encoder(
    train_cat: np.ndarray,
    policy: str,
    targets: np.ndarray | None = None,
    task: TaskType | None = None,
    class_count: int | None = None,
    seed: int = 0,
    smoothing: float = DEFAULT_SMOOTHING,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> tuple[CategoricalEncoder, np.ndarray]:
    """Fit all categorical columns and encode the training rows in one pass.

    Returns the fitted encoder (inference semantics via ``transform``) and
    the training-row matrix, which for leave-one-out and ordered statistics
    differs from what ``transform`` would produce.
    """
    if policy not in CAT_POLICIES:
        raise ValueError(f"unknown cat_policy {policy!r}")
    n, n_features = train_cat.shape
    target_family = policy in ("target", "loo", "catboost")
    if target_family:
        if targets is None or task is None:
            raise ValueError(f"{policy} encoding needs training labels and task")
        if task is TaskType.MULTICLASS and class_count is None:
            raise ValueError("multiclass target encodings need the class count")
        if n == 0:
            raise FitError("cannot fit a target encoding on an empty training column")
        columns = _target_columns(np.asarray(targets), task, class_count)

    if policy == "hash":
        encoder = CategoricalEncoder(
            policy=policy, n_buckets=n_buckets, n_hash_features=n_features
        )
        return encoder, encoder.transform(train_cat)

    if policy in ("ordinal", "onehot", "binary"):
        vocabs = tuple(Vocabulary.fit(train_cat[:, j]) for j in range(n_features))
        encoder = CategoricalEncoder(policy=policy, vocabularies=vocabs)
        return encoder, encoder.transform(train_cat)

    permutation = np.random.default_rng(seed).permutation(n)
    stats = []
    train_blocks = []
    for j in range(n_features):
        col = train_cat[:, j]
        per_target = []
        col_blocks = []
        for y in columns:
            if policy == "target":
                st = fit_target_encoding(col, y, m=smoothing)
                values = np.array([encode_target(st, t) for t in col])
            elif policy == "loo":
                st = fit_target_encoding(col, y)
                values = _loo_train_column(col, y)
            else:
                base = fit_target_encoding(col, y)
                st = TargetStats(
                    counts=base.counts, sums=base.sums, prior=base.prior,
                    prior_weight=prior_weight, permutation=permutation,
                    perm_tokens=tuple(col[i] for i in permutation),
                    perm_targets=np.asarray(y, dtype=np.float64)[permutation],
                )
                values = _catboost_train_column(col, y, permutation, prior_weight)
            per_target.append(st)
            col_blocks.append(values)
        stats.append(tuple(per_target))
        train_blocks.append(np.column_stack(col_blocks))
    encoder = CategoricalEncoder(policy=policy, stats=tuple(stats))
    train_matrix = (
        np.hstack(train_blocks) if train_blocks else np.empty((n, 0))
    )
    return encoder, train_matrix
