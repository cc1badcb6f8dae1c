import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_classification, make_regression
from encode_num_oracle import CODECS, target_bins
from tabkit.data import TaskType
from tabkit.encode_num import (
    BinEdges,
    compute_quantile_bins,
    compute_target_bins,
    NumericEncoder,
    encode_bin_index,
    fit_numeric_encoder,
    parse_num_policy,
)
from tabkit.errors import EncodeError, ShapeError
from tabkit.preprocess import NORMALIZATIONS, fit_normalizer


def edges_of(*values):
    return BinEdges(np.array(values, dtype=float))


def encode(codec, edges, x):
    """The codec's block of the values x, through ``NumericEncoder``."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return NumericEncoder((edges,), codec).transform(xs[:, None])


class TestQuantileBins:
    def test_median_split(self):
        bins = compute_quantile_bins(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_allclose(bins.edges, [1.0, 2.5, 4.0])

    def test_constant_column_collapses_to_one_bin(self):
        bins = compute_quantile_bins(np.array([5.0, 5.0, 5.0, 5.0]), 4)
        assert bins.n_bins == 1
        assert bins.edges[0] <= 5.0 <= bins.edges[1]

    def test_uniform_draws_balanced_counts(self):
        rng = np.random.default_rng(0)
        col = rng.uniform(0.0, 1.0, size=1000)
        bins = compute_quantile_bins(col, 10)
        counts = np.bincount(encode_bin_index(bins, col), minlength=10)
        assert counts.min() >= 80 and counts.max() <= 120

    def test_tie_free_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            col = rng.permutation(np.linspace(0.0, 1.0, 97 + trial))
            bins = compute_quantile_bins(col, 8)
            counts = np.bincount(encode_bin_index(bins, col), minlength=bins.n_bins)
            assert counts.max() - counts.min() <= 1

    def test_edges_cover_train_range(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=200)
        bins = compute_quantile_bins(col, 16)
        assert bins.edges[0] <= col.min()
        assert bins.edges[-1] >= col.max()
        assert np.all(np.diff(bins.edges) > 0)

    def test_rejects_small_n_bins(self):
        with pytest.raises(ValueError):
            compute_quantile_bins(np.array([1.0, 2.0]), 1)


class TestTargetBins:
    def test_regression_step_target_splits_between_levels(self):
        bins = compute_target_bins(
            np.array([1.0, 2.0, 3.0, 4.0]),
            np.array([0.0, 0.0, 10.0, 10.0]),
            TaskType.REGRESSION,
            2,
        )
        assert bins.n_bins == 2
        assert 2.0 < bins.edges[1] < 3.0

    def test_feature_equal_to_target_gives_increasing_bin_means(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=160)
        bins = compute_target_bins(col, col, TaskType.REGRESSION, 4)
        assert bins.n_bins == 4
        idx = encode_bin_index(bins, col)
        means = [col[idx == k].mean() for k in range(bins.n_bins)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_first_split_matches_brute_force(self):
        # the greedy tree's first threshold must be the global best split
        rng = np.random.default_rng(9)
        for _ in range(5):
            col = rng.normal(size=60)
            y = (col + rng.normal(0.0, 0.3, size=60)) ** 2
            bins = compute_target_bins(col, y, TaskType.REGRESSION, 2)
            assert bins.n_bins == 2
            min_leaf = 60 // (4 * 2)
            xs = np.sort(col)
            best_sse, best_threshold = np.inf, None
            for i in range(1, 60):
                if xs[i - 1] == xs[i] or i < min_leaf or 60 - i < min_leaf:
                    continue
                threshold = (xs[i - 1] + xs[i]) / 2.0
                left, right = y[col < threshold], y[col >= threshold]
                sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
                if sse < best_sse:
                    best_sse, best_threshold = sse, threshold
            assert bins.edges[1] == pytest.approx(best_threshold)

    def test_equal_gains_in_a_leaf_take_the_lowest_threshold(self):
        # cutting after rows 2 or 4 both gain exactly 2 (no rounding on the way)
        bins = compute_target_bins(np.arange(6.0), np.array([0, 0, 1, 1, 2, 2]),
                                   TaskType.MULTICLASS, 2)
        np.testing.assert_array_equal(bins.edges, [0.0, 1.5, 5.0])

    def test_rounding_noise_gain_makes_no_split(self):
        # the gain is relative to the largest target: 2^-30 on targets near 1
        # gains about 2^-62, below splits.MIN_GAIN, while targets of 1e-7
        # that differ from 0 gain as any unit-sized step does
        noise = np.array([1.0, 1.0, 1.0 + 2.0 ** -30, 1.0 + 2.0 ** -30])
        bins = compute_target_bins(np.arange(4.0), noise, TaskType.REGRESSION, 2)
        np.testing.assert_array_equal(bins.edges, [0.0, 3.0])
        small = np.array([0.0, 0.0, 1e-7, 1e-7])
        bins = compute_target_bins(np.arange(4.0), small, TaskType.REGRESSION, 2)
        np.testing.assert_array_equal(bins.edges, [0.0, 1.5, 3.0])

    def test_equal_gains_split_the_leaf_made_first(self):
        # after the splits at 4.5 and 1.5, the leaves of rows 5..13 (made
        # first) and 0..1 each gain exactly 1; the first made splits next
        labels = np.array([3, 1, 0, 2, 0, 3, 3, 2, 3, 3, 2, 3, 3, 2])
        bins = compute_target_bins(np.arange(14.0), labels, TaskType.MULTICLASS, 4)
        np.testing.assert_array_equal(bins.edges, [0.0, 1.5, 4.5, 12.5, 13.0])

    def test_class_counts_past_int32_squares_keep_the_boundary(self):
        # 48,000 rows of class 0: the count's square passes 2^31
        edges = []
        for per_value in (10, 6000):
            col = np.repeat(np.arange(10.0), per_value)
            labels = (col >= 8).astype(np.int64)
            edges.append(compute_target_bins(col, labels, TaskType.BINCLASS, 2).edges)
        np.testing.assert_array_equal(edges[1], edges[0])
        np.testing.assert_array_equal(edges[0], [0.0, 7.5, 9.0])

    def test_classification_separable_feature(self):
        col = np.array([0.0, 0.1, 0.2, 5.0, 5.1, 5.2])
        y = np.array([0, 0, 0, 1, 1, 1])
        bins = compute_target_bins(col, y, TaskType.BINCLASS, 2)
        assert bins.n_bins == 2
        assert 0.2 < bins.edges[1] < 5.0

    def test_constant_target_falls_back_to_quantiles(self):
        col = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        bins = compute_target_bins(col, np.zeros(5), TaskType.REGRESSION, 2)
        np.testing.assert_array_equal(bins.edges, compute_quantile_bins(col, 2).edges)

    def test_min_leaf_limits_fragmentation(self):
        # N=64, n_bins=4 -> min leaf 4, so no leaf can hold fewer than 4 rows
        rng = np.random.default_rng(6)
        col = rng.normal(size=64)
        y = rng.normal(size=64)
        bins = compute_target_bins(col, y, TaskType.REGRESSION, 4)
        counts = np.bincount(encode_bin_index(bins, col), minlength=bins.n_bins)
        assert counts.min() >= 4


@pytest.mark.parametrize("seed", range(5))
def test_target_bins_match_oracle(seed):
    """Edges are byte-identical to the per-leaf scan's wherever its choices
    were not near ties, which rounding decides (see encode_num_oracle), on
    the suite's three table shapes, as the conftest fixtures build them."""
    checked = tied = 0
    for dataset, _ in (make_classification(seed=seed),
                       make_classification(n_classes=4, n_rows=200, seed=seed),
                       make_regression(seed=seed)):
        train = dataset.split["train"]
        labels = dataset.labels[train]
        for kind in NORMALIZATIONS:
            num = fit_normalizer(dataset.num[train], kind).transform(
                dataset.num[train])
            for n_bins in (2, 8, 48):
                for col in num.T:
                    expected, near_tie = target_bins(col, labels, dataset.task,
                                                     n_bins)
                    got = compute_target_bins(col, labels, dataset.task, n_bins)
                    if near_tie:
                        tied += 1
                        continue
                    checked += 1
                    assert got.edges.tobytes() == expected.edges.tobytes(), (
                        dataset.task, kind, n_bins)
    # most fits are checked: near ties stay the exception
    assert checked > 2 * tied


def _exact_impurity(ys, classification) -> Fraction:
    """Gini impurity times size, or the squared error, of one side, exactly."""
    if not len(ys):
        return Fraction(0)
    if classification:
        counts = np.unique(ys, return_counts=True)[1].tolist()
        return len(ys) - Fraction(sum(c * c for c in counts), len(ys))
    values = [Fraction(float(v)) for v in ys]
    return sum(v * v for v in values) - sum(values) ** 2 / len(values)


@st.composite
def small_binning_problems(draw):
    """A small column with ties, duplicate rows and +-0.0, integer or float
    targets, and a task."""
    task = draw(st.sampled_from(list(TaskType)))
    n = draw(st.integers(1, 40))
    values = st.sampled_from([-3.0, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5])
    col = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    if task is TaskType.REGRESSION:
        targets = st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0, 100.0])
        labels = np.array(draw(st.lists(targets, min_size=n, max_size=n)))
        if draw(st.booleans()):
            labels = labels.astype(np.int64)
    else:
        top = 1 if task is TaskType.BINCLASS else 3
        labels = np.array(draw(st.lists(st.integers(0, top), min_size=n,
                                        max_size=n)), dtype=np.int64)
    if n > 1 and draw(st.booleans()):  # duplicate the first row
        col[-1], labels[-1] = col[0], labels[0]
    return col, labels, task, draw(st.sampled_from([2, 3, 8, 48]))


@given(small_binning_problems())
def test_target_bins_invariants(problem):
    col, labels, task, n_bins = problem
    bins = compute_target_bins(col, labels, task, n_bins)
    edges = bins.edges
    assert np.all(np.diff(edges) > 0)
    assert edges[0] <= col.min() and edges[-1] >= col.max()
    assert bins.n_bins <= n_bins
    if np.all(labels == labels[0]):
        return  # the quantile fallback
    min_leaf = max(1, len(col) // (4 * n_bins))
    counts = np.bincount(encode_bin_index(bins, col), minlength=bins.n_bins)
    assert counts.min() >= min_leaf
    # the first split is a best one: brute force over every valid position
    classification = task.is_classification
    xs = np.sort(col)
    ys = labels[np.argsort(col, kind="stable")]
    best = min(
        (_exact_impurity(ys[:i], classification)
         + _exact_impurity(ys[i:], classification)
         for i in range(min_leaf, len(col) - min_leaf + 1) if xs[i - 1] < xs[i]),
        default=None)
    parent = _exact_impurity(ys, classification)
    if best is None or parent - best <= 1e-9:
        return  # no split gains enough to be sure one is taken
    # the first threshold is among the edges; with n_bins 2 it is the only one
    scores = [_exact_impurity(labels[col < t], classification)
              + _exact_impurity(labels[col >= t], classification)
              for t in edges[1:-1]]
    assert scores
    assert min(abs(score - best) for score in scores) <= 1e-9 * abs(best)


class TestCodecs:
    def test_bin_index_examples(self):
        edges = edges_of(0, 1, 2)
        assert encode_bin_index(edges, 0.5)[0] == 0
        assert encode_bin_index(edges, -7.0)[0] == 0
        assert encode_bin_index(edges, 2.0)[0] == 1

    def test_bin_index_rejects_non_finite(self):
        with pytest.raises(EncodeError):
            encode_bin_index(edges_of(0, 1), np.nan)

    def test_unary_examples(self):
        edges = edges_of(0, 1, 2, 3, 4)  # B = 4
        np.testing.assert_array_equal(encode("unary", edges, 0.5)[0], [0, 0, 0])
        np.testing.assert_array_equal(encode("unary", edges, 2.5)[0], [1, 1, 0])
        np.testing.assert_array_equal(encode("unary", edges, 3.5)[0], [1, 1, 1])

    def test_unary_monotone_in_x(self):
        rng = np.random.default_rng(7)
        edges = compute_quantile_bins(rng.normal(size=100), 12)
        xs = np.sort(rng.normal(size=50))
        codes = encode("unary", edges, xs)
        assert np.all(np.diff(codes, axis=0) >= 0)

    def test_johnson_examples(self):
        b4 = edges_of(0, 1, 2, 3, 4)
        np.testing.assert_array_equal(
            encode("johnson", b4, [0.5, 1.5, 2.5, 3.5]),
            [[0, 0], [1, 0], [1, 1], [0, 1]],
        )
        b3 = edges_of(0, 1, 2, 3)
        np.testing.assert_array_equal(
            encode("johnson", b3, [0.5, 1.5, 2.5]), [[0, 0], [1, 0], [1, 1]]
        )
        b6 = edges_of(0, 1, 2, 3, 4, 5, 6)
        np.testing.assert_array_equal(encode("johnson", b6, 4.5)[0], [0, 1, 1])

    def test_johnson_adjacent_codes_differ_in_one_bit(self):
        for n_bins in range(2, 65):
            edges = BinEdges(np.arange(n_bins + 1, dtype=float))
            centers = np.arange(n_bins) + 0.5
            codes = encode("johnson", edges, centers)
            assert codes.shape == (n_bins, (n_bins + 1) // 2)
            flips = np.abs(np.diff(codes, axis=0)).sum(axis=1)
            np.testing.assert_array_equal(flips, 1)
            # distinct bins get distinct codes
            assert len({tuple(row) for row in codes}) == n_bins

    def test_ple_examples(self):
        edges = edges_of(0, 1, 2)
        np.testing.assert_allclose(encode("ple", edges, 1.5)[0], [1.0, 0.5])
        np.testing.assert_allclose(encode("ple", edges, 2.5)[0], [1.0, 1.5])
        np.testing.assert_allclose(encode("ple", edges, -0.5)[0], [-0.5, 0.0])

    def test_ple_boundary_values(self):
        edges = edges_of(0, 1, 2, 4)
        np.testing.assert_allclose(encode("ple", edges, 1.0)[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(encode("ple", edges, 2.0)[0], [1.0, 1.0, 0.0])

    def test_ple_continuous_and_nonincreasing_in_range(self):
        rng = np.random.default_rng(11)
        edges = compute_quantile_bins(rng.normal(size=80), 6)
        xs = np.linspace(edges.edges[0], edges.edges[-1], 400)
        codes = encode("ple", edges, xs)
        assert np.all(np.diff(codes, axis=1) <= 1e-12)
        jumps = np.abs(np.diff(codes, axis=0)).max()
        assert jumps < 0.2  # fine grid, small steps everywhere

    def test_ple_saturated_components_count_bin_index(self):
        rng = np.random.default_rng(12)
        edges = compute_quantile_bins(rng.normal(size=90), 8)
        xs = rng.uniform(edges.edges[0], edges.edges[-1] - 1e-9, size=40)
        codes = encode("ple", edges, xs)
        saturated = (codes >= 1.0).sum(axis=1)
        np.testing.assert_array_equal(saturated, encode_bin_index(edges, xs))


class TestNumericEncoder:
    def test_policy_parsing(self):
        assert parse_num_policy("none") is None
        assert parse_num_policy("Q_bins") == ("quantile", "bin_index")
        assert parse_num_policy("T_Unary") == ("target", "unary")
        assert parse_num_policy("Q_Johnson") == ("quantile", "johnson")
        assert parse_num_policy("T_PLE") == ("target", "ple")
        with pytest.raises(ValueError):
            parse_num_policy("q_bins")

    def test_widths_per_codec(self):
        rng = np.random.default_rng(13)
        num = rng.normal(size=(100, 3))
        y = rng.integers(0, 2, size=100)
        for policy, per_feature in [
            ("Q_bins", 1), ("Q_Unary", 7), ("Q_Johnson", 4), ("Q_PLE", 8),
        ]:
            enc = fit_numeric_encoder(num, policy, y, TaskType.BINCLASS, n_bins=8)
            out = enc.transform(num)
            assert out.shape == (100, 3 * per_feature)
            assert enc.width == 3 * per_feature

    def test_none_policy_returns_none(self):
        assert fit_numeric_encoder(np.zeros((5, 2)), "none") is None

    def test_target_policy_requires_labels(self):
        with pytest.raises(ValueError):
            fit_numeric_encoder(np.zeros((5, 2)), "T_bins")

    def test_transform_shape_mismatch(self):
        rng = np.random.default_rng(14)
        enc = fit_numeric_encoder(rng.normal(size=(50, 2)), "Q_bins", n_bins=4)
        with pytest.raises(ShapeError, match="^encoder was fitted on 2 columns, got 3$"):
            enc.transform(rng.normal(size=(5, 3)))

    def test_collapsed_feature_shrinks_its_width(self):
        num = np.column_stack([np.full(40, 3.0), np.linspace(0, 1, 40)])
        enc = fit_numeric_encoder(num, "Q_PLE", n_bins=4)
        # constant feature collapses to 1 bin -> width 1; other keeps 4
        assert enc.transform(num).shape == (40, 5)

    @given(st.data(), st.sampled_from(sorted(CODECS)),
           st.lists(st.integers(1, 64), min_size=1, max_size=3))
    def test_transform_equals_the_reference_codecs(self, data, codec, n_bins):
        bins = tuple(BinEdges(np.sort(data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=b + 1, max_size=b + 1, unique=True))))
            for b in n_bins)
        # values inside and beyond each column's edges, and the edges themselves
        num = np.column_stack([data.draw(st.lists(
            st.floats(-2e3, 2e3) | st.sampled_from(edges.edges.tolist()),
            min_size=20, max_size=20)) for edges in bins])
        expected = np.hstack([CODECS[codec](edges, num[:, j])
                              for j, edges in enumerate(bins)])
        encoder = NumericEncoder(bins, codec)
        assert encoder.width == expected.shape[1]
        got = encoder.transform(num)
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()
        out = np.full((len(num), encoder.width + 2), 7.0)
        encoder.transform(num, out=out[:, 1:-1])
        assert out[:, 1:-1].tobytes() == expected.tobytes()
        assert (out[:, [0, -1]] == 7.0).all()

    @pytest.mark.parametrize("policy", ["Q_bins", "Q_Unary", "T_Johnson",
                                        "Q_PLE", "T_PLE"])
    def test_table_codecs_write_without_a_block_copy(self, policy):
        # A column's block is gathered from its code table a chunk at a time
        # into ``out``, or, under PLE, computed and clipped in its view of
        # ``out``. What the transform itself holds is one column's bin
        # indices with their searchsorted and clip temporaries (a few 80 kB
        # int64 vectors at 10,000 rows) plus one gather chunk of
        # encode_cat._GATHER_FLOATS float64s (128 kB), well under 1 MB. A
        # whole 48-bin column code made before the copy would take 3.8 MB
        # (unary, width 47), 1.9 MB (Johnson, width 24) or 3.8 MB (PLE,
        # width 48, plus its quotient and clipped copies) on its own.
        rng = np.random.default_rng(0)
        num = rng.normal(size=(10_000, 4))
        y = rng.integers(0, 2, size=10_000)
        encoder = fit_numeric_encoder(num, policy, y, TaskType.BINCLASS)
        out = np.empty((len(num), encoder.width))
        tracemalloc.start()
        try:
            encoder.transform(num, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
