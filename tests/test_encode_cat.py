import numpy as np
import pytest

import encode_cat_oracle as oracle
from tabkit.data import TaskType
from tabkit.encode_cat import CategoricalEncoder, fit_categorical_encoder, fnv1a64
from tabkit.errors import FitError, ShapeError

# regression statistics are in the fit's target unit, which maps labels whose
# largest |value| is 1.0 by 2^-1
HALF = 0.5


def column(tokens) -> np.ndarray:
    return np.array(list(tokens), dtype=object).reshape(-1, 1)


def fit_column(tokens, policy, targets=None, task=None, **kwargs):
    """Fit one categorical column; returns (encoder, training matrix)."""
    return fit_categorical_encoder(column(tokens), policy, targets, task, **kwargs)


def encode(encoder: CategoricalEncoder, *tokens) -> np.ndarray:
    return encoder.transform(column(tokens))


class TestVocabulary:
    def test_first_appearance_order(self):
        encoder, train = fit_column(["b", "a", "b", "c", "a"], "ordinal")
        assert tuple(encoder.vocabularies[0]) == ("b", "a", "c")
        np.testing.assert_array_equal(train[:, 0], [0, 1, 0, 2, 1])

    def test_ordinal_examples(self):
        encoder, _ = fit_column("abc", "ordinal")
        np.testing.assert_array_equal(encode(encoder, "b", "z")[:, 0], [1, 3])
        encoder, _ = fit_column("a", "ordinal")
        assert encode(encoder, "a")[0, 0] == 0

    def test_onehot_examples(self):
        encoder, _ = fit_column("abc", "onehot")
        np.testing.assert_array_equal(encode(encoder, "b")[0], [0, 1, 0, 0])
        np.testing.assert_array_equal(encode(encoder, "zzz")[0], [0, 0, 0, 1])
        encoder, _ = fit_column("a", "onehot")
        assert encode(encoder, "a").shape == (1, 2)

    def test_onehot_always_sums_to_one(self):
        rng = np.random.default_rng(0)
        encoder, _ = fit_column([f"t{i}" for i in rng.integers(0, 9, size=60)],
                                "onehot")
        for token in ["t0", "t5", "never-seen"]:
            assert encode(encoder, token).sum() == 1.0

    def test_binary_examples(self):
        five, _ = fit_column("abcde", "binary")
        np.testing.assert_array_equal(encode(five, "e")[0], [1, 0, 0])
        np.testing.assert_array_equal(encode(five, "unseen")[0], [1, 0, 1])
        one, _ = fit_column("a", "binary")
        np.testing.assert_array_equal(encode(one, "a")[0], [0])

    @pytest.mark.parametrize("policy", ["ordinal", "onehot", "binary"])
    def test_empty_column_fits(self, policy):
        # no training token: the table is the unseen row alone
        encoder, train = fit_column([], policy)
        assert encoder.vocabularies == ({},)
        assert train.shape == (0, 1)
        assert encode(encoder, "a").shape == (1, 1)

    def test_binary_round_trips_every_index(self):
        for size in (1, 2, 5, 8, 17):
            tokens = [f"t{i}" for i in range(size)]
            encoder, _ = fit_column(tokens, "binary")
            codes = encode(encoder, *tokens, "unseen")
            width = codes.shape[1]
            for index, bits in enumerate(codes):
                decoded = int(sum(int(b) << (width - 1 - k) for k, b in enumerate(bits)))
                assert decoded == index


class TestHash:
    def test_reference_hash_golden_values(self):
        # FNV-1a 64-bit, frozen from an independent reference computation
        assert fnv1a64("abc") == 0xE71FA2190541574B
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("abc") % 8 == 3
        encoder, _ = fit_column(["x"], "hash", n_buckets=8)
        np.testing.assert_array_equal(
            encode(encoder, "abc")[0], [0, 0, 0, 1, 0, 0, 0, 0]
        )

    def test_deterministic_and_one_hot(self):
        rng = np.random.default_rng(1)
        tokens = ["".join(chr(rng.integers(97, 123)) for _ in range(6))
                  for _ in range(20)]
        encoder, train = fit_column(tokens[:5], "hash")
        first = encode(encoder, *tokens)
        np.testing.assert_array_equal(first, encode(encoder, *tokens))
        np.testing.assert_array_equal(first[:5], train)
        np.testing.assert_array_equal(first.sum(axis=1), np.ones(20))

    def test_rejects_tiny_bucket_count(self):
        with pytest.raises(ValueError):
            fit_column(["a"], "hash", n_buckets=1)


class TestTargetEncoding:
    def test_smoothing_formula(self):
        # category "a": count 2, mean 1.0; global mean P = 0.5, m = 10; the
        # labels' largest is 1.0, so statistics are in units of 2 (HALF)
        encoder, _ = fit_column("aabb", "target", np.array([1.0, 1.0, 0.0, 0.0]),
                                TaskType.REGRESSION)
        assert encode(encoder, "a")[0, 0] == pytest.approx(HALF * 7.0 / 12.0)

    def test_zero_smoothing_gives_raw_mean(self):
        # the shipping encoder fixes m = 10; the formula at m = 0 is the oracle's
        stats = oracle.fit_target_encoding(["a", "a", "b"], [1.0, 0.0, 1.0], m=0.0)
        assert oracle.encode_target(stats, "a") == 0.5

    def test_unseen_gets_prior(self):
        encoder, _ = fit_column("ab", "target", np.array([1.0, 0.0]),
                                TaskType.REGRESSION)
        assert encode(encoder, "zzz")[0, 0] == HALF * 0.5

    def test_empty_column_raises(self):
        with pytest.raises(FitError):
            fit_column([], "target", np.array([]), TaskType.REGRESSION)


class TestLeaveOneOut:
    def fit(self, tokens, targets):
        return fit_column(tokens, "loo", np.asarray(targets, dtype=np.float64),
                          TaskType.REGRESSION)

    def test_training_row_excludes_itself(self):
        _, train = self.fit("aaa", [1.0, 0.0, 1.0])
        assert train[0, 0] == HALF * 0.5

    def test_singleton_gets_prior(self):
        encoder, train = self.fit("abb", [1.0, 0.0, 0.0])
        prior = encode(encoder, "never-seen")[0, 0]
        assert prior == HALF / 3.0
        assert train[0, 0] == prior

    def test_inference_uses_plain_mean(self):
        y = np.array([1.0, 1.0, 0.0])
        encoder, _ = self.fit("aaa", y)
        assert encode(encoder, "a")[0, 0] == pytest.approx(HALF * 2.0 / 3.0)
        assert encode(encoder, "zzz")[0, 0] == (HALF * y).mean()

    def test_exactness_identity(self):
        rng = np.random.default_rng(2)
        tokens = [f"t{i}" for i in rng.integers(0, 4, size=50)]
        y = rng.random(50)
        _, train = self.fit(tokens, y)
        for i, (token, own) in enumerate(zip(tokens, y)):
            same = [t for t in range(50) if tokens[t] == token]
            if len(same) == 1:
                continue
            total = sum(y[t] for t in same)
            assert total - own == pytest.approx((len(same) - 1) * train[i, 0])


class TestCatboostOrdered:
    def test_three_row_example(self):
        y = np.array([1.0, 0.0, 1.0])
        _, train = fit_column("aaa", "catboost", y, TaskType.REGRESSION, seed=0)
        y = HALF * y  # the labels in the fit's target unit
        # read rows in permutation order: prefix stats only
        perm = np.random.default_rng(0).permutation(3)
        perm_y = y[perm]
        prior = y.mean()
        expected = [
            (0.0 + prior) / 1.0,
            (perm_y[0] + prior) / 2.0,
            (perm_y[0] + perm_y[1] + prior) / 3.0,
        ]
        got = train[perm, 0]
        np.testing.assert_allclose(got, expected)
        assert got[0] == pytest.approx(HALF * 2.0 / 3.0)

    def test_first_seen_row_gets_prior(self):
        rng = np.random.default_rng(3)
        tokens = [f"t{i}" for i in rng.integers(0, 3, size=15)]
        y = rng.random(15)
        # the oracle's scalar walk over permutation positions
        stats = oracle.fit_catboost_encoding(tokens, y, seed=5)
        seen = set()
        for position, token in enumerate(stats.perm_tokens):
            if token not in seen:
                enc = oracle.encode_catboost_ordered(stats, position, token)
                assert enc == pytest.approx(stats.prior)
                seen.add(token)
        # the shipping training column, read in the same permutation order
        _, train = fit_column(tokens, "catboost", y, TaskType.REGRESSION, seed=5)
        seen = set()
        for row in np.random.default_rng(5).permutation(15):
            if tokens[row] not in seen:
                assert train[row, 0] == pytest.approx(y.mean())
                seen.add(tokens[row])

    def test_inference_is_full_statistic(self):
        y = np.array([1.0, 0.0, 1.0])
        encoder, _ = fit_column("aab", "catboost", y, TaskType.REGRESSION, seed=1)
        prior = (HALF * y).mean()
        assert encode(encoder, "a")[0, 0] == pytest.approx((HALF + prior) / 3.0)
        assert encode(encoder, "zzz")[0, 0] == prior

    def test_inference_permutation_independent(self):
        tokens = ["a", "b", "a", "c", "b", "a"]
        y = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        values = {
            seed: encode(fit_column(tokens, "catboost", y, TaskType.REGRESSION,
                                    seed=seed)[0], *"abc")
            for seed in range(4)
        }
        for seed in range(1, 4):
            np.testing.assert_array_equal(values[0], values[seed])


class TestColumnEncoder:
    def test_bulk_catboost_matches_prefix_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            n = 20
            cat = rng.choice(["x", "y", "z"], size=(n, 1)).astype(object)
            y = rng.integers(0, 2, size=n).astype(np.int64)
            encoder, train = fit_categorical_encoder(
                cat, "catboost", y, TaskType.BINCLASS, seed=trial
            )
            perm = np.random.default_rng(trial).permutation(n)
            prior = y.astype(float).mean()
            # O(N^2) oracle: walk the permutation, accumulate same-category prefixes
            expected = np.empty(n)
            for pos, row in enumerate(perm):
                prefix = [
                    y[perm[k]] for k in range(pos) if cat[perm[k], 0] == cat[row, 0]
                ]
                expected[row] = (sum(prefix) + prior) / (len(prefix) + 1.0)
            np.testing.assert_allclose(train[:, 0], expected)

    def test_loo_bulk_matches_per_row_calls(self):
        rng = np.random.default_rng(5)
        cat = rng.choice(["p", "q", "r", "s"], size=(40, 1)).astype(object)
        y = rng.random(40)
        encoder, train = fit_categorical_encoder(
            cat, "loo", y, TaskType.REGRESSION
        )
        expected = []
        for i in range(40):
            same = [t for t in range(40) if cat[t, 0] == cat[i, 0]]
            expected.append(y.mean() if len(same) == 1 else
                            (sum(y[t] for t in same) - y[i]) / (len(same) - 1))
        np.testing.assert_allclose(train[:, 0], expected)

    def test_target_train_equals_inference(self):
        rng = np.random.default_rng(6)
        cat = rng.choice(["a", "b"], size=(30, 2)).astype(object)
        y = rng.integers(0, 2, size=30)
        encoder, train = fit_categorical_encoder(cat, "target", y, TaskType.BINCLASS)
        np.testing.assert_allclose(train, encoder.transform(cat))

    def test_multiclass_expands_one_column_per_class(self):
        rng = np.random.default_rng(7)
        cat = rng.choice(["a", "b", "c"], size=(60, 2)).astype(object)
        y = rng.integers(0, 4, size=60)
        for policy in ("target", "loo", "catboost"):
            encoder, train = fit_categorical_encoder(
                cat, policy, y, TaskType.MULTICLASS, class_count=4
            )
            assert train.shape == (60, 8)
            assert encoder.width == 8
            assert encoder.transform(cat[:5]).shape == (5, 8)

    def test_val_targets_never_consulted(self):
        rng = np.random.default_rng(8)
        cat_train = rng.choice(["a", "b", "c"], size=(50, 1)).astype(object)
        y_train = rng.random(50)
        cat_val = rng.choice(["a", "b", "c", "d"], size=(20, 1)).astype(object)
        for policy in ("target", "loo", "catboost"):
            encoder, _ = fit_categorical_encoder(
                cat_train, policy, y_train, TaskType.REGRESSION, seed=0
            )
            encoder2, _ = fit_categorical_encoder(
                cat_train, policy, y_train, TaskType.REGRESSION, seed=0
            )
            np.testing.assert_array_equal(
                encoder.transform(cat_val), encoder2.transform(cat_val)
            )

    def test_widths_by_policy(self):
        cat = np.array([["a", "x"], ["b", "x"], ["c", "y"]], dtype=object)
        y = np.array([0, 1, 0])
        widths = {
            "ordinal": 2,          # one index column each
            "onehot": 4 + 3,       # (K+1) per feature: 3+1 and 2+1
            "binary": 2 + 2,       # ceil(log2(K+1)) with unseen slot
            "hash": 16,            # 8 buckets each
            "target": 2,
            "loo": 2,
            "catboost": 2,
        }
        for policy, width in widths.items():
            encoder, train = fit_categorical_encoder(
                cat, policy, y, TaskType.BINCLASS
            )
            assert encoder.width == width, policy
            assert train.shape == (3, width), policy

    def test_unseen_tokens_at_inference(self):
        cat = np.array([["a"], ["b"], ["a"]], dtype=object)
        y = np.array([1.0, 0.0, 1.0])
        probe = np.array([["zzz"]], dtype=object)
        encoder, _ = fit_categorical_encoder(cat, "ordinal", y, TaskType.REGRESSION)
        assert encoder.transform(probe)[0, 0] == 2.0
        encoder, _ = fit_categorical_encoder(cat, "onehot", y, TaskType.REGRESSION)
        np.testing.assert_array_equal(encoder.transform(probe)[0], [0, 0, 1])
        encoder, _ = fit_categorical_encoder(cat, "target", y, TaskType.REGRESSION)
        assert encoder.transform(probe)[0, 0] == pytest.approx(HALF * 2.0 / 3.0)

    def test_transform_shape_mismatch(self):
        cat = np.array([["a", "x"]], dtype=object)
        encoder, _ = fit_categorical_encoder(cat, "ordinal")
        with pytest.raises(ShapeError, match="^encoder was fitted on 2 columns, got 1$"):
            encoder.transform(np.array([["a"]], dtype=object))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            fit_categorical_encoder(np.empty((2, 1), dtype=object), "embedding")

    def test_target_policy_needs_labels(self):
        with pytest.raises(ValueError):
            fit_categorical_encoder(np.array([["a"]], dtype=object), "target")

    def test_zero_columns_pass_through(self):
        cat = np.empty((4, 0), dtype=object)
        encoder, train = fit_categorical_encoder(cat, "onehot")
        assert train.shape == (4, 0)
        assert encoder.transform(cat).shape == (4, 0)
