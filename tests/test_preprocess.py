import numpy as np
import pytest
from scipy.special import ndtri

from tabkit.errors import FitError, ShapeError
from tabkit.preprocess import (
    NAN_TOKEN,
    NORMALIZATIONS,
    FittedImputer,
    _yeo_johnson,
    fit_imputer,
    fit_normalizer,
    yeo_johnson_log_likelihood,
)


def _col(values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


NO_CAT = np.empty((3, 0), dtype=object)


class TestImputer:
    def test_mean_fill(self):
        imp = fit_imputer(_col([1, np.nan, 3]), NO_CAT, num_policy="mean")
        assert imp.num_fill[0] == 2.0

    def test_median_fill_even_length(self):
        imp = fit_imputer(
            _col([1, 2, 3, 100]), np.empty((4, 0), dtype=object), num_policy="median"
        )
        assert imp.num_fill[0] == 2.5

    def test_most_frequent_fill(self):
        cat = np.array([["a"], ["a"], ["b"], [""]], dtype=object)
        imp = fit_imputer(np.empty((4, 0)), cat, cat_policy="most_frequent")
        assert imp.cat_fill == ("a",)

    def test_most_frequent_tie_goes_to_first_seen(self):
        cat = np.array([["b"], ["a"], ["a"], ["b"]], dtype=object)
        imp = fit_imputer(np.empty((4, 0)), cat)
        assert imp.cat_fill == ("b",)

    def test_constant_policy_uses_reserved_token(self):
        cat = np.array([["x"], [""]], dtype=object)
        imp = fit_imputer(np.empty((2, 0)), cat, cat_policy="constant")
        assert imp.cat_fill == (NAN_TOKEN,)

    def test_all_missing_numeric_column_raises(self):
        with pytest.raises(FitError, match="column 0"):
            fit_imputer(_col([np.nan, np.nan, np.nan]), NO_CAT)

    def test_all_missing_cat_column_raises_for_most_frequent(self):
        cat = np.array([[""], [""]], dtype=object)
        with pytest.raises(FitError, match="column 0"):
            fit_imputer(np.empty((2, 0)), cat, cat_policy="most_frequent")
        # constant policy tolerates it
        fit_imputer(np.empty((2, 0)), cat, cat_policy="constant")

    def test_transform_touches_only_missing_cells(self):
        num = np.array([[1.0, np.nan], [np.nan, 4.0], [3.0, 6.0]])
        cat = np.array([["a", ""], ["", "y"], ["a", "y"]], dtype=object)
        imp = fit_imputer(num, cat)
        out_num, out_cat = imp.transform(num, cat)
        assert out_num[0, 0] == 1.0 and out_num[2, 1] == 6.0
        assert out_num[1, 0] == 2.0 and out_num[0, 1] == 5.0
        assert out_cat[1, 0] == "a" and out_cat[0, 1] == "y"
        # input untouched
        assert np.isnan(num[1, 0]) and cat[1, 0] == ""

    def test_transform_shape_mismatch(self):
        imp = fit_imputer(_col([1, 2, 3]), NO_CAT)
        with pytest.raises(ShapeError):
            imp.transform(np.zeros((2, 2)), np.empty((2, 0), dtype=object))

    def test_rejects_unknown_policies(self):
        with pytest.raises(ValueError):
            fit_imputer(_col([1, 2, 3]), NO_CAT, num_policy="mode")
        with pytest.raises(ValueError):
            fit_imputer(_col([1, 2, 3]), NO_CAT, cat_policy="drop")


class TestNormalizers:
    def test_standard_two_points(self):
        norm = fit_normalizer(_col([0, 10]), "standard")
        np.testing.assert_allclose(norm.transform(_col([0, 10])), [[-1], [1]])

    def test_minmax_extrapolates(self):
        norm = fit_normalizer(_col([0, 10]), "minmax")
        assert norm.transform(_col([20]))[0, 0] == 2.0

    def test_robust_arithmetic(self):
        norm = fit_normalizer(_col([1, 2, 3, 4, 5]), "robust")
        assert norm.transform(_col([5]))[0, 0] == 1.0

    def test_maxabs_scales_by_peak(self):
        norm = fit_normalizer(_col([-4, 2]), "maxabs")
        np.testing.assert_allclose(norm.transform(_col([-4, 2, 8])), [[-1], [0.5], [2]])

    def test_quantile_median_maps_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            col = np.sort(rng.normal(size=41))
            norm = fit_normalizer(col.reshape(-1, 1), "quantile")
            out = norm.transform(_col([np.median(col)]))
            assert abs(out[0, 0]) < 1e-9

    def test_quantile_out_of_range_clamps(self):
        norm = fit_normalizer(_col([1, 2, 3, 4, 5]), "quantile")
        out = norm.transform(_col([-100, 100]))
        np.testing.assert_allclose(out[:, 0], [ndtri(1e-7), ndtri(1 - 1e-7)])

    def test_quantile_normal_sample_mean_near_zero(self):
        rng = np.random.default_rng(42)
        col = rng.normal(size=(1000, 1))
        norm = fit_normalizer(col, "quantile")
        assert abs(norm.transform(col).mean()) < 0.1

    def test_quantile_ties_share_one_output(self):
        col = _col([1, 1, 1, 2, 3, 3])
        norm = fit_normalizer(col, "quantile")
        out = norm.transform(col)[:, 0]
        assert out[0] == out[1] == out[2]
        assert out[4] == out[5]
        assert out[0] < out[3] < out[4]

    def test_constant_column_degenerate_outputs(self):
        col = _col([7.0, 7.0, 7.0, 7.0])
        for kind in NORMALIZATIONS:
            norm = fit_normalizer(col, kind)
            out = norm.transform(col)
            # maxabs keeps x / max|x| = 1; every other kind collapses to 0
            expected = 1.0 if kind == "maxabs" else 0.0
            np.testing.assert_allclose(out, expected, err_msg=kind)

    def test_zero_column_maxabs(self):
        norm = fit_normalizer(_col([0, 0, 0]), "maxabs")
        np.testing.assert_array_equal(norm.transform(_col([0])), [[0.0]])

    def test_train_statistics_match_contract(self):
        rng = np.random.default_rng(3)
        data = np.column_stack([
            rng.normal(2.0, 5.0, size=200),
            rng.exponential(3.0, size=200),
            rng.integers(0, 4, size=200).astype(float),
        ])
        out = fit_normalizer(data, "standard").transform(data)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)
        out = fit_normalizer(data, "minmax").transform(data)
        np.testing.assert_allclose(out.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)
        out = fit_normalizer(data, "robust").transform(data)
        np.testing.assert_allclose(np.median(out, axis=0), 0.0, atol=1e-12)

    def test_power_standardizes_training_data(self):
        rng = np.random.default_rng(9)
        data = rng.lognormal(0.0, 1.0, size=(300, 2))
        out = fit_normalizer(data, "power").transform(data)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_yeo_johnson_lambda_one_is_identity(self):
        col = np.array([0.0, 1.0, 4.0, 9.0])
        ll_direct = yeo_johnson_log_likelihood(col, 1.0)
        # lambda = 1 on a nonnegative column transforms x -> ((x+1)^1 - 1)/1 = x,
        # so its likelihood equals that of the raw data
        var = np.var(col)
        assert abs(ll_direct - (-0.5 * len(col) * np.log(var))) < 1e-12

    def test_yeo_johnson_beats_integer_grid(self):
        rng = np.random.default_rng(17)
        samples = [
            rng.lognormal(0.0, 0.8, size=120),
            -rng.exponential(2.0, size=120),
            rng.normal(0.0, 1.0, size=120),
            rng.uniform(-3.0, 3.0, size=120) ** 3,
        ]
        for col in samples:
            norm = fit_normalizer(col.reshape(-1, 1), "power")
            lam = float(norm.lambdas[0])
            assert -5.0 <= lam <= 5.0
            best = yeo_johnson_log_likelihood(col, lam)
            for grid_lam in range(-5, 6):
                assert best >= yeo_johnson_log_likelihood(col, float(grid_lam)) - 1e-9

    def test_transform_row_order_invariant(self):
        rng = np.random.default_rng(5)
        train = rng.normal(size=(50, 3))
        rows = rng.normal(size=(20, 3))
        perm = rng.permutation(20)
        for kind in NORMALIZATIONS:
            norm = fit_normalizer(train, kind)
            out = norm.transform(rows)
            np.testing.assert_array_equal(out[perm], norm.transform(rows[perm]))

    def test_finite_cells_stay_finite(self):
        # a training spread well below 1 makes every map overflow on +-1e308
        rng = np.random.default_rng(3)
        train = rng.normal(size=(50, 2)) * 0.01
        ordinary = rng.normal(size=(4, 2)) * 0.01
        hostile = np.array([[1e308, -1e308], [-1e308, 1e308],
                            [np.inf, np.nan], [np.nan, -np.inf]])
        for kind in NORMALIZATIONS:
            norm = fit_normalizer(train, kind)
            out = norm.transform(np.vstack([hostile, ordinary]))
            assert np.isfinite(out[:2]).all(), kind
            assert np.isnan(out[2, 1]) and np.isnan(out[3, 0]), kind
            if kind == "quantile":
                continue
            np.testing.assert_array_equal(np.sign(out[:2]),
                                          np.sign(hostile[:2]), err_msg=kind)
            # the affine maps overflow here, and saturate; Yeo-Johnson with
            # these lambdas bounds one side, and the other saturates
            saturated = np.abs(out[:2]) == np.finfo(np.float64).max
            assert saturated.all() or (kind == "power" and saturated.any()), kind
            assert out[2, 0] == np.inf and out[3, 1] == -np.inf, kind
            # in-range cells keep the plain map's bytes
            mapped = ordinary if kind != "power" else np.column_stack(
                [_yeo_johnson(ordinary[:, j], float(lam))
                 for j, lam in enumerate(norm.lambdas)])
            expected = (mapped - norm.shift) / norm.scale
            assert out[4:].tobytes() == expected.tobytes(), kind

    def test_fit_ignores_future_rows(self):
        rng = np.random.default_rng(8)
        train = rng.normal(size=(60, 2))
        probe = rng.normal(size=(10, 2))
        for kind in NORMALIZATIONS:
            a = fit_normalizer(train, kind).transform(probe)
            b = fit_normalizer(train.copy(), kind).transform(probe)
            np.testing.assert_array_equal(a, b)

    def test_non_finite_input_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(FitError):
                fit_normalizer(_col([1.0, bad]), "standard")

    def test_transform_shape_mismatch(self):
        norm = fit_normalizer(np.zeros((4, 2)), "standard")
        with pytest.raises(ShapeError):
            norm.transform(np.zeros((4, 3)))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_normalizer(_col([1, 2]), "zscore")
