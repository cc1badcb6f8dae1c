import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlp_oracle import OracleMLPMethod
from tabkit.data import DatasetInfo, TaskType
from tabkit.errors import ConfigError, DivergenceError, FitError
from tabkit.methods import MethodConfig
from tabkit.methods.mlp import SCORE_BLOCK, MLPMethod, MLPNetwork, _float32
from tabkit.pipeline import PipelineConfig
from tabkit.preprocess import NORMALIZATIONS
from tabkit.report import run_seeds

from conftest import dataset_from_arrays, make_classification, make_regression


def flatten_params(net):
    return np.concatenate([w.ravel() for w in net.weights]
                          + [b.ravel() for b in net.biases])


def numeric_gradient(net, x, y, index, h=1e-5):
    """Central-difference derivative of the loss w.r.t. one flat parameter."""
    arrays = net.weights + net.biases
    offsets = np.cumsum([0] + [a.size for a in arrays])
    which = int(np.searchsorted(offsets, index, side="right")) - 1
    local = np.unravel_index(index - offsets[which], arrays[which].shape)
    original = arrays[which][local]
    arrays[which][local] = original + h
    up, _, _ = net.loss_and_gradients(x, y)
    arrays[which][local] = original - h
    down, _, _ = net.loss_and_gradients(x, y)
    arrays[which][local] = original
    return (up - down) / (2 * h)


class TestGradients:
    def check_network(self, net, x, y, n_probes=20, seed=0):
        _, grad_w, grad_b = net.loss_and_gradients(x, y)
        analytic = np.concatenate([g.ravel() for g in grad_w]
                                  + [g.ravel() for g in grad_b])
        rng = np.random.default_rng(seed)
        total = analytic.size
        for index in rng.choice(total, size=min(n_probes, total), replace=False):
            numeric = numeric_gradient(net, x, y, int(index))
            denom = max(abs(numeric), abs(analytic[index]), 1e-8)
            assert abs(numeric - analytic[index]) / denom < 1e-4

    def test_classification_gradients(self):
        rng = np.random.default_rng(1)
        net = MLPNetwork(5, [8, 8], 3, dropout=0.0, classification=True, rng=rng)
        x = rng.normal(size=(16, 5))
        y = rng.integers(0, 3, size=16)
        self.check_network(net, x, y)

    def test_regression_gradients(self):
        rng = np.random.default_rng(2)
        net = MLPNetwork(4, [6], 1, dropout=0.0, classification=False, rng=rng)
        x = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        self.check_network(net, x, y)

    def test_no_hidden_layer_gradients(self):
        rng = np.random.default_rng(3)
        net = MLPNetwork(3, [], 2, dropout=0.0, classification=True, rng=rng)
        x = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        self.check_network(net, x, y)

    @pytest.mark.parametrize("classification", [True, False])
    def test_float32_gradients_match_float64(self, classification):
        d_out = 3 if classification else 1
        wide, narrow = (
            MLPNetwork(6, [16, 16], d_out, dropout=0.0, classification=classification,
                       rng=np.random.default_rng(21), dtype=dtype)
            for dtype in (np.float64, np.float32))
        rng = np.random.default_rng(22)
        x = rng.normal(size=(32, 6))
        y = rng.integers(0, 3, size=32) if classification else rng.normal(size=32)
        _, *wide_grads = wide.loss_and_gradients(x, y)
        _, *narrow_grads = narrow.loss_and_gradients(
            x.astype(np.float32), y if classification else y.astype(np.float32))
        for want, got in zip(sum(wide_grads, []), sum(narrow_grads, [])):
            assert got.dtype == np.float32
            # entries that cancel to near zero are held to the array's scale
            np.testing.assert_allclose(got, want, rtol=1e-3,
                                       atol=1e-4 * np.abs(want).max())


class TestNetwork:
    def test_parameter_count(self):
        rng = np.random.default_rng(4)
        net = MLPNetwork(10, [384, 384], 3, dropout=0.1, classification=True, rng=rng)
        expected = (10 * 384 + 384) + (384 * 384 + 384) + (384 * 3 + 3)
        assert net.parameter_count() == expected

    def test_init_bounds(self):
        rng = np.random.default_rng(5)
        net = MLPNetwork(9, [16], 2, dropout=0.0, classification=True, rng=rng)
        assert np.abs(net.weights[0]).max() <= 1 / np.sqrt(9)
        assert np.abs(net.biases[0]).max() <= 1 / np.sqrt(9)
        assert np.abs(net.weights[1]).max() <= 1 / np.sqrt(16)

    def test_rejects_bad_dropout(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            MLPNetwork(3, [4], 2, dropout=1.0, classification=True, rng=rng)

    def test_dropout_only_active_when_rng_passed(self):
        rng = np.random.default_rng(7)
        net = MLPNetwork(5, [32], 2, dropout=0.5, classification=True, rng=rng)
        x = rng.normal(size=(8, 5))
        a = net.logits(x)
        b = net.logits(x)
        np.testing.assert_array_equal(a, b)
        y = rng.integers(0, 2, size=8)
        loss_a, _, _ = net.loss_and_gradients(x, y, rng=np.random.default_rng(0))
        loss_b, _, _ = net.loss_and_gradients(x, y, rng=np.random.default_rng(99))
        assert loss_a != loss_b


def fit_mlp(dataset, info, model=None, training=None, seed=0):
    config = MethodConfig(model=model or {}, training=training or {}, seed=seed)
    method = MLPMethod(config, info)
    method.fit(dataset, info)
    return method


SMALL = {"d_layers": [16], "dropout": 0.0}


class TestMLPMethod:
    def test_no_hidden_layers_is_linear_classifier(self):
        dataset, info = make_classification(seed=8, n_rows=160)
        method = fit_mlp(
            dataset, info,
            model={"d_layers": [], "dropout": 0.0},
            training={"lr": 0.05, "max_epoch": 300},
        )
        pred = method.predict_part(dataset, "train")
        truth = dataset.part_labels("train")
        assert (pred.values == truth).mean() >= 0.95

    def test_classification_accuracy(self):
        dataset, info = make_classification(seed=9, n_rows=200)
        method = fit_mlp(dataset, info, model=SMALL,
                         training={"lr": 1e-2, "max_epoch": 100})
        pred = method.predict_part(dataset, "test")
        truth = dataset.part_labels("test")
        assert (pred.values == truth).mean() >= 0.8

    def test_regression_destandardizes(self):
        # labels live far from zero; predictions must come back on that scale
        dataset, info = make_regression(seed=10, n_rows=200)
        dataset.labels = dataset.labels + 100.0
        method = fit_mlp(dataset, info, model=SMALL,
                         training={"lr": 1e-2, "max_epoch": 150})
        pred = method.predict_part(dataset, "train")
        assert abs(pred.values.mean() - 100.0) < 10.0
        # the early-stopping score is a negated RMSE in the labels' own unit
        pred = method.predict_part(dataset, "val")
        rmse = np.sqrt(np.mean((pred.values - dataset.part_labels("val")) ** 2))
        assert method.validation_score == pytest.approx(-rmse)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        dataset, info = make_regression(seed=11)
        dataset.labels = dataset.labels * 1e150
        with pytest.raises(DivergenceError) as err:
            fit_mlp(dataset, info, model=SMALL,
                    training={"lr": 1e200, "max_epoch": 5})
        assert "epoch" in str(err.value)
        assert err.value.epoch >= 0

    @pytest.mark.parametrize("cell", [1e12, 1e15, 1e18])
    def test_overflowed_adam_moment_raises(self, cell):
        # robust scaling leaves the cell huge: its gradients square past the
        # float32 range in Adam's second moment while the loss stays finite
        dataset, info = make_regression(n_rows=200, seed=0)
        num = dataset.num.copy()
        num[dataset.split["train"][0], 0] = cell
        dataset.num = num
        config = MethodConfig(model={"d_layers": [16]}, training={"max_epoch": 20},
                              pipeline=PipelineConfig(normalization="robust"))
        with pytest.raises(DivergenceError, match="Adam moment at epoch") as err:
            MLPMethod(config, info).fit(dataset, info)
        assert err.value.epoch == 0

    def test_early_stop_restores_best(self):
        dataset, info = make_classification(seed=12, n_rows=200)
        method = fit_mlp(dataset, info, model=SMALL,
                         training={"lr": 1e-2, "max_epoch": 60})
        pred = method.predict_part(dataset, "val")
        truth = dataset.part_labels("val")
        assert method.validation_score == pytest.approx((pred.values == truth).mean())

    def test_same_seed_bit_identical(self):
        dataset, info = make_classification(seed=13)
        a = fit_mlp(dataset, info, model=SMALL, training={"max_epoch": 10}, seed=5)
        b = fit_mlp(dataset, info, model=SMALL, training={"max_epoch": 10}, seed=5)
        assert a.fitted_state() == b.fitted_state()

    def test_different_seed_differs(self):
        dataset, info = make_classification(seed=14)
        a = fit_mlp(dataset, info, model=SMALL, training={"max_epoch": 10}, seed=0)
        b = fit_mlp(dataset, info, model=SMALL, training={"max_epoch": 10}, seed=1)
        assert a.fitted_state() != b.fitted_state()

    def test_empty_val_scores_on_train(self):
        num = np.random.default_rng(15).normal(size=(60, 3))
        labels = (num[:, 0] > 0).astype(np.int64)
        dataset, info = dataset_from_arrays(num, labels, TaskType.BINCLASS)
        method = fit_mlp(dataset, info, model=SMALL,
                         training={"lr": 1e-2, "max_epoch": 30})
        pred = method.predict_part(dataset, "train")
        truth = dataset.part_labels("train")
        assert method.validation_score == pytest.approx((pred.values == truth).mean())

    def test_model_size_is_parameter_count(self):
        dataset, info = make_classification(seed=16)
        method = fit_mlp(dataset, info, model={"d_layers": [7, 5], "dropout": 0.0},
                         training={"max_epoch": 2})
        d_in = method._net.weights[0].shape[0]
        expected = (d_in * 7 + 7) + (7 * 5 + 5) + (5 * 2 + 2)
        assert method.model_size() == expected

    def test_is_deep(self):
        assert MLPMethod.is_deep

    def test_trains_in_float32(self, monkeypatch):
        grad_dtypes = set()
        inner = MLPNetwork.loss_and_gradients

        def recording(net, x, y, rng=None):
            loss, grad_w, grad_b = inner(net, x, y, rng)
            grad_dtypes.update(g.dtype for g in grad_w + grad_b)
            return loss, grad_w, grad_b

        monkeypatch.setattr(MLPNetwork, "loss_and_gradients", recording)
        for dataset, info in (make_classification(seed=18, n_classes=3),
                              make_regression(seed=18)):
            method = fit_mlp(dataset, info, model={"d_layers": [8, 8], "dropout": 0.2},
                             training={"max_epoch": 3})
            params = method._net.weights + method._net.biases
            assert {p.dtype for p in params} == {np.dtype(np.float32)}
        assert grad_dtypes == {np.dtype(np.float32)}

    def test_predictions_stay_float64(self):
        dataset, info = make_regression(seed=19)
        pred = fit_mlp(dataset, info, model=SMALL,
                       training={"max_epoch": 3}).predict_part(dataset, "test")
        assert pred.values.dtype == np.float64
        dataset, info = make_classification(seed=19, n_classes=4)
        pred = fit_mlp(dataset, info, model=SMALL,
                       training={"max_epoch": 3}).predict_part(dataset, "test")
        assert pred.probabilities.dtype == np.float64
        assert np.abs(pred.probabilities.sum(axis=1) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("training", [
        {"batch_size": 0}, {"batch_size": -4}, {"max_epoch": 0}, {"max_epoch": -1},
        {"patience": 0}, {"patience": -4},
    ])
    def test_rejects_nonpositive_batch_size_and_max_epoch(self, training):
        dataset, info = make_classification(seed=17)
        with pytest.raises(ConfigError):
            MLPMethod(MethodConfig(training=training), info)
        records = run_seeds("mlp", dataset, info, seed_num=2, training=training)
        key = next(iter(training))
        assert [r.seed for r in records] == [0, 1]
        assert all(not r.ok and f"{key} must be >= 1" in r.error for r in records)


@st.composite
def mlp_runs(draw):
    """(dataset, info, config) of a small MLP fit."""
    task = draw(st.sampled_from(list(TaskType)))
    n_train, n_val = draw(st.integers(2, 30)), draw(st.sampled_from([0, 1, 7]))
    n_test, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n = n_train + n_val + n_test
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    num = rng.normal(size=(n, d))
    if task is TaskType.REGRESSION:
        labels = num @ rng.normal(size=d) + rng.normal(size=n)
    else:
        n_classes = 2 if task is TaskType.BINCLASS else draw(st.integers(3, 4))
        labels = rng.integers(0, n_classes, size=n)
        labels[0] = n_classes - 1  # the class count is the largest label + 1
    dataset, info = dataset_from_arrays(num, labels, task, n_val=n_val,
                                        n_test=n_test)
    widths = st.integers(1, 16)
    layers = st.one_of(st.just([]), st.lists(widths, min_size=1, max_size=1),
                       st.lists(widths, min_size=3, max_size=3))
    model = {
        "d_layers": draw(layers),
        "dropout": draw(st.sampled_from([0.0, 0.3])),
    }
    training = {
        "lr": draw(st.sampled_from([1e-3, 3e-2, 0.3])),
        "weight_decay": draw(st.sampled_from([0.0, 1e-3])),
        # most of these do not divide the training rows
        "batch_size": draw(st.integers(1, n_train + 2)),
        "max_epoch": draw(st.integers(1, 6)),
        "patience": draw(st.integers(1, 3)),
    }
    config = MethodConfig(model=model, training=training,
                          seed=draw(st.integers(0, 3)))
    return dataset, info, config


def fit_outcome(cls, dataset, info, config):
    """Fitted state, test predictions and validation score as bytes, or
    what the fit raised."""
    method = cls(config, info)
    try:
        method.fit(dataset, info)
        pred = method.predict_part(dataset, "test")
    except (DivergenceError, ValueError) as err:
        return type(err), str(err)
    probs = None if pred.probabilities is None else pred.probabilities.tobytes()
    return (method.fitted_state(), pred.values.dtype, pred.values.tobytes(),
            probs, np.float64(method.validation_score).tobytes())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(mlp_runs())
def test_fit_matches_oracle(run):
    assert fit_outcome(MLPMethod, *run) == fit_outcome(OracleMLPMethod, *run)


@pytest.mark.parametrize("task", list(TaskType))
def test_block_scoring_matches_oracle(task):
    """Val and test parts of several blocks, neither a multiple of the block,
    score as the oracle's whole-part passes do, bit for bit, and so does a
    test row that overflows float32 in a later block."""
    n_train, n_val, n_test, d = 300, 700, 1000, 6
    assert n_val > 2 * SCORE_BLOCK and n_val % SCORE_BLOCK
    assert n_test > 3 * SCORE_BLOCK and n_test % SCORE_BLOCK
    rng = np.random.default_rng(31)
    n = n_train + n_val + n_test
    num = rng.normal(size=(n, d))
    if task is TaskType.REGRESSION:
        labels = num @ rng.normal(size=d) + rng.normal(size=n)
    else:
        labels = (num[:, 0] > 0) + (task is TaskType.MULTICLASS) * (num[:, 1] > 0)
    hostile = SCORE_BLOCK + 344  # test row in the third block
    num[n_train + n_val + hostile] = 1e308
    dataset, info = dataset_from_arrays(num, labels, task, n_val=n_val,
                                        n_test=n_test)
    config = MethodConfig(model={"d_layers": [64, 48], "dropout": 0.2},
                          training={"lr": 1e-2, "max_epoch": 3,
                                    "batch_size": 128}, seed=1)
    outcome = fit_outcome(MLPMethod, dataset, info, config)
    assert outcome == fit_outcome(OracleMLPMethod, dataset, info, config)

    method = MLPMethod(config, info)
    method.fit(dataset, info)
    x = method.pipeline.transform_part(dataset, "test")
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = ~np.isfinite(method._net.logits(_float32(x))).all(axis=1)
    assert np.flatnonzero(overflowed).tolist() == [hostile]
    pred = method.predict_part(dataset, "test")
    assert np.isfinite(pred.values).all()


@pytest.mark.parametrize("task", [TaskType.MULTICLASS, TaskType.REGRESSION])
def test_fit_and_predict_memory_follow_the_table(task):
    """Training holds one batch and scoring one block per layer: on a narrow
    table with 20,000 val and test rows, no activation of the whole part under
    the default 384-wide layers (about 31 MB each in float32) is held."""
    rng = np.random.default_rng(32)
    n_train, n_rows, d = 512, 20_000, 4
    x_train, x_val, x_test = (rng.normal(size=(n, d))
                              for n in (n_train, n_rows, n_rows))
    if task is TaskType.REGRESSION:
        y_train, y_val = rng.normal(size=n_train), rng.normal(size=n_rows)
    else:
        y_train, y_val = (rng.integers(0, 3, size=n) for n in (n_train, n_rows))
    info = DatasetInfo(task=task, n_num_features=d, n_cat_features=0,
                       class_count=None if task is TaskType.REGRESSION else 3,
                       name="narrow")
    method = MLPMethod(MethodConfig(training={"max_epoch": 2}), info)
    tracemalloc.start()
    try:
        method._fit(x_train, y_train, x_val, y_val)
        held, fit_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        prediction = method._predict(x_test)
        predict_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    widest = max(method._d_layers)
    block = SCORE_BLOCK * widest * 4  # one float32 activation of a block
    params = method.model_size() * 4
    # parameters, Adam's two moments, the best epoch's copy, gradients and
    # update temporaries; a batch's activations and gates; the val scores
    assert fit_peak <= 2 * x_val.nbytes + 10 * params + 8 * block
    output = prediction.values.nbytes + (
        0 if prediction.probabilities is None else prediction.probabilities.nbytes)
    assert predict_peak <= 2 * x_test.nbytes + output + 4 * block


@st.composite
def hostile_queries(draw):
    """(dataset, info, config, num, cat): a small MLP fit on ordinary rows,
    and query rows holding +-1e308 and NaN numeric cells and unseen tokens."""
    task = draw(st.sampled_from(list(TaskType)))
    n_train, d = draw(st.integers(4, 30)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = n_train + 3
    num = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    cat = rng.choice(["a", "b", "c"], size=(n, 1)).astype(object)
    if task is TaskType.REGRESSION:
        labels = num @ rng.normal(size=d) + rng.normal(size=n)
    else:
        n_classes = 2 if task is TaskType.BINCLASS else 3
        labels = rng.integers(0, n_classes, size=n)
        labels[0] = n_classes - 1  # the class count is the largest label + 1
    dataset, info = dataset_from_arrays(num, labels, task, cat=cat, n_val=3)
    config = MethodConfig(
        model={"d_layers": draw(st.sampled_from([[], [8], [64, 64]])),
               "dropout": 0.1},
        training={"lr": draw(st.sampled_from([1e-3, 3e-2])),
                  "max_epoch": draw(st.integers(1, 5))},
        pipeline=PipelineConfig(normalization=draw(st.sampled_from(NORMALIZATIONS))),
        seed=draw(st.integers(0, 3)),
    )
    n_query = draw(st.integers(1, 6))
    # listed twice: rows with several huge cells are the ones that overflow
    cells = st.sampled_from([1e308, -1e308, 1e308, -1e308, np.nan, 0.5])
    query_num = np.array(draw(st.lists(cells, min_size=n_query * d,
                                       max_size=n_query * d))).reshape(n_query, d)
    query_cat = np.array(draw(st.lists(st.sampled_from(["a", "unseen"]),
                                       min_size=n_query, max_size=n_query)),
                         dtype=object).reshape(n_query, 1)
    return dataset, info, config, query_num, query_cat


@given(hostile_queries())
def test_hostile_rows_predict_finite(query):
    """Finite in, finite out: a fit that succeeds predicts finite values, and
    probability rows that sum to 1, for any row the pipeline accepts."""
    dataset, info, config, num, cat = query
    method = MLPMethod(config, info)
    try:
        method.fit(dataset, info)
    except FitError:  # DivergenceError included: recorded by run_seeds
        return
    pred = method.predict(num, cat)
    assert np.isfinite(pred.values).all()
    if pred.probabilities is not None:
        assert np.isfinite(pred.probabilities).all()
        assert np.abs(pred.probabilities.sum(axis=1) - 1.0).max() <= 1e-9
