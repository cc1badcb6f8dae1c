"""Acceptance suite: one test per ship criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion. Tolerances and runtime limits are pinned here and are
not to be loosened.
"""

import itertools
import json
import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import tabkit.methods.base as method_base
from tabkit.cli import main
from tabkit.data import Dataset, TaskType, save_dataset
from tabkit.encode_cat import fit_categorical_encoder
from tabkit.encode_num import (
    BinEdges,
    encode_johnson,
    encode_ple,
    encode_unary,
)
from tabkit.methods import MethodConfig, get_method, registered_methods
from tabkit.methods.mlp import MLPNetwork
from tabkit.metrics import compute_metrics
from tabkit.methods.base import Prediction
from tabkit.pipeline import PipelineConfig
from tabkit.preprocess import fit_normalizer, yeo_johnson_log_likelihood
from tabkit.report import rank_methods, run_seeds
from tabkit.tune import parse_space, sample_trial, tune_hyper_parameters

from conftest import make_classification, make_regression


def random_edges(rng, n_bins: int) -> BinEdges:
    cuts = np.sort(rng.choice(np.arange(-50, 50), size=n_bins + 1, replace=False))
    return BinEdges(cuts.astype(np.float64), "quantile")


def test_criterion_1_encoder_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1)

    # thermometer codes are elementwise monotone in the input
    for _ in range(50):
        edges = random_edges(rng, int(rng.integers(2, 12)))
        xs = np.sort(rng.uniform(edges.edges[0] - 5, edges.edges[-1] + 5, 40))
        rows = encode_unary(edges, xs)
        assert (np.diff(rows, axis=0) >= 0).all()

    # Johnson codes: consecutive bins differ in exactly one bit, all distinct
    for n_bins in range(2, 65):
        edges = BinEdges(np.arange(n_bins + 1, dtype=np.float64), "quantile")
        centers = np.arange(n_bins) + 0.5
        rows = encode_johnson(edges, centers)
        assert rows.shape == (n_bins, (n_bins + 1) // 2)
        hamming = np.abs(np.diff(rows, axis=0)).sum(axis=1)
        np.testing.assert_array_equal(hamming, np.ones(n_bins - 1))
        assert len({tuple(row) for row in rows}) == n_bins

    # PLE: continuous at bin boundaries, exact saturation at the edges
    for _ in range(50):
        edges = random_edges(rng, int(rng.integers(2, 10)))
        b = edges.edges
        for t in range(len(b)):
            expected = np.concatenate([np.ones(t), np.zeros(edges.n_bins - t)])
            np.testing.assert_allclose(
                encode_ple(edges, [b[t]])[0], expected, atol=1e-12
            )
        for t in range(1, len(b) - 1):
            eps = 1e-9
            below = encode_ple(edges, [b[t] - eps])[0]
            above = encode_ple(edges, [b[t] + eps])[0]
            at = encode_ple(edges, [b[t]])[0]
            assert np.abs(below - at).max() < 1e-6
            assert np.abs(above - at).max() < 1e-6

    def token_column(tokens):
        return np.array(list(tokens), dtype=object).reshape(-1, 1)

    # one-hot rows sum to exactly 1, unseen token included
    encoder, _ = fit_categorical_encoder(token_column("abc"), "onehot")
    for token in ("a", "b", "c", "unseen"):
        assert encoder.transform(token_column([token])).sum() == 1.0

    # binary codes round-trip the ordinal index, unseen index included
    for k in range(1, 41):
        tokens = [f"t{i}" for i in range(k)]
        encoder, _ = fit_categorical_encoder(token_column(tokens), "binary")
        codes = encoder.transform(token_column([*tokens, "zz-unseen"]))
        for index, bits in enumerate(codes):
            decoded = int("".join(str(int(b)) for b in bits), 2)
            assert decoded == index

    # leave-one-out: train rows reproduce the exclude-own-target identity
    for _ in range(100):
        n = int(rng.integers(1, 50))
        tokens = [f"t{i}" for i in rng.integers(0, 8, size=n)]
        targets = rng.random(n)
        _, train_matrix = fit_categorical_encoder(
            token_column(tokens), "loo", targets=targets, task=TaskType.REGRESSION,
        )
        for i, (token, y) in enumerate(zip(tokens, targets)):
            same = [t for t in range(n) if tokens[t] == token]
            if len(same) == 1:
                expected = targets.mean()
            else:
                expected = (sum(targets[t] for t in same) - y) / (len(same) - 1)
            got = train_matrix[i, 0]
            assert abs(got - expected) < 1e-9

    # ordered target encoding equals the O(N^2) prefix oracle
    for case in range(200):
        n = int(rng.integers(1, 51))
        labels = rng.integers(0, 2, size=n).astype(np.int64)
        column = np.array(
            [f"t{i}" for i in rng.integers(0, 6, size=n)], dtype=object
        ).reshape(-1, 1)
        seed = case
        _, train_matrix = fit_categorical_encoder(
            column, "catboost", targets=labels, task=TaskType.BINCLASS,
            class_count=2, seed=seed,
        )
        prior = labels.astype(np.float64).mean()
        perm = np.random.default_rng(seed).permutation(n)
        position = np.empty(n, dtype=np.int64)
        position[perm] = np.arange(n)
        for i in range(n):
            prefix = perm[: position[i]]
            same = [p for p in prefix if column[p, 0] == column[i, 0]]
            total = sum(float(labels[p]) for p in same)
            expected = (total + 1.0 * prior) / (len(same) + 1.0)
            assert abs(train_matrix[i, 0] - expected) < 1e-9

    assert time.perf_counter() - start < 30.0


DEFAULT_MLP_TEXT = """{
    "mlp": {
        "model": {
            "d_layers": [384, 384],
            "dropout": 0.1
        },
        "training": {
            "lr": 3e-4,
            "weight_decay": 1e-5
        }
    }
}"""

OPT_SPACE_MLP_TEXT = """{
    "mlp": {
        "model": {
            "d_layers": ["$mlp_d_layers", 1, 8, 64, 512],
            "dropout": ["?uniform", 0.0, 0.0, 0.5]
        },
        "training": {
            "lr": ["loguniform", 1e-05, 0.01],
            "weight_decay": ["?loguniform", 0.0, 1e-06, 0.001]
        }
    }
}"""


def test_criterion_2_mlp_config_documents():
    default_doc = json.loads(DEFAULT_MLP_TEXT)
    space_doc = json.loads(OPT_SPACE_MLP_TEXT)
    assert default_doc == {"mlp": {
        "model": {"d_layers": [384, 384], "dropout": 0.1},
        "training": {"lr": 3e-4, "weight_decay": 1e-5},
    }}

    configs = resources.files("tabkit") / "configs"
    shipped_default = json.loads((configs / "default" / "mlp.json").read_text())
    shipped_space = json.loads((configs / "opt_space" / "mlp.json").read_text())
    assert shipped_default == default_doc
    assert shipped_space == space_doc

    space = parse_space(space_doc)
    for trial in range(10_000):
        layers = sample_trial(space, [0, trial])["model"]["d_layers"]
        assert 1 <= len(layers) <= 8
        assert all(64 <= width <= 512 for width in layers)
        assert len(set(layers)) == 1


def test_criterion_3_mlp_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    nets = [
        (MLPNetwork(6, [12, 9], 3, dropout=0.0, classification=True, rng=rng),
         lambda: rng.integers(0, 3, size=14)),
        (MLPNetwork(5, [10], 1, dropout=0.0, classification=False, rng=rng),
         lambda: rng.normal(size=14)),
    ]
    h = 1e-5
    for net, draw_y in nets:
        arrays = net.weights + net.biases
        sizes = [a.size for a in arrays]
        offsets = np.cumsum([0] + sizes)
        for _ in range(10):   # 10 probes per network, 20 total
            x = rng.normal(size=(14, arrays[0].shape[0]))
            y = draw_y()
            _, grad_w, grad_b = net.loss_and_gradients(x, y)
            analytic_all = np.concatenate(
                [g.ravel() for g in grad_w] + [g.ravel() for g in grad_b]
            )
            index = int(rng.integers(analytic_all.size))
            which = int(np.searchsorted(offsets, index, side="right")) - 1
            local = np.unravel_index(index - offsets[which],
                                     arrays[which].shape)
            original = arrays[which][local]
            arrays[which][local] = original + h
            up, _, _ = net.loss_and_gradients(x, y)
            arrays[which][local] = original - h
            down, _, _ = net.loss_and_gradients(x, y)
            arrays[which][local] = original
            numeric = (up - down) / (2 * h)
            analytic = analytic_all[index]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-4
    assert time.perf_counter() - start < 10.0


def _oracle_auc(scores, truth):
    pos = [s for s, t in zip(scores, truth) if t]
    neg = [s for s, t in zip(scores, truth) if not t]
    if not pos or not neg:
        return 0.5
    total = sum(1.0 if p > q else 0.5 if p == q else 0.0
                for p in pos for q in neg)
    return total / (len(pos) * len(neg))


def test_criterion_4_metric_oracle_equivalence():
    hand = Prediction.classification(
        TaskType.BINCLASS,
        np.column_stack([1 - np.array([0.1, 0.4, 0.35, 0.8]),
                         [0.1, 0.4, 0.35, 0.8]]),
    )
    hand_metrics = compute_metrics(hand, np.array([0, 0, 1, 1]),
                                   TaskType.BINCLASS)
    assert abs(hand_metrics["auc"] - 0.75) < 1e-9

    rng = np.random.default_rng(4)
    for case in range(500):
        n = int(rng.integers(2, 51))
        if case % 2 == 0:
            n_classes = int(rng.integers(2, 6))
            probs = rng.integers(1, 6, size=(n, n_classes)).astype(float)
            probs /= probs.sum(axis=1, keepdims=True)
            truth = rng.integers(0, n_classes, size=n)
            task = (TaskType.BINCLASS if n_classes == 2
                    else TaskType.MULTICLASS)
            pred = Prediction.classification(task, probs)
            metrics = compute_metrics(pred, truth, task)

            assert abs(metrics["accuracy"]
                       - np.mean(pred.values == truth)) < 1e-9
            precisions, recalls, f1s = [], [], []
            for c in range(n_classes):
                tp = sum(1 for p, t in zip(pred.values, truth)
                         if p == c and t == c)
                fp = sum(1 for p, t in zip(pred.values, truth)
                         if p == c and t != c)
                fn = sum(1 for p, t in zip(pred.values, truth)
                         if p != c and t == c)
                precisions.append(tp / (tp + fp) if tp + fp else 0.0)
                recalls.append(tp / (tp + fn) if tp + fn else 0.0)
                pr = precisions[-1] + recalls[-1]
                f1s.append(2 * precisions[-1] * recalls[-1] / pr if pr else 0.0)
            assert abs(metrics["avg_precision"] - np.mean(precisions)) < 1e-9
            assert abs(metrics["avg_recall"] - np.mean(recalls)) < 1e-9
            assert abs(metrics["f1"] - np.mean(f1s)) < 1e-9

            picked = [min(max(probs[i, truth[i]], 1e-15), 1 - 1e-15)
                      for i in range(n)]
            assert abs(metrics["log_loss"]
                       + np.mean(np.log(picked))) < 1e-9

            if n_classes == 2:
                expected_auc = _oracle_auc(probs[:, 1], truth == 1)
            else:
                expected_auc = np.mean([
                    _oracle_auc(probs[:, c], truth == c)
                    for c in range(n_classes)
                ])
            assert abs(metrics["auc"] - expected_auc) < 1e-9
        else:
            truth = rng.normal(size=n)
            values = rng.normal(size=n)
            metrics = compute_metrics(Prediction.regression(values), truth,
                                      TaskType.REGRESSION)
            assert abs(metrics["mae"]
                       - np.mean(np.abs(values - truth))) < 1e-9
            assert abs(metrics["rmse"]
                       - np.sqrt(np.mean((values - truth) ** 2))) < 1e-9
            expected_r2 = 1 - (np.sum((values - truth) ** 2)
                               / np.sum((truth - truth.mean()) ** 2))
            assert abs(metrics["r2"] - expected_r2) < 1e-9


LEAKAGE_CASES = {
    "dummy": {},
    "knn": {},
    "ncm": {},
    "naive_bayes": {},
    "linear_regression": {},
    "logreg": {},
    "svm": {},
    "cart": {},
    "random_forest": {"model": {"n_trees": 10}},
    "gbdt": {"model": {"n_trees": 10}},
    "mlp": {"model": {"d_layers": [16], "dropout": 0.1},
            "training": {"max_epoch": 5}},
}


def _with_mutated_test_rows(dataset: Dataset, rng) -> Dataset:
    num = dataset.num.copy()
    cat = dataset.cat.copy()
    labels = dataset.labels.copy()
    idx = dataset.split["test"]
    num[idx] = rng.normal(50.0, 10.0, size=num[idx].shape)
    cat[idx] = "mutant-token"
    if dataset.task.is_classification:
        labels[idx] = rng.integers(0, labels.max() + 1, size=len(idx))
    else:
        labels[idx] = rng.normal(1000.0, 1.0, size=len(idx))
    return Dataset(
        num=num, cat=cat, labels=labels, task=dataset.task,
        split={part: index.copy() for part, index in dataset.split.items()},
    )


def test_criterion_5_no_test_row_leakage():
    assert set(LEAKAGE_CASES) == set(registered_methods())
    clf = make_classification(seed=50, n_rows=100)
    reg = make_regression(seed=50, n_rows=100)
    # pipeline settings chosen to make every fitted artifact data-dependent
    pipeline = PipelineConfig(normalization="quantile", num_policy="Q_PLE",
                              cat_policy="catboost")
    rng = np.random.default_rng(51)
    for name, overrides in LEAKAGE_CASES.items():
        method_cls = get_method(name)
        dataset, info = clf if TaskType.BINCLASS in method_cls.task_types \
            else reg
        mutated = _with_mutated_test_rows(dataset, rng)
        states = []
        for source in (dataset, mutated):
            config = MethodConfig(
                model=dict(overrides.get("model", {})),
                training=dict(overrides.get("training", {})),
                pipeline=pipeline, seed=0,
            )
            method = method_cls(config, info)
            method.fit(source, info)
            states.append(method.fitted_state())
        assert states[0] == states[1], f"{name} saw test rows during fit"


def test_criterion_6_cli_bit_identical_reruns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    clf, clf_info = make_classification(seed=60, n_rows=80)
    save_dataset(clf, clf_info, tmp_path / "data" / "demo")
    reg, reg_info = make_regression(seed=60, n_rows=80)
    save_dataset(reg, reg_info, tmp_path / "data" / "demo_reg")
    ticker = itertools.count()
    monkeypatch.setattr(method_base, "_clock", lambda: float(next(ticker)))

    for name in registered_methods():
        method_cls = get_method(name)
        family = "deep" if method_cls.is_deep else "classical"
        dataset = ("demo" if TaskType.BINCLASS in method_cls.task_types
                   else "demo_reg")
        flags = [family, "--model_type", name, "--dataset", dataset,
                 "--seed_num", "2"]
        if name == "mlp":
            flags += ["--max_epoch", "3"]
        assert main(flags + ["--output_dir", f"a_{name}"]) == 0
        assert main(flags + ["--output_dir", f"b_{name}"]) == 0
        first = (tmp_path / f"a_{name}" / "results.csv").read_bytes()
        second = (tmp_path / f"b_{name}" / "results.csv").read_bytes()
        assert first == second, f"{name} results.csv differs between reruns"


STUDY_ROSTER = ("dummy", "knn", "linear", "cart", "random_forest", "gbdt",
                "mlp")


def test_criterion_7_scaled_down_study():
    start = time.perf_counter()
    datasets = [
        ("blobs-bin", *make_classification(n_rows=1000, n_num=6, n_cat=2,
                                           n_classes=2, seed=71)),
        ("blobs-multi", *make_classification(n_rows=1000, n_num=6, n_cat=2,
                                             n_classes=4, seed=72)),
        ("linear-reg", *make_regression(n_rows=1000, n_num=6, n_cat=2,
                                        seed=73)),
    ]
    records = []
    for ds_name, dataset, info in datasets:
        for slot in STUDY_ROSTER:
            method_name = slot
            if slot == "linear":
                method_name = ("linear_regression"
                               if dataset.task is TaskType.REGRESSION
                               else "logreg")
            runs = run_seeds(method_name, dataset, info, seed_num=1,
                             dataset_name=ds_name)
            records.extend(replace(r, method=slot) for r in runs)

    table = rank_methods(records)
    ranks = dict(zip(table.methods, table.mean_ranks))
    for slot in STUDY_ROSTER:
        if slot != "dummy":
            assert ranks[slot] < ranks["dummy"], (
                f"{slot} (rank {ranks[slot]:.2f}) did not beat "
                f"dummy (rank {ranks['dummy']:.2f})"
            )
    assert ranks["random_forest"] < ranks["cart"], ranks
    assert ranks["gbdt"] < ranks["cart"], ranks
    assert time.perf_counter() - start < 300.0


def test_criterion_8_normalization_contracts():
    rng = np.random.default_rng(8)
    n = 501
    train = np.column_stack([
        rng.normal(0.0, 2.0, n),
        np.exp(rng.normal(size=n)),            # right-skewed
        rng.uniform(-5.0, 5.0, n),
        rng.normal(size=n) ** 3,               # heavy-tailed
    ])

    out = fit_normalizer(train, "standard").transform(train)
    assert np.abs(out.mean(axis=0)).max() <= 1e-9
    assert np.abs(out.std(axis=0) - 1.0).max() <= 1e-9

    out = fit_normalizer(train, "minmax").transform(train)
    assert np.abs(out.min(axis=0)).max() <= 1e-9
    assert np.abs(out.max(axis=0) - 1.0).max() <= 1e-9

    out = fit_normalizer(train, "robust").transform(train)
    assert np.abs(np.median(out, axis=0)).max() <= 1e-9

    out = fit_normalizer(train, "maxabs").transform(train)
    assert np.abs(np.abs(out).max(axis=0) - 1.0).max() <= 1e-9

    fitted = fit_normalizer(train, "power")
    out = fitted.transform(train)
    assert np.abs(out.mean(axis=0)).max() <= 1e-9
    assert np.abs(out.std(axis=0) - 1.0).max() <= 1e-9
    for j in range(train.shape[1]):
        best_grid = max(
            yeo_johnson_log_likelihood(train[:, j], float(lam))
            for lam in range(-5, 6)
        )
        fitted_ll = yeo_johnson_log_likelihood(train[:, j],
                                               fitted.lambdas[j])
        assert fitted_ll >= best_grid - 1e-9

    out = fit_normalizer(train, "quantile").transform(train)
    assert np.abs(np.median(out, axis=0)).max() <= 1e-9


def test_criterion_9_tuning_prefix_monotone_and_default_trial():
    space = parse_space(
        {"knn": {"model": {"n_neighbors": ["int", 1, 32]}}}
    )
    dataset, info = make_classification(seed=90, n_rows=200)
    base_model = {"n_neighbors": 100}  # deliberately poor default

    single = tune_hyper_parameters("knn", space, dataset, info, n_trials=1,
                                   seed=9, base_model=base_model)
    assert single.trial == 0
    assert single.assignment == {"model": {}, "training": {}}
    assert single.model == base_model
    assert single.training == {}

    best_scores = []
    previous_assignments = None
    for n_trials in (1, 2, 4, 8, 12):
        result = tune_hyper_parameters("knn", space, dataset, info,
                                       n_trials=n_trials, seed=9,
                                       base_model=base_model)
        assignments = [t.assignment for t in result.trials]
        if previous_assignments is not None:
            assert assignments[: len(previous_assignments)] == \
                previous_assignments
        previous_assignments = assignments
        best_scores.append(result.score)
    assert all(b >= a for a, b in zip(best_scores, best_scores[1:]))
