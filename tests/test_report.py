import itertools
import pickle
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import tabkit.methods as methods_registry
from tabkit.data import TaskType
from tabkit.errors import FitError, RankError
from tabkit.methods import MethodConfig
from tabkit.methods.base import Method, Prediction
from tabkit.metrics import MetricSet
from tabkit.pipeline import PipelineConfig
from tabkit.report import (
    RunRecord,
    emit_report,
    rank_methods,
    read_results_csv,
    run_seeds,
    summarize_records,
)

from conftest import dataset_from_arrays, make_classification, make_regression


def clf_record(dataset, method, seed=0, accuracy=0.5, time_s=1.0, size=10):
    values = {"accuracy": accuracy, "avg_recall": accuracy,
              "avg_precision": accuracy, "f1": accuracy,
              "log_loss": 0.5, "auc": accuracy}
    return RunRecord(dataset=dataset, method=method, seed=seed,
                     metrics=MetricSet(values), time_s=time_s, size=size)


def reg_record(dataset, method, seed=0, rmse=1.0, time_s=1.0, size=10):
    values = {"mae": rmse / 2, "rmse": rmse, "r2": 0.5}
    return RunRecord(dataset=dataset, method=method, seed=seed,
                     metrics=MetricSet(values), time_s=time_s, size=size)


class TestRunSeeds:
    def test_deterministic_method_identical_across_seeds(self):
        dataset, info = make_regression(seed=0)
        records = run_seeds("linear_regression", dataset, info, seed_num=3)
        assert [r.seed for r in records] == [0, 1, 2]
        assert records[0].metrics == records[1].metrics == records[2].metrics
        summary, n_failed = summarize_records(records)
        assert n_failed == 0
        assert summary["rmse"][1] == pytest.approx(0.0)

    def test_single_seed_summary_equals_record(self):
        dataset, info = make_classification(seed=1)
        records = run_seeds("dummy", dataset, info, seed_num=1)
        summary, n_failed = summarize_records(records)
        assert n_failed == 0
        for name, value in records[0].metrics.values.items():
            assert summary[name] == (pytest.approx(value), pytest.approx(0.0))

    def test_dummy_accuracy_is_majority_frequency(self):
        dataset, info = make_classification(seed=2)
        records = run_seeds("dummy", dataset, info, seed_num=1)
        train_y = dataset.part_labels("train")
        majority = np.argmax(np.bincount(train_y))
        test_y = dataset.part_labels("test")
        expected = float(np.mean(test_y == majority))
        assert records[0].metrics["accuracy"] == pytest.approx(expected)

    def test_failed_seed_recorded_and_flagged(self, monkeypatch):
        class FlakyMethod(Method):
            def _fit(self, x_train, y_train, x_val, y_val):
                if self.config.seed == 1:
                    raise FitError("synthetic failure")

            def _predict(self, x):
                probs = np.full((len(x), 2), 0.5)
                return Prediction.classification(self.info.task, probs)

            def _state(self):
                return ()

            def model_size(self):
                return 1

        monkeypatch.setitem(methods_registry._REGISTRY, "flaky", FlakyMethod)
        dataset, info = make_classification(seed=3)
        records = run_seeds("flaky", dataset, info, seed_num=3)
        assert len(records) == 3
        assert records[1].error == "synthetic failure"
        assert not records[1].ok
        assert records[0].ok and records[2].ok
        _, n_failed = summarize_records(records)
        assert n_failed == 1

    def test_non_finite_regression_predictions_fail_the_seed(self, monkeypatch):
        class NanRegressor(Method):
            def _fit(self, x_train, y_train, x_val, y_val):
                pass

            def _predict(self, x):
                return Prediction.regression(np.full(len(x), np.nan))

            def _state(self):
                return ()

            def model_size(self):
                return 1

        monkeypatch.setitem(methods_registry._REGISTRY, "nan", NanRegressor)
        dataset, info = make_regression(n_rows=150, seed=0)
        records = run_seeds("nan", dataset, info, seed_num=2)
        assert [r.ok for r in records] == [False, False]
        assert all(r.error == "predictions contain non-finite values"
                   for r in records)

    @pytest.mark.parametrize("make", [make_classification, make_regression])
    def test_empty_test_part_fails_the_seed(self, make):
        dataset, info = make(seed=7)
        split = dict(dataset.split)
        split["train"] = np.sort(np.concatenate([split["train"],
                                                 split["test"]]))
        split["test"] = split["test"][:0]
        records = run_seeds("dummy", replace(dataset, split=split), info,
                            seed_num=2)
        assert [r.error for r in records] == ["no rows to score"] * 2
        assert all(r.metrics is None for r in records)

    def test_bad_hyperparameter_is_recorded_per_seed(self):
        dataset, info = make_classification(seed=5)
        records = run_seeds("random_forest", dataset, info, seed_num=2,
                            model={"n_trees": 0})
        assert [r.seed for r in records] == [0, 1]
        assert all(not r.ok for r in records)
        assert all("n_trees must be >= 1" in r.error for r in records)

    def test_any_exception_is_recorded_per_seed(self, monkeypatch):
        def overflow(self, x_train, y_train, x_val, y_val):
            raise OverflowError("synthetic overflow")

        monkeypatch.setattr(methods_registry.get_method("cart"), "_fit",
                            overflow)
        num = np.random.default_rng(0).normal(size=(30, 2))
        labels = np.where(np.arange(30) % 2, 1.0, -1.0)
        dataset, info = dataset_from_arrays(num, labels, TaskType.REGRESSION,
                                            n_test=6)
        records = run_seeds("cart", dataset, info, seed_num=3)
        assert [r.seed for r in records] == [0, 1, 2]
        assert all(not r.ok and r.error.startswith("OverflowError: ")
                   for r in records)

    def test_rejects_zero_seeds(self):
        dataset, info = make_classification(seed=4)
        with pytest.raises(ValueError):
            run_seeds("dummy", dataset, info, seed_num=0)

    @pytest.mark.parametrize("name, model, pipeline, fits", [
        ("knn", {}, PipelineConfig(), 1),
        ("random_forest", {"n_trees": 3}, PipelineConfig(), 4),
        ("knn", {}, PipelineConfig(cat_policy="catboost"), 4),
    ])
    def test_fits_once_unless_the_seed_is_read(self, monkeypatch, name, model,
                                               pipeline, fits):
        seeds = []
        fit = Method.fit

        def counted_fit(self, *args):
            seeds.append(self.config.seed)
            return fit(self, *args)

        monkeypatch.setattr(Method, "fit", counted_fit)
        dataset, info = make_classification(n_classes=3, seed=6)
        records = run_seeds(name, dataset, info, seed_num=4, model=model,
                            pipeline=pipeline)
        assert seeds == list(range(fits))
        assert [r.seed for r in records] == [0, 1, 2, 3]
        assert all(r.ok for r in records)
        if fits == 1:  # seed 0's outcome, time included, stands for each seed
            assert all(replace(r, seed=0) == records[0] for r in records)

    def test_seed_free_failure_is_recorded_for_every_seed(self, monkeypatch):
        fits = []
        fit = Method.fit

        def counted_fit(self, *args):
            fits.append(self.config.seed)
            return fit(self, *args)

        monkeypatch.setattr(Method, "fit", counted_fit)
        dataset, info = make_classification(seed=6)
        records = run_seeds("knn", dataset, info, seed_num=4,
                            model={"n_neighbors": 10_000})
        assert fits == [0]
        assert [r.seed for r in records] == [0, 1, 2, 3]
        assert all(not r.ok and r.time_s is None and r.size is None
                   and r.error.startswith("n_neighbors = 10000 exceeds")
                   for r in records)


# the built-in methods whose fit never reads the seed
SEED_FREE = ("cart", "dummy", "gbdt", "knn", "linear_regression", "logreg",
             "naive_bayes", "ncm", "svm")


def test_seed_free_methods_are_the_declared_built_ins():
    assert tuple(sorted(name for name in methods_registry.registered_methods()
                        if not methods_registry.get_method(name).reads_seed)
                 ) == SEED_FREE


@pytest.mark.parametrize("name", SEED_FREE)
def test_seed_free_method_fits_and_predicts_alike_on_every_seed(name):
    cls = methods_registry.get_method(name)
    tables = [make_classification(n_classes=3, missing_rate=0.1, seed=2),
              make_regression(missing_rate=0.1, seed=2)]
    # the default pipeline and one more, neither of which reads the seed
    pipelines = (PipelineConfig(),
                 PipelineConfig(num_policy="Q_PLE", cat_policy="loo"))
    fitted = 0
    for (dataset, info), pipeline in itertools.product(tables, pipelines):
        if info.task not in cls.task_types:
            continue
        outputs = []
        for seed in (0, 5):
            method = cls(MethodConfig(pipeline=pipeline, seed=seed), info)
            method.fit(dataset, info)
            prediction = method.predict_part(dataset, "test")
            probabilities = prediction.probabilities
            outputs.append((method.fitted_state(),
                            prediction.values.tobytes(),
                            None if probabilities is None
                            else probabilities.tobytes()))
        assert outputs[0] == outputs[1]
        fitted += 1
    assert fitted


def test_catboost_pipeline_fits_one_state_on_every_seed():
    # the seed permutes only the train rows' encoding, which no transform reads
    for dataset, info in (make_classification(n_classes=3, seed=2),
                          make_regression(seed=2)):
        states = []
        for seed in (0, 5):
            method = methods_registry.get_method("knn")(MethodConfig(
                pipeline=PipelineConfig(cat_policy="catboost"), seed=seed), info)
            method.fit(dataset, info)
            states.append(pickle.dumps(method.pipeline.state()))
        assert states[0] == states[1]


class TestRankMethods:
    def test_best_on_both_datasets(self):
        records = [
            clf_record("d1", "a", accuracy=0.9),
            clf_record("d1", "b", accuracy=0.7),
            clf_record("d1", "c", accuracy=0.8),
            clf_record("d2", "a", accuracy=0.95),
            clf_record("d2", "b", accuracy=0.6),
            clf_record("d2", "c", accuracy=0.5),
        ]
        table = rank_methods(records)
        assert table.methods == ("a", "b", "c")
        assert table.mean_ranks[0] == pytest.approx(1.0)

    def test_exact_tie_averages(self):
        records = [
            clf_record("d1", "a", accuracy=0.8),
            clf_record("d1", "b", accuracy=0.8),
            clf_record("d1", "c", accuracy=0.5),
        ]
        table = rank_methods(records)
        np.testing.assert_allclose(table.ranks[0], [1.5, 1.5, 3.0])

    def test_regression_lower_rmse_wins(self):
        records = [
            reg_record("d1", "a", rmse=2.0),
            reg_record("d1", "b", rmse=1.0),
        ]
        table = rank_methods(records)
        np.testing.assert_allclose(table.ranks[0], [2.0, 1.0])

    def test_random_grid_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            accs = rng.random((4, 5))
            records = [
                clf_record(f"d{i}", f"m{j}", accuracy=accs[i, j])
                for i in range(4) for j in range(5)
            ]
            table = rank_methods(records)
            for i in range(4):
                order = np.argsort(-accs[i])
                expected = np.empty(5)
                expected[order] = np.arange(1, 6)
                np.testing.assert_allclose(table.ranks[i], expected)
                assert table.ranks[i].sum() == pytest.approx(15.0)

    def test_seeds_average_into_cell(self):
        records = [
            clf_record("d1", "a", seed=0, accuracy=0.6),
            clf_record("d1", "a", seed=1, accuracy=1.0),
            clf_record("d1", "b", seed=0, accuracy=0.7),
            clf_record("d1", "b", seed=1, accuracy=0.7),
        ]
        table = rank_methods(records)  # a averages 0.8, beats b at 0.7
        np.testing.assert_allclose(table.ranks[0], [1.0, 2.0])

    def test_missing_cell_raises(self):
        records = [
            clf_record("d1", "a"),
            clf_record("d2", "a"),
            clf_record("d1", "b"),
        ]
        with pytest.raises(RankError, match="'b' on dataset 'd2'"):
            rank_methods(records)

    def test_all_seeds_failed_cell_raises(self):
        records = [
            clf_record("d1", "a"),
            RunRecord(dataset="d1", method="b", seed=0, metrics=None,
                      time_s=None, size=None, error="boom"),
        ]
        with pytest.raises(RankError, match="'b' on dataset 'd1'"):
            rank_methods(records)

    def test_mean_time_and_size(self):
        records = [
            clf_record("d1", "a", time_s=1.0, size=10),
            clf_record("d2", "a", time_s=3.0, size=30),
        ]
        table = rank_methods(records)
        assert table.mean_times[0] == pytest.approx(2.0)
        assert table.mean_sizes[0] == pytest.approx(20.0)


class TestEmitReport:
    def test_writes_all_files(self, tmp_path):
        records = [clf_record("d1", "a"), clf_record("d1", "b", accuracy=0.9)]
        table = rank_methods(records)
        paths = emit_report(table, records, str(tmp_path))
        for path in paths.values():
            assert (tmp_path / path.split("/")[-1]).exists()

    def test_results_round_trip_exactly(self, tmp_path):
        dataset, info = make_classification(seed=6)
        records = run_seeds("dummy", dataset, info, seed_num=2,
                            dataset_name="demo")
        table = rank_methods(records)
        paths = emit_report(table, records, str(tmp_path))
        again = read_results_csv(paths["results"])
        assert again == records

    def test_failed_rows_round_trip_with_error_text(self, tmp_path):
        records = [
            clf_record("d1", "a", seed=0),
            RunRecord(dataset="d1", method="a", seed=1, metrics=None,
                      time_s=None, size=None, error='boom, "quoted"\nsecond line'),
        ]
        table = rank_methods(records)
        paths = emit_report(table, records, str(tmp_path))
        again = read_results_csv(paths["results"])
        assert again == records
        assert again[0].error is None  # an ok seed's empty cell

    def test_mixed_task_columns(self, tmp_path):
        records = [
            clf_record("dc", "a"),
            reg_record("dr", "a", rmse=1.5),
        ]
        paths = emit_report(rank_methods(records), records, str(tmp_path))
        with open(paths["results"]) as handle:
            header = handle.readline().strip().split(",")
        assert header[:3] == ["dataset", "method", "seed"]
        assert "accuracy" in header and "rmse" in header
        assert header[-2:] == ["time_s", "size"]
        again = read_results_csv(paths["results"])
        assert again == records

    def test_ranks_csv_columns(self, tmp_path):
        records = [clf_record("d1", "a"), clf_record("d1", "b", accuracy=0.9)]
        table = rank_methods(records)
        paths = emit_report(table, records, str(tmp_path))
        with open(paths["ranks"]) as handle:
            lines = [line.strip() for line in handle]
        assert lines[0] == "method,mean_rank,mean_time_s,mean_size"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "a"
        assert float(first[1]) == 2.0

    def test_svg_has_circle_and_label_per_method(self, tmp_path):
        records = [
            clf_record("d1", "alpha", accuracy=0.9, time_s=0.5, size=100),
            clf_record("d1", "beta", accuracy=0.7, time_s=5.0, size=10),
            clf_record("d1", "gamma", accuracy=0.8, time_s=50.0, size=1000),
        ]
        table = rank_methods(records)
        paths = emit_report(table, records, str(tmp_path))
        tree = ET.parse(paths["plot"])
        ns = "{http://www.w3.org/2000/svg}"
        circles = tree.getroot().findall(f".//{ns}circle")
        labels = [t.text for t in tree.getroot().findall(f".//{ns}text")]
        assert len(circles) == 3
        for name in ("alpha", "beta", "gamma"):
            assert name in labels

    def test_single_method_plot(self, tmp_path):
        records = [clf_record("d1", "only", time_s=1.0)]
        table = rank_methods(records)
        assert table.mean_ranks[0] == 1.0
        paths = emit_report(table, records, str(tmp_path))
        tree = ET.parse(paths["plot"])
        ns = "{http://www.w3.org/2000/svg}"
        assert len(tree.getroot().findall(f".//{ns}circle")) == 1

    def test_identical_records_identical_bytes(self, tmp_path):
        dataset, info = make_classification(seed=7)
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            records = run_seeds("dummy", dataset, info, seed_num=2,
                                dataset_name="demo")
            for r in records:
                # dummy fits take timer noise; zero it for byte comparison
                object.__setattr__(r, "time_s", 0.0)
            emit_report(rank_methods(records), records, str(out))
        assert (first / "results.csv").read_bytes() == \
               (second / "results.csv").read_bytes()
        assert (first / "ranks.csv").read_bytes() == \
               (second / "ranks.csv").read_bytes()
        assert (first / "rank_vs_time.svg").read_bytes() == \
               (second / "rank_vs_time.svg").read_bytes()
