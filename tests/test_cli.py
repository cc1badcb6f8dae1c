import csv
import json

import numpy as np
import pytest

import tabkit.methods.base as method_base
from tabkit.cli import get_args, main
from tabkit.data import save_dataset

from conftest import make_classification, make_regression


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """A cwd holding data/demo (classification) and data/demo_reg."""
    monkeypatch.chdir(tmp_path)
    dataset, info = make_classification(seed=0, n_rows=80)
    save_dataset(dataset, info, tmp_path / "data" / "demo")
    reg, reg_info = make_regression(seed=0, n_rows=80)
    save_dataset(reg, reg_info, tmp_path / "data" / "demo_reg")
    return tmp_path


class TestGetArgs:
    def test_defaults_come_from_config_file(self):
        _, args, default_config, space = get_args(
            ["deep", "--model_type", "mlp", "--dataset", "demo"]
        )
        assert default_config["model"] == {"d_layers": [384, 384],
                                           "dropout": 0.1}
        assert default_config["training"] == {"lr": 3e-4, "weight_decay": 1e-5}
        assert space.name == "mlp"
        assert args.max_epoch is None
        assert args.tune is False

    def test_flag_overrides_survive(self):
        command, args, _, _ = get_args(
            ["deep", "--model_type", "mlp", "--dataset", "demo",
             "--max_epoch", "50", "--tune", "true", "--seed_num", "3"]
        )
        assert command == "deep"
        assert args.max_epoch == 50
        assert args.tune is True
        assert args.seed_num == 3

    def test_invalid_enum_is_usage_error(self, capsys):
        code = main(["classical", "--model_type", "knn", "--dataset", "demo",
                     "--normalization", "zscore"])
        assert code != 0
        err = capsys.readouterr().err
        assert "standard" in err and "quantile" in err

    def test_unknown_flag_is_usage_error(self):
        code = main(["classical", "--model_type", "knn", "--dataset", "demo",
                     "--frobnicate", "1"])
        assert code != 0

    def test_env_var_supplies_dataset_path(self, monkeypatch):
        monkeypatch.setenv("TALENT_DATA", "/somewhere/else")
        _, args, _, _ = get_args(
            ["classical", "--model_type", "knn", "--dataset", "demo"]
        )
        assert args.dataset_path == "/somewhere/else"
        _, args, _, _ = get_args(
            ["classical", "--model_type", "knn", "--dataset", "demo",
             "--dataset_path", "./data"]
        )
        assert args.dataset_path == "./data"

    def test_local_configs_take_precedence(self, workspace):
        (workspace / "configs" / "default").mkdir(parents=True)
        (workspace / "configs" / "default" / "knn.json").write_text(
            '{"knn": {"model": {"n_neighbors": 2}, "training": {}}}'
        )
        _, _, default_config, _ = get_args(
            ["classical", "--model_type", "knn", "--dataset", "demo"]
        )
        assert default_config["model"] == {"n_neighbors": 2}


class TestRuns:
    def test_classical_smoke(self, workspace, capsys):
        code = main([
            "classical", "--model_type", "knn", "--dataset", "demo",
            "--seed_num", "2", "--output_dir", "out",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        results = (workspace / "out" / "results.csv").read_text().splitlines()
        assert len(results) == 3  # header + one row per seed
        assert (workspace / "out" / "ranks.csv").exists()
        assert (workspace / "out" / "rank_vs_time.svg").exists()

    def test_deep_smoke(self, workspace):
        code = main([
            "deep", "--model_type", "mlp", "--dataset", "demo",
            "--max_epoch", "3", "--batch_size", "64", "--output_dir", "out",
        ])
        assert code == 0
        assert (workspace / "out" / "results.csv").exists()

    def test_regression_run(self, workspace, capsys):
        code = main([
            "classical", "--model_type", "linear_regression",
            "--dataset", "demo_reg", "--output_dir", "out",
        ])
        assert code == 0
        assert "rmse" in capsys.readouterr().out

    def test_family_mismatch(self, workspace, capsys):
        code = main(["deep", "--model_type", "knn", "--dataset", "demo"])
        assert code == 1
        err = capsys.readouterr().err
        assert "classical" in err and "mlp" in err
        code = main(["classical", "--model_type", "mlp", "--dataset", "demo"])
        assert code == 1

    def test_unknown_model(self, workspace, capsys):
        code = main(["classical", "--model_type", "xgboost",
                     "--dataset", "demo"])
        assert code == 1
        assert "xgboost" in capsys.readouterr().err

    def test_missing_dataset_names_path(self, workspace, capsys):
        code = main(["classical", "--model_type", "knn",
                     "--dataset", "nope"])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_tuned_single_trial_matches_untuned(self, workspace):
        base = ["classical", "--model_type", "cart", "--dataset", "demo"]
        assert main(base + ["--output_dir", "a"]) == 0
        assert main(base + ["--tune", "True", "--n_trials", "1",
                            "--output_dir", "b"]) == 0
        strip = lambda text: [
            ",".join(cell for i, cell in enumerate(line.split(","))
                     if i != len(line.split(",")) - 2)  # drop time_s column
            for line in text.splitlines()
        ]
        a = strip((workspace / "a" / "results.csv").read_text())
        b = strip((workspace / "b" / "results.csv").read_text())
        assert a == b

    def test_tune_improves_or_matches_default(self, workspace, capsys):
        code = main([
            "classical", "--model_type", "cart", "--dataset", "demo",
            "--tune", "True", "--n_trials", "5", "--output_dir", "out",
        ])
        assert code == 0
        assert "tuning: best of 5 trials" in capsys.readouterr().out

    def test_repeat_runs_bit_identical_with_pinned_clock(
        self, workspace, monkeypatch
    ):
        fake_time = iter(float(i) for i in range(10_000))
        monkeypatch.setattr(method_base, "_clock", lambda: next(fake_time))
        base = ["classical", "--model_type", "random_forest",
                "--dataset", "demo", "--seed_num", "2"]
        assert main(base + ["--output_dir", "a"]) == 0
        assert main(base + ["--output_dir", "b"]) == 0
        assert (workspace / "a" / "results.csv").read_bytes() == \
               (workspace / "b" / "results.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_seeds_reported(self, workspace, capsys):
        # an lr this size overflows immediately; every seed fails, the rank
        # table has no successful cell, so the run exits nonzero
        (workspace / "configs" / "default").mkdir(parents=True)
        (workspace / "configs" / "default" / "mlp.json").write_text(
            '{"mlp": {"model": {"d_layers": [4], "dropout": 0.0},'
            ' "training": {"lr": 1e200, "max_epoch": 2}}}'
        )
        code = main(["deep", "--model_type", "mlp", "--dataset", "demo",
                     "--seed_num", "2", "--output_dir", "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert "seed 0: non-finite training loss" in err
        # the per-seed records are written before ranking gives up
        results = workspace / "out" / "results.csv"
        assert results.read_text().splitlines() == [
            "dataset,method,seed,time_s,size", "demo,mlp,0,,", "demo,mlp,1,,"]
        assert not (workspace / "out" / "ranks.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_tuning_keeps_trial_log(self, workspace, capsys):
        configs = workspace / "configs"
        (configs / "default").mkdir(parents=True)
        (configs / "opt_space").mkdir()
        (configs / "default" / "mlp.json").write_text(
            '{"mlp": {"model": {"d_layers": [4]},'
            ' "training": {"lr": 1e200, "max_epoch": 2}}}'
        )
        (configs / "opt_space" / "mlp.json").write_text(
            '{"mlp": {"model": {}, "training": {}}}')
        code = main(["deep", "--model_type", "mlp", "--dataset", "demo",
                     "--tune", "true", "--n_trials", "2", "--output_dir", "out"])
        assert code == 1
        assert "all 2 tuning trials failed" in capsys.readouterr().err
        with open(workspace / "out" / "trials.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["trial"] for row in rows] == ["0", "1"]
        assert all(row["score"] == row["rank"] == "" for row in rows)
        assert all("non-finite training loss" in row["error"] for row in rows)

    def test_tune_writes_trial_log(self, workspace, monkeypatch, capsys):
        fake_time = iter(float(i) for i in range(10_000))
        monkeypatch.setattr(method_base, "_clock", lambda: next(fake_time))
        base = ["classical", "--model_type", "knn", "--dataset", "demo",
                "--tune", "true", "--n_trials", "4"]
        assert main(base + ["--output_dir", "a"]) == 0
        assert main(base + ["--output_dir", "b"]) == 0
        first = (workspace / "a" / "trials.csv").read_bytes()
        assert first == (workspace / "b" / "trials.csv").read_bytes()
        with open(workspace / "a" / "trials.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(row["trial"]) for row in rows] == [0, 1, 2, 3]
        assert json.loads(rows[0]["assignment"]) == {"model": {},
                                                     "training": {}}
        assert all(row["error"] == "" and row["seed"] == "0" for row in rows)
        best = min(rows, key=lambda row: (float(row["rank"]),
                                          int(row["trial"])))
        assert f"is trial {best['trial']} " in capsys.readouterr().out
