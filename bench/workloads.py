"""The benchmark workloads: what each builds from the seed and what one pass runs.

A pass drives tabkit only through its public functions, reached through an
``Api`` whose members are the plain functions in an untraced pass and traced
wrappers in a traced one. A call that raises is isolated: its seeds (and, for
the CLI, its tuning trials) count as failed, its error text is kept, and the
pass goes on to the next call. A tuning trial that fails inside a call that
succeeds counts as failed too.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from typing import Callable

import tabkit.cli
from tabkit import PipelineConfig, TaskType, save_dataset
from tabkit.errors import TuningError

from checks import ReportOutput
from generate import make_classification, make_regression, regression_target


@dataclass
class Api:
    run_seeds: Callable
    rank_methods: Callable
    emit_report: Callable
    cli_main: Callable
    tracer: object | None = None


@dataclass
class PassOutput:
    reports: list[ReportOutput] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    complete: bool = True
    trials: int = 0
    failed_trials: int = 0

    def call_failed(self, label: str, n_ops: int, err) -> None:
        self.failed += n_ops
        self.errors.append(f"{label}: {err}")

    def finish(self, api: Api, records, out_dir: str) -> None:
        """Rank the records and emit their report; the workload's output."""
        try:
            table = api.rank_methods(records)
            api.emit_report(table, records, out_dir)
        except Exception as err:  # keep the benchmark running; report it
            self.complete = False
            self.errors.append(f"report {out_dir}: {_describe(err)}")
            return
        self.reports.append(ReportOutput(out_dir, records, table))


def _describe(err: BaseException) -> str:
    return f"{type(err).__name__}: {err}"


# ---- study-1k ---------------------------------------------------------------
# Why: the study ROADMAP calls end to end (criterion 7's roster and table
# shapes). Tree and MLP fitting do over 99% of its work while each pipeline
# fit costs about a millisecond, so a change to `methods` shows here and a
# change to the pipeline layers does not. All seven methods fit the same
# default pipeline on a table, so 18 of its 21 pipeline fits repeat an output
# already produced (repeat_fit_frac 0.86); at a millisecond each, a pipeline
# cache would not move this workload's wall time.
STUDY_ROSTER = ("dummy", "knn", "linear", "cart", "random_forest", "gbdt",
                "mlp")
# The MLP trains a fixed number of epochs (early stopping off): with the
# default patience its epoch count, and so the pass time, moved by a third
# from one workload seed to the next.
STUDY_MLP_TRAINING = {"max_epoch": 40, "patience": 40}


def build_study(seed: int, workdir: str, tiny: bool):
    n = 120 if tiny else 1000
    shape = dict(n_rows=n, n_num=6, n_cat=2)
    return [
        ("blobs-bin", *make_classification(seed, 71, n_classes=2, **shape)),
        ("blobs-multi", *make_classification(seed, 72, n_classes=4, **shape)),
        ("linear-reg", *make_regression(seed, 73, **shape)),
    ]


def run_study(api: Api, datasets, out_dir: str) -> PassOutput:
    out = PassOutput()
    records = []
    for ds_name, dataset, info in datasets:
        for slot in STUDY_ROSTER:
            method = slot
            if slot == "linear":
                method = ("linear_regression"
                          if dataset.task is TaskType.REGRESSION else "logreg")
            training = STUDY_MLP_TRAINING if slot == "mlp" else None
            out.attempted += 1
            try:
                runs = api.run_seeds(method, dataset, info, 1,
                                     training=training, dataset_name=ds_name)
            except Exception as err:
                out.call_failed(f"{ds_name}/{method}", 1, _describe(err))
                continue
            records.extend(replace(r, method=slot) for r in runs)
    out.finish(api, records, out_dir)
    return out


# ---- encode-10k -------------------------------------------------------------
# Why: preprocess, encode_num, encode_cat and the pipeline do about three
# quarters of the work and no tree or MLP runs, the opposite of study-1k;
# memory tracks the encoded width (one-hot is about 1.6k columns). Only the
# catboost encoder depends on the run seed, and the two methods on a target
# share each pipeline, so three in four pipeline fits repeat an earlier output.
# knn is kept off: at that width one knn predict takes tens of seconds and
# would swamp the pipeline.
ENCODE_CONFIGS = (
    ("onehot", PipelineConfig(cat_policy="onehot", normalization="standard",
                              num_nan_policy="mean",
                              cat_nan_policy="most_frequent",
                              num_policy="none")),
    ("ordinal", PipelineConfig(cat_policy="ordinal", normalization="minmax",
                               num_nan_policy="median",
                               cat_nan_policy="constant",
                               num_policy="Q_PLE")),
    ("binary", PipelineConfig(cat_policy="binary", normalization="quantile",
                              num_nan_policy="mean", cat_nan_policy="constant",
                              num_policy="T_PLE")),
    ("hash", PipelineConfig(cat_policy="hash", normalization="maxabs",
                            num_nan_policy="median",
                            cat_nan_policy="most_frequent",
                            num_policy="T_bins")),
    ("target", PipelineConfig(cat_policy="target", normalization="power",
                              num_nan_policy="mean",
                              cat_nan_policy="most_frequent",
                              num_policy="Q_Unary")),
    ("loo", PipelineConfig(cat_policy="loo", normalization="robust",
                           num_nan_policy="median", cat_nan_policy="constant",
                           num_policy="T_Johnson")),
    ("catboost", PipelineConfig(cat_policy="catboost",
                                normalization="standard",
                                num_nan_policy="mean",
                                cat_nan_policy="constant",
                                num_policy="none")),
)
ENCODE_METHODS = {"clf": ("ncm", "naive_bayes"),
                  "reg": ("dummy", "linear_regression")}
ENCODE_SEED_NUM = 2


def build_encode(seed: int, workdir: str, tiny: bool):
    n = 600 if tiny else 10_000
    n_tokens = 200
    clf, clf_info = make_classification(
        seed, 10, n_rows=n, n_num=8, n_cat=8, n_classes=3, n_tokens=n_tokens,
        zipf=1.0, label_noise=0.7, missing_rate=0.05, name="encode-clf")
    reg, reg_info = regression_target(seed, 11, clf, clf_info, n_tokens,
                                      "encode-reg")
    return {"clf": (clf, clf_info), "reg": (reg, reg_info)}


def run_encode(api: Api, tables, out_dir: str) -> PassOutput:
    out = PassOutput()
    for target, (dataset, info) in tables.items():
        records = []
        for cfg_name, cfg in ENCODE_CONFIGS:
            for method in ENCODE_METHODS[target]:
                out.attempted += ENCODE_SEED_NUM
                try:
                    records.extend(api.run_seeds(
                        method, dataset, info, ENCODE_SEED_NUM, pipeline=cfg,
                        dataset_name=cfg_name))
                except Exception as err:
                    out.call_failed(f"{target}/{cfg_name}/{method}",
                                    ENCODE_SEED_NUM, _describe(err))
        out.finish(api, records, os.path.join(out_dir, target))
    return out


# ---- tune-cli-4k ------------------------------------------------------------
# Why: the only workload through `data` (CSV parse), `tune` and `cli`. knn's
# predict does most of the work. 24 of the knn call's 26 pipeline fits repeat
# a byte-identical output, but they take under 4% of a pass; encode-10k, where
# the pipeline is three quarters of a pass, is where a pipeline cache would
# show. The second call, `deep` (the CLI's other command) training the MLP
# for ten epochs on a regression table of the same shape, gives the workload
# a regression score and a training time that is more than a few millisecond
# knn fits, whose sum was too jittery to compare.
CLI_SEED_NUM = 3


@contextmanager
def counting_trials(out: PassOutput):
    """Count the CLI's tuning trials and the failed ones, taking no time
    stamps. tune_hyper_parameters catches a trial's FitError and goes on, so
    a failed trial shows only in the result it hands back to the CLI."""
    tune = tabkit.cli.tune_hyper_parameters

    def counted(*args, **kwargs):
        try:
            result = tune(*args, **kwargs)
        except TuningError as err:
            out.trials += len(err.trials)
            out.failed_trials += len(err.trials)
            raise
        failed = [t for t in result.trials if t.error is not None]
        out.trials += len(result.trials)
        out.failed_trials += len(failed)
        out.errors.extend(f"tuning trial {t.trial}: {t.error}" for t in failed)
        return result

    tabkit.cli.tune_hyper_parameters = counted
    try:
        yield
    finally:
        tabkit.cli.tune_hyper_parameters = tune


def build_cli(seed: int, workdir: str, tiny: bool):
    n, n_trials = (300, 3) if tiny else (4000, 10)
    shape = dict(n_rows=n, n_num=8, n_cat=8, n_tokens=10, zipf=1.0,
                 missing_rate=0.05)
    data_root = os.path.join(workdir, "data")
    tables = {
        "cli-bin": make_classification(seed, 40, n_classes=2,
                                       label_noise=0.5, name="cli-bin",
                                       **shape),
        "cli-reg": make_regression(seed, 41, name="cli-reg", **shape),
    }
    for name, (dataset, info) in tables.items():
        save_dataset(dataset, info, os.path.join(data_root, name))
    common = ["--dataset_path", data_root, "--seed_num", str(CLI_SEED_NUM)]
    # (dataset, argv, seeds plus tuning trials the call attempts)
    return [
        ("cli-bin", ["classical", "--model_type", "knn", "--dataset", "cli-bin",
                     "--tune", "true", "--n_trials", str(n_trials), *common],
         n_trials + CLI_SEED_NUM),
        ("cli-reg", ["deep", "--model_type", "mlp", "--dataset", "cli-reg",
                     "--max_epoch", "10", *common],
         CLI_SEED_NUM),
    ]


def run_cli(api: Api, calls, out_dir: str) -> PassOutput:
    out = PassOutput()
    for label, argv, n_ops in calls:
        report_dir = os.path.join(out_dir, label)
        console = io.StringIO()
        out.attempted += n_ops
        failed_before = out.failed_trials
        try:
            with counting_trials(out), redirect_stdout(console), \
                    redirect_stderr(console):
                code = api.cli_main([*argv, "--output_dir", report_dir])
        except Exception as err:
            out.call_failed(label, n_ops, _describe(err))
            continue
        if code != 0:
            out.call_failed(label, n_ops, f"exit {code}: "
                            f"{console.getvalue().strip()[-500:]}")
            continue
        out.failed += out.failed_trials - failed_before
        records = api.tracer.record_batches[-1] if api.tracer else None
        out.reports.append(ReportOutput(report_dir, records))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    run: Callable


WORKLOADS = {w.name: w for w in (
    Workload("study-1k", build_study, run_study),
    Workload("encode-10k", build_encode, run_encode),
    Workload("tune-cli-4k", build_cli, run_cli),
)}
