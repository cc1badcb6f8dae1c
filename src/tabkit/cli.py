"""Command-line entry point.

Two subcommands, one per model family:

    tabkit classical --model_type knn --dataset demo
    tabkit deep --model_type mlp --dataset demo --max_epoch 50

Flag precedence is command line > configs/default/<model>.json > built-in
method defaults. Config files are looked up in ./configs first and fall back
to the copies packaged with the library. The dataset root comes from
--dataset_path, else the TALENT_DATA environment variable, else ./data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .data import load_dataset, split_holdout
from .encode_cat import CAT_POLICIES
from .encode_num import NUM_POLICIES
from .errors import TabkitError, TuningError
from .methods import get_method, methods_in_family
from .pipeline import PipelineConfig
from .preprocess import CAT_NAN_POLICIES, NORMALIZATIONS, NUM_NAN_POLICIES
from .report import (
    emit_report,
    rank_methods,
    run_seeds,
    summarize_records,
    write_results_csv,
)
from .tune import SearchSpace, parse_space, tune_hyper_parameters, write_trials_csv

__all__ = ["get_args", "main"]


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model_type", required=True,
                        help="registered model name")
    parser.add_argument("--dataset", required=True,
                        help="name of the dataset folder")
    parser.add_argument("--dataset_path", default=None,
                        help="root folder holding dataset folders "
                             "(default: $TALENT_DATA or ./data)")
    parser.add_argument("--max_epoch", type=int, default=None,
                        help="maximum training epochs (method default: 200)")
    parser.add_argument("--batch_size", type=int, default=None,
                        help="samples per gradient update "
                             "(method default: 256)")
    parser.add_argument("--seed_num", type=int, default=1,
                        help="number of seeds to run")
    parser.add_argument("--normalization", choices=NORMALIZATIONS,
                        default="standard")
    parser.add_argument("--num_nan_policy", choices=NUM_NAN_POLICIES,
                        default="mean")
    parser.add_argument("--cat_nan_policy", choices=CAT_NAN_POLICIES,
                        default="most_frequent")
    parser.add_argument("--cat_policy", choices=CAT_POLICIES,
                        default="onehot")
    parser.add_argument("--num_policy", choices=NUM_POLICIES, default="none")
    parser.add_argument("--n_trials", type=int, default=20,
                        help="hyperparameter tuning trials")
    parser.add_argument("--tune", choices=("True", "False", "true", "false"),
                        default="False",
                        help="tune hyperparameters before the seed loop")
    parser.add_argument("--output_dir", default="./output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabkit", description="Train and evaluate tabular models."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("classical", "train a classical model"),
        ("deep", "train a deep model"),
    ):
        _add_run_flags(commands.add_parser(name, help=text))
    return parser


def _config_document(kind: str, model_type: str) -> dict | None:
    local = Path("configs") / kind / f"{model_type}.json"
    if local.is_file():
        return json.loads(local.read_text())
    packaged = resources.files("tabkit") / "configs" / kind / f"{model_type}.json"
    if packaged.is_file():
        return json.loads(packaged.read_text())
    return None


def _unwrap(document: dict, model_type: str) -> dict:
    if model_type in document:
        return document[model_type]
    if len(document) == 1:
        return next(iter(document.values()))
    raise TabkitError(
        f"config document does not contain an entry for {model_type!r}"
    )


def get_args(argv=None) -> tuple[str, argparse.Namespace, dict, SearchSpace]:
    """Parse argv into (command, args, default hyperparameters, opt space).
    A count below 1 (``--seed_num``, or ``--n_trials`` when tuning) is a
    usage error, raised before any work."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.dataset_path = (args.dataset_path or os.environ.get("TALENT_DATA")
                         or "./data")
    args.tune = args.tune in ("True", "true")
    if args.seed_num < 1:
        parser.error(f"--seed_num must be >= 1, got {args.seed_num}")
    if args.tune and args.n_trials < 1:
        parser.error(f"--n_trials must be >= 1, got {args.n_trials}")
    default_doc = _config_document("default", args.model_type)
    default_config = (_unwrap(default_doc, args.model_type)
                      if default_doc else {})
    space_doc = _config_document("opt_space", args.model_type)
    if space_doc is None:
        space_doc = {args.model_type: {"model": {}, "training": {}}}
    space = parse_space(space_doc)
    return args.command, args, default_config, space


def _run(command: str, args: argparse.Namespace, default_config: dict,
         space: SearchSpace) -> int:
    method_cls = get_method(args.model_type)
    wants_deep = command == "deep"
    if method_cls.is_deep != wants_deep:
        family = "deep" if method_cls.is_deep else "classical"
        allowed = ", ".join(methods_in_family(wants_deep))
        raise TabkitError(
            f"model_type {args.model_type!r} belongs to the {family} family; "
            f"the {command} command accepts: {allowed}"
        )

    dataset, info = load_dataset(args.dataset_path, args.dataset)
    if dataset.part_size("val") == 0:
        dataset = split_holdout(dataset, 0.2, seed=0)

    pipeline = PipelineConfig(
        normalization=args.normalization,
        num_nan_policy=args.num_nan_policy,
        cat_nan_policy=args.cat_nan_policy,
        num_policy=args.num_policy,
        cat_policy=args.cat_policy,
    )
    model_config = dict(default_config.get("model", {}))
    training_config = dict(default_config.get("training", {}))
    if args.max_epoch is not None:
        training_config["max_epoch"] = args.max_epoch
    if args.batch_size is not None:
        training_config["batch_size"] = args.batch_size

    os.makedirs(args.output_dir, exist_ok=True)
    if args.tune:
        trials_path = os.path.join(args.output_dir, "trials.csv")
        try:
            result = tune_hyper_parameters(
                args.model_type, space, dataset, info, args.n_trials, seed=0,
                base_model=model_config, base_training=training_config,
                pipeline=pipeline,
            )
        except TuningError as err:
            write_trials_csv(trials_path, err.trials)
            raise
        write_trials_csv(trials_path, result.trials)
        model_config = dict(result.model)
        training_config = dict(result.training)
        print(f"tuning: best of {args.n_trials} trials is trial "
              f"{result.trial} (validation score {result.score:.6f})")

    records = run_seeds(
        args.model_type, dataset, info, args.seed_num,
        model=model_config, training=training_config, pipeline=pipeline,
        dataset_name=args.dataset,
    )
    # results.csv keeps no error text, so each failed seed's goes to stderr
    for record in records:
        if not record.ok:
            print(f"seed {record.seed}: {record.error}", file=sys.stderr)
    if not any(r.ok for r in records):
        # nothing to rank; keep the per-seed records
        results_path = os.path.join(args.output_dir, "results.csv")
        write_results_csv(results_path, records)
        print(f"error: all {len(records)} seed(s) failed (see {results_path})",
              file=sys.stderr)
        return 1
    table = rank_methods(records)
    paths = emit_report(table, records, args.output_dir)

    summary, n_failed = summarize_records(records)
    failed_note = f" ({n_failed} seed(s) failed)" if n_failed else ""
    print(f"{args.dataset} | {args.model_type} | "
          f"{args.seed_num} seed(s){failed_note}")
    for name, (mean, std) in summary.items():
        print(f"  {name}: {mean:.6f} +/- {std:.6f}")
    written = [paths[k] for k in ("results", "ranks", "plot")]
    if args.tune:
        written.append(trials_path)
    print("wrote " + ", ".join(written))
    return 0


def main(argv=None) -> int:
    try:
        command, args, default_config, space = get_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(command, args, default_config, space)
    except (TabkitError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
