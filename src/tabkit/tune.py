"""Hyperparameter search spaces and random-search tuning.

A search space is a JSON document with a single top-level model name whose
value holds named groups (``model``, ``training``), each mapping parameter
names to distribution specs:

    ["uniform", lo, hi]         float, uniform on [lo, hi]
    ["loguniform", lo, hi]      float, log-uniform on [lo, hi], lo > 0
    ["int", lo, hi]             integer, uniform on [lo, hi] inclusive
    ["categorical", v, ...]     one of the listed values
    ["?<dist>", default, ...]   the default with probability 0.5, else <dist>
    ["$mlp_d_layers", n_min, n_max, w_min, w_max]
                                n ~ int[n_min, n_max] copies of one shared
                                width round(exp(U(ln w_min, ln w_max)))

Tuning is plain random search. Trial 0 always evaluates the supplied base
(default) configuration, so the winner is never worse than the defaults on
validation. Trial t draws its assignment from ``default_rng([seed, t])``,
which makes the trial sequence a prefix-stable function of the seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .data import Dataset, DatasetInfo
from .errors import SpaceError, TuningError, describe_failure
from .methods import MethodConfig, get_method
from .methods.base import validation_score
from .pipeline import PipelineConfig

__all__ = [
    "SearchSpace",
    "TrialResult",
    "TuningResult",
    "parse_space",
    "sample_trial",
    "tune_hyper_parameters",
    "write_trials_csv",
]


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpaceError(f"{path}: bound {value!r} is not a number")
    if not math.isfinite(value):
        raise SpaceError(f"{path}: bound {value!r} is not finite")
    return float(value)


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpaceError(f"{path}: bound {value!r} is not an integer")
    return value


def _require_arity(args, n: int, path: str) -> None:
    if len(args) != n:
        raise SpaceError(f"{path}: expected {n} arguments, got {len(args)}")


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def sample(self, rng: np.random.Generator):
        return float(rng.uniform(self.lo, self.hi))

    def contains(self, value) -> bool:
        return isinstance(value, (int, float)) and self.lo <= value <= self.hi

    def serialize(self) -> list:
        return ["uniform", self.lo, self.hi]


@dataclass(frozen=True)
class LogUniform:
    lo: float
    hi: float

    def sample(self, rng: np.random.Generator):
        return float(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))

    def contains(self, value) -> bool:
        return isinstance(value, (int, float)) and self.lo <= value <= self.hi

    def serialize(self) -> list:
        return ["loguniform", self.lo, self.hi]


@dataclass(frozen=True)
class IntUniform:
    lo: int
    hi: int

    def sample(self, rng: np.random.Generator):
        return int(rng.integers(self.lo, self.hi + 1))

    def contains(self, value) -> bool:
        return isinstance(value, int) and self.lo <= value <= self.hi

    def serialize(self) -> list:
        return ["int", self.lo, self.hi]


@dataclass(frozen=True)
class Categorical:
    choices: tuple

    def sample(self, rng: np.random.Generator):
        return self.choices[int(rng.integers(len(self.choices)))]

    def contains(self, value) -> bool:
        return value in self.choices

    def serialize(self) -> list:
        return ["categorical", *self.choices]


@dataclass(frozen=True)
class Maybe:
    """A 0.5-probability choice between a fixed default and a distribution."""

    default: Any
    inner: Any

    def sample(self, rng: np.random.Generator):
        if rng.random() < 0.5:
            return self.default
        return self.inner.sample(rng)

    def contains(self, value) -> bool:
        return value == self.default or self.inner.contains(value)

    def serialize(self) -> list:
        tag, *args = self.inner.serialize()
        return [f"?{tag}", self.default, *args]


@dataclass(frozen=True)
class MLPLayers:
    """Layer-count times shared-width composite for MLP hidden sizes."""

    n_min: int
    n_max: int
    w_min: float
    w_max: float

    def sample(self, rng: np.random.Generator):
        n = int(rng.integers(self.n_min, self.n_max + 1))
        width = int(round(math.exp(
            rng.uniform(math.log(self.w_min), math.log(self.w_max))
        )))
        return [width] * n

    def contains(self, value) -> bool:
        if not isinstance(value, list) or not self.n_min <= len(value) <= self.n_max:
            return False
        return (len(set(value)) == 1
                and all(self.w_min <= w <= self.w_max for w in value))

    def serialize(self) -> list:
        return ["$mlp_d_layers", self.n_min, self.n_max, self.w_min, self.w_max]


def _parse_leaf(spec, path: str):
    if not isinstance(spec, list) or not spec:
        raise SpaceError(f"{path}: expected a distribution list, got {spec!r}")
    tag = spec[0]
    if not isinstance(tag, str):
        raise SpaceError(f"{path}: distribution tag {tag!r} is not a string")
    args = spec[1:]
    if tag.startswith("?"):
        if not args:
            raise SpaceError(f"{path}: '?' spec is missing its default value")
        inner = _parse_leaf([tag[1:], *args[1:]], path)
        return Maybe(default=args[0], inner=inner)
    if tag == "uniform":
        _require_arity(args, 2, path)
        lo, hi = (_require_number(a, path) for a in args)
        if lo > hi:
            raise SpaceError(f"{path}: lower bound {lo} exceeds upper bound {hi}")
        return Uniform(lo, hi)
    if tag == "loguniform":
        _require_arity(args, 2, path)
        lo, hi = (_require_number(a, path) for a in args)
        if lo <= 0:
            raise SpaceError(f"{path}: loguniform needs a positive lower bound, "
                             f"got {lo}")
        if lo > hi:
            raise SpaceError(f"{path}: lower bound {lo} exceeds upper bound {hi}")
        return LogUniform(lo, hi)
    if tag == "int":
        _require_arity(args, 2, path)
        lo, hi = (_require_int(a, path) for a in args)
        if lo > hi:
            raise SpaceError(f"{path}: lower bound {lo} exceeds upper bound {hi}")
        return IntUniform(lo, hi)
    if tag == "categorical":
        if not args:
            raise SpaceError(f"{path}: categorical needs at least one choice")
        return Categorical(tuple(args))
    if tag == "$mlp_d_layers":
        _require_arity(args, 4, path)
        n_min = _require_int(args[0], path)
        n_max = _require_int(args[1], path)
        w_min = _require_number(args[2], path)
        w_max = _require_number(args[3], path)
        if n_min < 1 or n_min > n_max:
            raise SpaceError(f"{path}: invalid layer-count bounds "
                             f"[{n_min}, {n_max}]")
        if w_min <= 0 or w_min > w_max:
            raise SpaceError(f"{path}: invalid width bounds [{w_min}, {w_max}]")
        return MLPLayers(n_min, n_max, w_min, w_max)
    raise SpaceError(f"{path}: unknown distribution tag {tag!r}")


def _parse_node(node, path: str):
    if isinstance(node, dict):
        return {key: _parse_node(value, f"{path}.{key}")
                for key, value in node.items()}
    return _parse_leaf(node, path)


def _serialize_node(node):
    if isinstance(node, dict):
        return {key: _serialize_node(value) for key, value in node.items()}
    return node.serialize()


def _sample_node(node, rng: np.random.Generator):
    if isinstance(node, dict):
        return {key: _sample_node(value, rng) for key, value in node.items()}
    return node.sample(rng)


def _contains_node(node, value) -> bool:
    if isinstance(node, dict):
        return (isinstance(value, dict)
                and set(value) == set(node)
                and all(_contains_node(node[k], value[k]) for k in node))
    return node.contains(value)


@dataclass(frozen=True)
class SearchSpace:
    """Parsed search space: the model name plus its parameter groups."""

    name: str
    groups: dict

    def serialize(self) -> dict:
        return {self.name: _serialize_node(self.groups)}

    def contains(self, assignment: dict) -> bool:
        return _contains_node(self.groups, assignment)


def parse_space(document) -> SearchSpace:
    """Parse a search-space document into a SearchSpace.

    The document must be a mapping with exactly one top-level model name,
    whose value maps group names to parameter trees.
    """
    if not isinstance(document, dict) or len(document) != 1:
        raise SpaceError("document must have exactly one top-level model name")
    name, body = next(iter(document.items()))
    if not isinstance(body, dict):
        raise SpaceError(f"{name}: expected parameter groups, got {body!r}")
    groups = {}
    for group, node in body.items():
        if not isinstance(node, dict):
            raise SpaceError(f"{name}.{group}: expected a parameter mapping, "
                             f"got {node!r}")
        groups[group] = _parse_node(node, f"{name}.{group}")
    return SearchSpace(name=name, groups=groups)


def sample_trial(space: SearchSpace, rng_seed) -> dict:
    """Draw one assignment from every leaf of the space, in document order."""
    rng = np.random.default_rng(rng_seed)
    return _sample_node(space.groups, rng)


@dataclass(frozen=True)
class TrialResult:
    trial: int
    assignment: dict
    score: float | None
    error: str | None = None
    rank: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class TuningResult:
    assignment: dict
    model: dict
    training: dict
    trial: int
    score: float
    trials: tuple = field(default_factory=tuple)


def _merge(base: dict, overrides: dict) -> dict:
    merged = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _ranked(trials: list[TrialResult]) -> tuple[TrialResult, ...]:
    scored = [t for t in trials if t.score is not None]
    ranks = {}
    for t in scored:
        better = sum(1 for o in scored if o.score > t.score)
        tied = sum(1 for o in scored if o.score == t.score)
        ranks[t.trial] = better + (tied + 1) / 2
    return tuple(replace(t, rank=ranks.get(t.trial)) for t in trials)


def write_trials_csv(path: str, trials) -> None:
    """The trial log, one row per trial: its sampled assignment as sorted-key
    JSON, validation score, rank (1 = best, ties averaged), seed and error
    text. It holds no timings, so reruns write identical bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trial", "assignment", "score", "rank", "seed", "error"])
        for t in trials:
            writer.writerow([
                t.trial, json.dumps(t.assignment, sort_keys=True),
                "" if t.score is None else repr(t.score),
                "" if t.rank is None else repr(t.rank),
                t.seed, t.error or "",
            ])


def tune_hyper_parameters(
    method_name: str,
    space: SearchSpace,
    train_val: Dataset,
    info: DatasetInfo,
    n_trials: int,
    seed: int = 0,
    *,
    base_model: dict | None = None,
    base_training: dict | None = None,
    pipeline: PipelineConfig | None = None,
) -> TuningResult:
    """Random search over the space, maximizing validation accuracy for
    classification and minimizing validation RMSE for regression.

    Trial 0 evaluates the base (default) configuration unchanged; trials
    1..n_trials-1 merge a sampled assignment onto it. Ties go to the earliest
    trial. A trial that raises any exception is recorded with its error text;
    TuningError (carrying the trial log) is raised if every trial failed.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if train_val.part_size("val") == 0:
        raise ValueError("tuning requires a non-empty validation part")
    base_model = dict(base_model or {})
    base_training = dict(base_training or {})
    pipeline = pipeline or PipelineConfig()
    method_cls = get_method(method_name)

    trials: list[TrialResult] = []
    for trial in range(n_trials):
        if trial == 0:
            assignment: dict = {"model": {}, "training": {}}
        else:
            assignment = sample_trial(space, [seed, trial])
        config = MethodConfig(
            model=_merge(base_model, assignment.get("model", {})),
            training=_merge(base_training, assignment.get("training", {})),
            pipeline=pipeline,
            seed=seed,
        )
        try:
            method = method_cls(config, info)
            method.fit(train_val, info)
            score = validation_score(
                method.predict_part(train_val, "val").values,
                train_val.part_labels("val"), train_val.task.is_classification)
            trials.append(TrialResult(trial=trial, assignment=assignment,
                                      score=score, seed=seed))
        except Exception as err:  # any failure is this trial's, not the search's
            trials.append(TrialResult(
                trial=trial, assignment=assignment, score=None,
                error=describe_failure(err), seed=seed))

    log = _ranked(trials)
    scored = [t for t in log if t.score is not None]
    if not scored:
        raise TuningError(
            f"all {n_trials} tuning trials failed for {method_name!r}",
            trials=log,
        )
    best = max(scored, key=lambda t: (t.score, -t.trial))
    return TuningResult(
        assignment=best.assignment,
        model=_merge(base_model, best.assignment.get("model", {})),
        training=_merge(base_training, best.assignment.get("training", {})),
        trial=best.trial,
        score=best.score,
        trials=log,
    )
