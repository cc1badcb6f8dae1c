import csv
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tabkit.methods as methods_registry
from tabkit.data import DatasetInfo, TaskType
from tabkit.errors import SpaceError, TuningError
from tabkit.methods import MethodConfig
from tabkit.methods.base import Prediction
from tabkit.methods.classical import DummyMethod
from tabkit.tune import (
    Bounded,
    Categorical,
    Maybe,
    MLPLayers,
    SearchSpace,
    TrialResult,
    _ranked,
    parse_space,
    sample_trial,
    tune_hyper_parameters,
    write_trials_csv,
)

from conftest import make_classification, make_regression

MLP_SPACE_DOC = {
    "mlp": {
        "model": {
            "d_layers": ["$mlp_d_layers", 1, 8, 64, 512],
            "dropout": ["?uniform", 0.0, 0.0, 0.5],
        },
        "training": {
            "lr": ["loguniform", 1e-05, 0.01],
            "weight_decay": ["?loguniform", 0.0, 1e-06, 0.001],
        },
    }
}


class TestParse:
    def test_mlp_document(self):
        space = parse_space(MLP_SPACE_DOC)
        assert space.name == "mlp"
        assert space.groups["model"]["d_layers"] == MLPLayers(
            Bounded("int", 1, 8), Bounded("loguniform", 64.0, 512.0))
        assert space.groups["model"]["dropout"] == Maybe(
            0.0, Bounded("uniform", 0.0, 0.5))
        assert space.groups["training"]["lr"] == Bounded("loguniform", 1e-05, 0.01)
        assert space.groups["training"]["weight_decay"] == Maybe(
            0.0, Bounded("loguniform", 1e-06, 0.001)
        )

    def test_int_and_categorical(self):
        space = parse_space({"knn": {"model": {
            "n_neighbors": ["int", 1, 32],
            "metric": ["categorical", "l2", "l1"],
        }}})
        assert space.groups["model"]["n_neighbors"] == Bounded("int", 1, 32)
        assert space.groups["model"]["metric"] == Categorical(("l2", "l1"))

    def test_nonpositive_loguniform_rejected(self):
        with pytest.raises(SpaceError, match="training.lr"):
            parse_space({"m": {"training": {"lr": ["loguniform", 0, 1]}}})

    def test_unknown_tag_names_path(self):
        with pytest.raises(SpaceError, match="model.alpha"):
            parse_space({"m": {"model": {"alpha": ["gaussian", 0, 1]}}})

    def test_reversed_bounds_rejected(self):
        with pytest.raises(SpaceError):
            parse_space({"m": {"model": {"a": ["uniform", 2.0, 1.0]}}})

    def test_non_numeric_bound_rejected(self):
        with pytest.raises(SpaceError, match="model.a"):
            parse_space({"m": {"model": {"a": ["uniform", "low", 1.0]}}})

    def test_int_requires_integer_bounds(self):
        with pytest.raises(SpaceError):
            parse_space({"m": {"model": {"a": ["int", 1.5, 3]}}})

    def test_maybe_requires_default(self):
        with pytest.raises(SpaceError):
            parse_space({"m": {"model": {"a": ["?uniform"]}}})

    def test_document_shape_errors(self):
        with pytest.raises(SpaceError):
            parse_space({"a": {}, "b": {}})
        with pytest.raises(SpaceError):
            parse_space({"m": {"model": ["uniform", 0, 1]}})
        with pytest.raises(SpaceError):
            parse_space([])


def in_space(node, value) -> bool:
    """Whether ``value`` is a draw the parsed ``node`` can make: a number of
    the leaf's type within its bounds, one of its choices, its default, or
    ``n`` copies of one rounded width."""
    if isinstance(node, dict):
        return (isinstance(value, dict) and value.keys() == node.keys()
                and all(in_space(node[key], value[key]) for key in node))
    if isinstance(node, Maybe):
        return value == node.default or in_space(node.inner, value)
    if isinstance(node, Categorical):
        return value in node.choices
    if isinstance(node, MLPLayers):
        lo, hi = round(node.width.lo), round(node.width.hi)
        return (isinstance(value, list) and in_space(node.count, len(value))
                and len(set(value)) == 1 and type(value[0]) is int
                and lo <= value[0] <= hi)
    kind = int if node.tag == "int" else float
    return type(value) is kind and node.lo <= value <= node.hi


class TestSampling:
    def test_degenerate_uniform(self):
        space = parse_space({"m": {"model": {"a": ["uniform", 0.3, 0.3]}}})
        for trial in range(10):
            assert sample_trial(space, [0, trial])["model"]["a"] == 0.3

    def test_loguniform_bounds_and_median(self):
        dist = Bounded("loguniform", 1e-5, 1e-2)
        rng = np.random.default_rng(0)
        draws = np.array([dist.sample(rng) for _ in range(1000)])
        assert ((draws >= 1e-5) & (draws <= 1e-2)).all()
        assert 3e-5 <= np.median(draws) <= 3e-3

    def test_int_is_inclusive(self):
        dist = Bounded("int", 1, 3)
        rng = np.random.default_rng(1)
        draws = {dist.sample(rng) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_categorical_draws_from_set(self):
        dist = Categorical(("a", "b", "c"))
        rng = np.random.default_rng(2)
        draws = {dist.sample(rng) for _ in range(100)}
        assert draws == {"a", "b", "c"}

    def test_maybe_emits_default_about_half_the_time(self):
        dist = Maybe(0.0, Bounded("uniform", 0.5, 1.0))
        rng = np.random.default_rng(3)
        draws = [dist.sample(rng) for _ in range(400)]
        fraction = sum(1 for d in draws if d == 0.0) / len(draws)
        assert 0.4 <= fraction <= 0.6
        assert all(d == 0.0 or 0.5 <= d <= 1.0 for d in draws)

    def test_mlp_layers_shape(self):
        dist = MLPLayers(Bounded("int", 1, 8), Bounded("loguniform", 64, 512))
        rng = np.random.default_rng(4)
        for _ in range(500):
            layers = dist.sample(rng)
            assert 1 <= len(layers) <= 8
            assert len(set(layers)) == 1
            assert 64 <= layers[0] <= 512

    def test_sampled_assignments_lie_in_space(self):
        space = parse_space(MLP_SPACE_DOC)
        for trial in range(200):
            assignment = sample_trial(space, [7, trial])
            assert in_space(space.groups, assignment)

    def test_same_seed_same_assignment(self):
        space = parse_space(MLP_SPACE_DOC)
        assert sample_trial(space, [5, 3]) == sample_trial(space, [5, 3])


class TestTuning:
    SPACE = parse_space({"knn": {"model": {"n_neighbors": ["int", 1, 10]}}})

    def test_single_trial_returns_defaults(self):
        dataset, info = make_classification(seed=0)
        result = tune_hyper_parameters(
            "knn", self.SPACE, dataset, info, n_trials=1,
            base_model={"n_neighbors": 5},
        )
        assert result.trial == 0
        assert result.assignment == {"model": {}, "training": {}}
        assert result.model == {"n_neighbors": 5}

    def test_beats_bad_default(self):
        dataset, info = make_classification(seed=1, n_rows=150)
        n_train = dataset.part_size("train")
        bad = tune_hyper_parameters(
            "knn", self.SPACE, dataset, info, n_trials=1,
            base_model={"n_neighbors": n_train},
        )
        tuned = tune_hyper_parameters(
            "knn", self.SPACE, dataset, info, n_trials=10,
            base_model={"n_neighbors": n_train},
        )
        assert tuned.score > bad.score
        assert tuned.trial > 0

    def test_prefix_stability_and_monotonicity(self):
        dataset, info = make_classification(seed=2)
        results = [
            tune_hyper_parameters("knn", self.SPACE, dataset, info,
                                  n_trials=n, seed=11)
            for n in (1, 3, 6, 10)
        ]
        for shorter, longer in zip(results, results[1:]):
            prefix = longer.trials[: len(shorter.trials)]
            assert [t.assignment for t in prefix] == \
                   [t.assignment for t in shorter.trials]
            assert [t.score for t in prefix] == [t.score for t in shorter.trials]
            assert longer.score >= shorter.score

    def test_ties_go_to_earliest_trial(self):
        dataset, info = make_classification(seed=3)
        space = parse_space({"dummy": {"model": {"unused": ["int", 0, 5]}}})
        result = tune_hyper_parameters("dummy", space, dataset, info, n_trials=5)
        assert result.trial == 0

    def test_trial_log_is_ranked(self):
        dataset, info = make_classification(seed=4)
        result = tune_hyper_parameters("knn", self.SPACE, dataset, info,
                                       n_trials=6)
        ranks = [t.rank for t in result.trials]
        assert all(r is not None for r in ranks)
        assert sum(ranks) == pytest.approx(6 * 7 / 2)
        best_rank = min(ranks)
        assert result.trials[result.trial].rank == best_rank

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_failures_raise_with_log(self):
        dataset, info = make_classification(seed=5)
        space = parse_space({"mlp": {"training": {"lr": ["loguniform", 1e199, 1e201]}}})
        with pytest.raises(TuningError) as err:
            tune_hyper_parameters(
                "mlp", space, dataset, info, n_trials=3,
                base_model={"d_layers": [8], "dropout": 0.0},
                base_training={"lr": 1e200, "max_epoch": 3},
            )
        assert len(err.value.trials) == 3
        assert all(t.error for t in err.value.trials)

    def test_out_of_range_trials_are_recorded(self):
        dataset, info = make_classification(seed=8)
        n_train = dataset.part_size("train")
        space = parse_space({"knn": {"model": {
            "n_neighbors": ["int", n_train + 1, n_train + 50]}}})
        result = tune_hyper_parameters("knn", space, dataset, info, n_trials=4)
        assert result.trial == 0
        failed = [t for t in result.trials if t.trial > 0]
        assert len(failed) == 3
        assert all("exceeds" in t.error and t.score is None for t in failed)

    def test_any_exception_in_a_trial_is_recorded(self, monkeypatch):
        class OverflowingMethod(DummyMethod):
            def _fit(self, x_train, y_train, x_val, y_val):
                if self.config.model.get("overflow"):
                    raise OverflowError("synthetic overflow")
                super()._fit(x_train, y_train, x_val, y_val)

        monkeypatch.setitem(methods_registry._REGISTRY, "overflowing",
                            OverflowingMethod)
        dataset, info = make_classification(seed=9)
        space = parse_space({"overflowing": {"model": {
            "overflow": ["categorical", True]}}})
        result = tune_hyper_parameters("overflowing", space, dataset, info,
                                       n_trials=3)
        assert result.trial == 0 and result.trials[0].score is not None
        assert [t.error for t in result.trials[1:]] == [
            "OverflowError: synthetic overflow"] * 2

    def test_non_finite_validation_predictions_fail_the_trial(self, monkeypatch):
        class NanWhenBad(DummyMethod):
            def _predict(self, x):
                if self.config.model["bad"]:
                    return Prediction.regression(np.full(len(x), np.nan))
                return super()._predict(x)

        monkeypatch.setitem(methods_registry._REGISTRY, "nan_when_bad", NanWhenBad)
        dataset, info = make_regression(n_rows=120, seed=0)
        space = parse_space({"nan_when_bad": {"model": {"bad": ["categorical", 0, 1]}}})
        for base in (0, 1):
            result = tune_hyper_parameters("nan_when_bad", space, dataset, info,
                                           n_trials=6, base_model={"bad": base})
            bad = [{"bad": base, **t.assignment["model"]}["bad"] for t in result.trials]
            assert 0 in bad and 1 in bad
            for t, is_bad in zip(result.trials, bad):
                if is_bad:
                    assert (t.score, t.rank) == (None, None)
                    assert t.error == "predictions contain non-finite values"
                else:
                    assert math.isfinite(t.score) and math.isfinite(t.rank)
            assert not bad[result.trial]
            assert result.score == max(t.score for t, b in zip(result.trials, bad)
                                       if not b)

    def test_requires_validation_rows(self):
        dataset, info = make_classification(seed=6, val_fraction=0.0)
        with pytest.raises(ValueError):
            tune_hyper_parameters("knn", self.SPACE, dataset, info, n_trials=2)

    def test_rejects_zero_trials(self):
        dataset, info = make_classification(seed=7)
        with pytest.raises(ValueError):
            tune_hyper_parameters("knn", self.SPACE, dataset, info, n_trials=0)


# ---- what tuning runs depend on, pinned from one version to the next -------

def packaged_space(name):
    path = resources.files("tabkit") / "configs" / "opt_space" / f"{name}.json"
    return parse_space(json.loads(path.read_text()))


PACKAGED_SPACES = sorted(path.name.removesuffix(".json") for path in
                         (resources.files("tabkit") / "configs" / "opt_space").iterdir()
                         if path.name.endswith(".json"))


@pytest.mark.parametrize("name", PACKAGED_SPACES)
def test_packaged_space_draws_lie_in_space(name):
    space = packaged_space(name)
    for seed in range(3):
        for trial in range(1, 30):
            assert in_space(space.groups, sample_trial(space, [seed, trial]))


@pytest.mark.parametrize("name", PACKAGED_SPACES)
def test_packaged_space_draws_build_their_method(name):
    # every draw is in range for its method's parser, the "?" default (0.0
    # for the MLP's weight_decay) included
    space = packaged_space(name)
    cls = methods_registry.get_method(name)
    task = cls.task_types[0]
    info = DatasetInfo(task=task, n_num_features=3, n_cat_features=0,
                       class_count=None if task is TaskType.REGRESSION else 3)
    for seed in range(3):
        for trial in range(1, 30):
            cls(MethodConfig(**sample_trial(space, [seed, trial])), info)


PINNED_DRAWS = {
    "knn": [{"model": {"n_neighbors": k}, "training": {}}
            for k in (17, 32, 17, 15, 23)],
    "mlp": [
        {"model": {"d_layers": [204] * 5, "dropout": 0.4782569087376693},
         "training": {"lr": 1.4991513509218875e-05, "weight_decay": 0.0}},
        {"model": {"d_layers": [148] * 8, "dropout": 0.07255011760773877},
         "training": {"lr": 2.2179722698874637e-05, "weight_decay": 0.0}},
        {"model": {"d_layers": [383] * 5, "dropout": 0.0},
         "training": {"lr": 8.925320611405147e-05, "weight_decay": 0.0}},
        {"model": {"d_layers": [103] * 4, "dropout": 0.0},
         "training": {"lr": 0.0002188163864877958,
                      "weight_decay": 4.557761005040597e-06}},
        {"model": {"d_layers": [200] * 6, "dropout": 0.0},
         "training": {"lr": 0.0001278526588377969, "weight_decay": 0.0}},
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_DRAWS))
def test_packaged_space_draws_are_pinned(name):
    space = packaged_space(name)
    draws = [sample_trial(space, [0, trial]) for trial in range(1, 6)]
    assert repr(draws) == repr(PINNED_DRAWS[name])


def test_trials_csv_rank_column_is_pinned(tmp_path):
    dataset, info = make_regression(seed=1)
    space = parse_space({"knn": {"model": {"n_neighbors": ["int", 1, 10]}}})
    result = tune_hyper_parameters("knn", space, dataset, info, n_trials=8,
                                   base_model={"n_neighbors": 5})
    write_trials_csv(tmp_path / "trials.csv", result.trials)
    with open(tmp_path / "trials.csv", newline="") as handle:
        ranks = [row["rank"] for row in csv.DictReader(handle)]
    # trials 0, 4 and 6 draw k = 5 and tie, as do trials 1 and 3 (k = 6)
    assert ranks == ["7.0", "4.5", "3.0", "4.5", "7.0", "1.0", "7.0", "2.0"]


def rank_oracle(scores):
    """The trial log's rank rule: 1 = best, ties averaged, as the trials
    scored better plus (tied + 1) / 2; None for a failed trial."""
    return [None if s is None else
            sum(1 for o in scores if o is not None and o > s)
            + (sum(1 for o in scores if o is not None and o == s) + 1) / 2
            for s in scores]


SCORES = st.lists(st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]),
    st.floats(allow_nan=False)), max_size=30)


@given(SCORES)
def test_trial_ranks_follow_the_oracle(scores):
    trials = [TrialResult(trial=i, assignment={}, score=s)
              for i, s in enumerate(scores)]
    ranks = [t.rank for t in _ranked(trials)]
    # repr is what trials.csv writes: equal floats, and floats only
    assert [repr(r) for r in ranks] == [repr(r) for r in rank_oracle(scores)]
