import numpy as np
import pytest

import tabkit.methods as methods_registry
from tabkit.errors import SpaceError, TuningError
from tabkit.methods.classical import DummyMethod
from tabkit.tune import (
    Categorical,
    IntUniform,
    LogUniform,
    Maybe,
    MLPLayers,
    SearchSpace,
    Uniform,
    parse_space,
    sample_trial,
    tune_hyper_parameters,
)

from conftest import make_classification

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
        assert space.groups["model"]["d_layers"] == MLPLayers(1, 8, 64.0, 512.0)
        assert space.groups["model"]["dropout"] == Maybe(0.0, Uniform(0.0, 0.5))
        assert space.groups["training"]["lr"] == LogUniform(1e-05, 0.01)
        assert space.groups["training"]["weight_decay"] == Maybe(
            0.0, LogUniform(1e-06, 0.001)
        )

    def test_round_trip(self):
        space = parse_space(MLP_SPACE_DOC)
        again = parse_space(space.serialize())
        assert again == space

    def test_int_and_categorical(self):
        space = parse_space({"knn": {"model": {
            "n_neighbors": ["int", 1, 32],
            "metric": ["categorical", "l2", "l1"],
        }}})
        assert space.groups["model"]["n_neighbors"] == IntUniform(1, 32)
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


class TestSampling:
    def test_degenerate_uniform(self):
        space = parse_space({"m": {"model": {"a": ["uniform", 0.3, 0.3]}}})
        for trial in range(10):
            assert sample_trial(space, [0, trial])["model"]["a"] == 0.3

    def test_loguniform_bounds_and_median(self):
        dist = LogUniform(1e-5, 1e-2)
        rng = np.random.default_rng(0)
        draws = np.array([dist.sample(rng) for _ in range(1000)])
        assert ((draws >= 1e-5) & (draws <= 1e-2)).all()
        assert 3e-5 <= np.median(draws) <= 3e-3

    def test_int_is_inclusive(self):
        dist = IntUniform(1, 3)
        rng = np.random.default_rng(1)
        draws = {dist.sample(rng) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_categorical_draws_from_set(self):
        dist = Categorical(("a", "b", "c"))
        rng = np.random.default_rng(2)
        draws = {dist.sample(rng) for _ in range(100)}
        assert draws == {"a", "b", "c"}

    def test_maybe_emits_default_about_half_the_time(self):
        dist = Maybe(0.0, Uniform(0.5, 1.0))
        rng = np.random.default_rng(3)
        draws = [dist.sample(rng) for _ in range(400)]
        fraction = sum(1 for d in draws if d == 0.0) / len(draws)
        assert 0.4 <= fraction <= 0.6
        assert all(d == 0.0 or 0.5 <= d <= 1.0 for d in draws)

    def test_mlp_layers_shape(self):
        dist = MLPLayers(1, 8, 64, 512)
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
            assert space.contains(assignment)

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

    def test_requires_validation_rows(self):
        dataset, info = make_classification(seed=6, val_fraction=0.0)
        with pytest.raises(ValueError):
            tune_hyper_parameters("knn", self.SPACE, dataset, info, n_trials=2)

    def test_rejects_zero_trials(self):
        dataset, info = make_classification(seed=7)
        with pytest.raises(ValueError):
            tune_hyper_parameters("knn", self.SPACE, dataset, info, n_trials=0)
