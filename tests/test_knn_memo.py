"""The one-entry knn neighbor memo: a warm predict is a cold predict.

The most recent search is held with its key (a digest of the query and
training matrices) and the indices of the largest k searched on them. A
request for no more neighbors takes the first k columns. These tests check
that such a prefix is exactly the smaller search, that a warm predict gives
the bytes of a cold one, that tuning trials share searches, and that every
change to the matrices is a miss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

import knn_oracle
import tabkit.methods.classical as classical
import tabkit.pipeline as pipeline_module
from tabkit.cli import main
from tabkit.data import save_dataset
from tabkit.methods import MethodConfig, get_method
from tabkit.pipeline import _Memo, _array_digest
from tabkit.tune import parse_space, tune_hyper_parameters

from conftest import make_classification, make_regression
from test_knn_search import searches


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(classical, "_memo", _Memo())


@pytest.fixture
def searched(monkeypatch):
    """The k of every search ``_nearest`` runs."""
    calls = []
    original = classical._nearest

    def counting(x, train, k, block_rows):
        calls.append(k)
        return original(x, train, k, block_rows)

    monkeypatch.setattr(classical, "_nearest", counting)
    return calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(searches())
def test_prefix_of_a_search_is_the_smaller_search(search):
    x, x_train, k, block_rows = search
    index = classical._nearest(x, x_train, k, block_rows)
    for smaller in range(1, k + 1):
        assert np.array_equal(index[:, :smaller],
                              knn_oracle.neighbors(x, x_train, smaller))


@pytest.mark.parametrize("make", [make_classification, make_regression])
def test_warm_predict_equals_cold(make, searched, monkeypatch):
    dataset, info = make(seed=5, n_rows=300)
    ks = (5, 17, 3, 32, 1)
    methods = []
    for k in ks:
        methods.append(get_method("knn")(MethodConfig(model={"n_neighbors": k}),
                                         info))
        methods[-1].fit(dataset, info)
    for part in ("val", "test"):
        searched.clear()
        warm = [method.predict_part(dataset, part) for method in methods]
        assert searched == [5, 17, 32]
        for method, a in zip(methods, warm):
            monkeypatch.setattr(classical, "_memo", _Memo())
            b = method.predict_part(dataset, part)
            assert a.values.tobytes() == b.values.tobytes()
            if a.probabilities is not None:
                assert a.probabilities.tobytes() == b.probabilities.tobytes()


def test_tuning_trials_share_searches(searched):
    # each trial encodes val afresh, but equal matrices have equal digests, so
    # a trial searches only when its k is the largest so far
    dataset, info = make_classification(seed=6, n_rows=200)
    space = parse_space({"knn": {"model": {"n_neighbors": ["int", 1, 40]},
                                 "training": {}}})
    result = tune_hyper_parameters("knn", space, dataset, info, n_trials=12)
    assert all(trial.error is None for trial in result.trials)
    ks = [trial.assignment["model"].get("n_neighbors", 5)
          for trial in sorted(result.trials, key=lambda trial: trial.trial)]
    largest = [k for i, k in enumerate(ks) if k > max(ks[:i], default=0)]
    assert searched == largest
    assert len(largest) < len(ks)


def test_larger_k_searches_again_and_smaller_does_not(searched):
    rng = np.random.default_rng(0)
    x_train = np.round(rng.normal(size=(80, 4)), 1)  # rounded: many ties
    x = np.round(rng.normal(size=(30, 4)), 1)
    for k in (3, 2, 3, 7, 1, 7, 6):
        index = classical._memo_nearest(x, x_train, k, 8)
        assert np.array_equal(index, knn_oracle.neighbors(x, x_train, k))
    assert searched == [3, 7]


def changed_cell(matrix):
    changed = matrix.copy()
    changed[1, 2] = np.nextafter(changed[1, 2], np.inf)
    return changed


@pytest.mark.parametrize("change", [
    lambda x, t: (changed_cell(x), t),
    lambda x, t: (x, changed_cell(t)),
    lambda x, t: (x.reshape(-1, 3), t.reshape(-1, 3)),
    lambda x, t: (x.view(np.int64), t.view(np.int64)),
], ids=["query_cell", "training_cell", "shape", "dtype"])
def test_changed_matrices_miss(change, monkeypatch):
    calls = []

    def stub(x, train, k, block_rows):
        calls.append(k)
        return np.zeros((len(x), k), dtype=np.intp)

    monkeypatch.setattr(classical, "_nearest", stub)
    rng = np.random.default_rng(1)
    x, x_train = rng.normal(size=(6, 4)), rng.normal(size=(12, 4))
    classical._memo_nearest(x, x_train, 2, 4)
    classical._memo_nearest(*change(x, x_train), 2, 4)
    classical._memo_nearest(*change(x, x_train), 1, 4)
    assert calls == [2, 2]


def test_memo_holds_one_read_only_entry(searched):
    rng = np.random.default_rng(2)
    x_train = rng.normal(size=(40, 3))
    first, second = rng.normal(size=(10, 3)), rng.normal(size=(12, 3))
    served = classical._memo_nearest(first, x_train, 4, 8)
    classical._memo_nearest(second, x_train, 4, 8)
    assert classical._memo.key == _array_digest(second) + _array_digest(x_train)
    again = classical._memo_nearest(first, x_train, 2, 8)
    assert searched == [4, 4, 2]  # the first entry was dropped
    for index in (served, again, classical._memo.value):
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 1
    assert np.array_equal(again, served[:, :2])


def test_tuned_cli_rerun_is_bit_identical_without_the_memo(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dataset, info = make_classification(seed=0, n_rows=120)
    save_dataset(dataset, info, tmp_path / "data" / "demo")
    argv = ["classical", "--model_type", "knn", "--dataset", "demo",
            "--tune", "true", "--n_trials", "6", "--seed_num", "3"]
    outputs = []
    for memoized in (True, False):
        fake_time = iter(float(i) for i in range(10_000))
        monkeypatch.setattr(pipeline_module, "_clock", lambda: next(fake_time))
        if not memoized:  # every predict searches
            monkeypatch.setattr(classical, "_memo_nearest",
                                lambda x, train, k, block_rows:
                                classical._nearest(x, train, k, block_rows))
        out = tmp_path / f"memoized-{memoized}"
        assert main(argv + ["--output_dir", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("trials.csv", "results.csv")])
    assert outputs[0] == outputs[1]
