"""The batched tree engine against the recursive reference grower.

Fitted state must be byte-identical to ``tree_oracle``'s (each oracle tree's
five arrays mapped onto the engine's three, once its children are checked
against the ids the engine derives) on tables with tied values, nan and
infinite features, duplicate rows, constant columns, and every depth and
leaf-size setting, and when trees grow in several lock-step groups;
it must not depend on how many nodes a kernel call or a per-step pass takes;
memory must scale with the table, not with the class or tree count.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tree_oracle
from tabkit.data import DatasetInfo, TaskType
from tabkit.errors import ConfigError
from tabkit.methods import MethodConfig
from tabkit.methods.tree import (
    CARTMethod,
    GBDTMethod,
    RandomForestMethod,
    _Grower,
    _groups,
    _means,
    _ranks,
    _samples,
)

# few distinct values make ties; signed zeros compare equal
VALUES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
    st.floats(-100.0, 100.0, allow_nan=False),
)
# nan ranks after every value and no split falls next to it
FEATURES = st.one_of(VALUES, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def problems(draw):
    """(x, y, task, class count, base model config) of a small table."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(0, 4))
    distinct = draw(st.integers(1, n))  # fewer distinct rows than rows: duplicates
    base = draw(hnp.arrays(np.float64, (distinct, d), elements=FEATURES))
    x = base[draw(hnp.arrays(np.int64, n, elements=st.integers(0, distinct - 1)))]
    if d and draw(st.booleans()):
        x[:, draw(st.integers(0, d - 1))] = draw(FEATURES)
    task = draw(st.sampled_from(list(TaskType)))
    if task is TaskType.REGRESSION:
        n_classes = None
        y = draw(hnp.arrays(np.float64, n, elements=VALUES))
    else:
        n_classes = 2 if task is TaskType.BINCLASS else draw(st.integers(3, 4))
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
    model = {"max_depth": draw(st.integers(1, 6)),
             "min_samples_leaf": draw(st.integers(1, 3))}
    return x, y, task, n_classes, model


def fit_state(cls, x, y, task, n_classes, model, seed=0):
    info = DatasetInfo(task=task, n_num_features=x.shape[1], n_cat_features=0,
                       class_count=n_classes, name="table")
    method = cls(MethodConfig(model=model, seed=seed), info)
    method._fit(x, y, x[:0], y[:0])
    return method._state()


def fitted_state(*args, **kwargs):
    return pickle.dumps(fit_state(*args, **kwargs))


def engine_tree(tree) -> tuple:
    """An oracle tree's (feature, threshold, left, right, value) as the
    engine's (feature, split thresholds, leaf values), once its children are
    the derived ones: the j-th split node (from 0) has children 2j + 1 and
    2j + 2, and a leaf has none."""
    feature, threshold, left, right, value = tree
    split = feature >= 0
    j = np.arange(split.sum())
    np.testing.assert_array_equal(left[split], 2 * j + 1)
    np.testing.assert_array_equal(right[split], 2 * j + 2)
    assert (left[~split] == -1).all() and (right[~split] == -1).all()
    return feature, threshold[split], value[~split]


def cart_state(*args, **kwargs):
    return engine_tree(tree_oracle.cart_state(*args, **kwargs))


def forest_state(*args, **kwargs):
    return tuple(map(engine_tree, tree_oracle.forest_state(*args, **kwargs)))


def boosting_state(*args, **kwargs):
    init, lr, stages = tree_oracle.boosting_state(*args, **kwargs)
    return init, lr, tuple(tuple(map(engine_tree, stage)) for stage in stages)


def oracle_args(task, n_classes):
    regression = task is TaskType.REGRESSION
    return {"regression": regression, "n_classes": 0 if regression else n_classes}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(problems())
def test_cart_matches_oracle(problem):
    x, y, task, n_classes, model = problem
    expected = pickle.dumps(cart_state(
        x, y, model=model, **oracle_args(task, n_classes)))
    assert fitted_state(CARTMethod, *problem) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(problems(), st.integers(1, 3), st.booleans(),
       st.one_of(st.none(), st.integers(1, 5)), st.integers(0, 3))
def test_forest_matches_oracle(problem, n_trees, bootstrap, max_features, seed):
    x, y, task, n_classes, model = problem
    model = dict(model, n_trees=n_trees, bootstrap=bootstrap,
                 max_features=max_features)
    expected = pickle.dumps(forest_state(
        x, y, model=model, seed=seed, **oracle_args(task, n_classes)))
    state = fitted_state(RandomForestMethod, x, y, task, n_classes, model, seed)
    assert state == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(problems(), st.integers(1, 3), st.sampled_from([0.1, 0.5, 1.0]))
def test_boosting_matches_oracle(problem, n_trees, learning_rate):
    x, y, task, n_classes, model = problem
    model = dict(model, n_trees=n_trees, learning_rate=learning_rate)
    expected = pickle.dumps(boosting_state(
        x, y, model=model, **oracle_args(task, n_classes)))
    state = fitted_state(GBDTMethod, x, y, task, n_classes, model)
    assert state == expected


def test_deep_forest_matches_oracle():
    # hundreds of nodes per tree: several bulk feature-subset draws per tree
    rng = np.random.default_rng(0)
    x = np.round(rng.normal(size=(300, 9)), 1)
    y = x[:, 0] - 2.0 * x[:, 3] + rng.normal(size=300)
    model = {"n_trees": 4, "max_depth": 16}
    expected = forest_state(x, y, regression=True, n_classes=0, model=model,
                            seed=7)
    state = fitted_state(RandomForestMethod, x, y, TaskType.REGRESSION, None,
                         model, seed=7)
    assert state == pickle.dumps(expected)


@pytest.mark.parametrize("cls,task,n_classes,model", [
    # 300 rows (2-byte ids) x 2 features: groups of 16 trees
    (RandomForestMethod, TaskType.REGRESSION, None,
     {"n_trees": 20, "max_features": 1}),
    (RandomForestMethod, TaskType.MULTICLASS, 3,
     {"n_trees": 20, "bootstrap": False, "max_features": 1}),
    # 1 feature: a 10-class stage grows its trees in groups of 8 and 2
    (GBDTMethod, TaskType.MULTICLASS, 10, {"n_trees": 2}),
])
def test_lockstep_groups_match_oracle(cls, task, n_classes, model):
    rng = np.random.default_rng(3)
    d = 1 if cls is GBDTMethod else 2
    x = np.round(rng.normal(size=(300, d)), 1)
    if task is TaskType.REGRESSION:
        y = x.sum(axis=1) + rng.normal(size=300)
    else:
        y = rng.integers(0, n_classes, size=300)
    count = n_classes if cls is GBDTMethod else model["n_trees"]
    assert len(_groups(range(count), *x.shape)) == 2
    args = oracle_args(task, n_classes)
    if cls is GBDTMethod:
        expected = boosting_state(x, y, model=model, **args)
    else:
        expected = forest_state(x, y, model=model, seed=5, **args)
    state = fitted_state(cls, x, y, task, n_classes, model, seed=5)
    assert state == pickle.dumps(expected)


@given(st.integers(2, 60).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
       st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any),
       st.integers(0, 3))
@example((10001, 201), [3, 0, 2], 4)  # where choice switched algorithms
def test_feature_subsets_are_sorted_distinct_ids(dk, nodes, seed):
    # one step's subsets: per tree, its nodes' subsets in order, each k
    # sorted distinct ids in [0, d), drawn as the oracle draws them node by
    # node from that tree's generator alone
    d, k = dk
    xt = np.zeros((d, 2))
    rngs = [np.random.default_rng([seed, t]) for t in range(len(nodes))]
    grower = _Grower(xt, _ranks(xt), np.zeros(2), _samples(2, len(nodes)),
                     n_classes=0, max_depth=1, min_leaf=1, max_features=k,
                     rngs=rngs)
    t = np.repeat(np.arange(len(nodes)), nodes)
    subsets = grower._subsets(t)
    assert subsets.shape == (len(t), k)
    assert (np.diff(subsets, axis=1) > 0).all()
    assert subsets.min() >= 0 and subsets.max() < d
    expected = []
    for tree, count in enumerate(nodes):
        rng = np.random.default_rng([seed, tree])
        expected += [tree_oracle.feature_subset(rng, d, k) for _ in range(count)]
    np.testing.assert_array_equal(subsets, expected)


_GROWER_INIT = _Grower.__init__


def _use_block(monkeypatch, rule):
    """Make every grower take ``rule(grower)`` as its block."""
    def patched(self, *args, **kwargs):
        _GROWER_INIT(self, *args, **kwargs)
        self.block = rule(self)

    monkeypatch.setattr(_Grower, "__init__", patched)


def _root_work(grower):
    return grower.n * max(grower.k, 1)


@pytest.mark.parametrize("cls,model", [
    (CARTMethod, {}),
    (RandomForestMethod, {"n_trees": 6, "bootstrap": True}),
    (RandomForestMethod, {"n_trees": 6, "bootstrap": False}),
    (GBDTMethod, {"n_trees": 3}),
])
@pytest.mark.parametrize("task", [TaskType.MULTICLASS, TaskType.REGRESSION])
def test_batching_does_not_change_the_trees(monkeypatch, cls, model, task):
    # the engine's block, then one node per kernel call and per pass, then
    # the root's work
    rng = np.random.default_rng(11)
    x = np.round(rng.normal(size=(240, 6)), 1)  # ties
    if task is TaskType.REGRESSION:
        n_classes, y = None, x[:, 0] - x[:, 2] ** 2 + rng.normal(size=240)
    else:
        n_classes, y = 3, rng.integers(0, 3, size=240)
    states = [fitted_state(cls, x, y, task, n_classes, model, seed=2)]
    for rule in (lambda grower: 1, _root_work):
        _use_block(monkeypatch, rule)
        states.append(fitted_state(cls, x, y, task, n_classes, model, seed=2))
    assert states[0] == states[1] == states[2]


# numpy's pairwise sum adds runs below 8 in order, unrolls runs up to 128 by
# 8, and splits longer ones in halves
NODE_SIZES = st.one_of(st.integers(1, 7), st.integers(8, 128),
                       st.integers(129, 700))


@given(st.lists(st.tuples(NODE_SIZES, st.integers(1, 40)), min_size=1,
                max_size=6),
       st.integers(0, 2 ** 32 - 1))
@example([(8193, 1), (3, 5)], 0)
@example([(20000, 1), (1, 30), (200, 3)], 1)
def test_leaf_means_are_per_node_pairwise_sums(sizes, seed):
    # each (size, repeats) pair is that many nodes of one size, shuffled
    size = np.repeat(*np.array(sizes).T)
    rng = np.random.default_rng(seed)
    size = rng.permutation(size)
    labels = rng.normal(size=int(size.sum())) * 10.0 ** rng.integers(
        -8, 9, size=int(size.sum()))
    ends = np.cumsum(size).tolist()
    expected = np.array([np.add.reduce(labels[a:b])
                         for a, b in zip([0, *ends], ends)]) / size
    assert _means(labels, size).tobytes() == expected.tobytes()


def test_forest_kernel_calls_have_a_floor(monkeypatch):
    # a 100-tree forest draws 4 of 14 features per node, so a call sized by
    # the root's work covers 2,400 cells; the floor halves the calls at least
    rng = np.random.default_rng(4)
    x = np.round(rng.normal(size=(600, 14)), 2)
    y = rng.integers(0, 2, size=600)
    kernel, calls = _Grower._kernel, []

    def counted(self, *args):
        calls.append(1)
        return kernel(self, *args)

    monkeypatch.setattr(_Grower, "_kernel", counted)
    fit_state(RandomForestMethod, x, y, TaskType.BINCLASS, 2, {})
    engine = len(calls)
    calls.clear()
    _use_block(monkeypatch, _root_work)
    fit_state(RandomForestMethod, x, y, TaskType.BINCLASS, 2, {})
    assert engine <= len(calls) / 2


@pytest.mark.parametrize("cls,model", [
    (CARTMethod, {"max_depth": 4}),
    # 200 trees grow in two lock-step groups
    (RandomForestMethod, {"max_depth": 4, "n_trees": 200}),
])
def test_wide_multiclass_fit_memory_is_bounded_by_the_table(cls, model):
    # a per-node (rows, features, classes) count block would be 16x the
    # table here, and the per-node sort-and-scan peaked near 77x; a forest
    # must not hold per-tree state beyond its lock-step group
    n, d, n_classes = 4000, 40, 16
    rng = np.random.default_rng(1)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, n_classes, size=n)
    info = DatasetInfo(task=TaskType.MULTICLASS, n_num_features=d,
                       n_cat_features=0, class_count=n_classes, name="table")
    method = cls(MethodConfig(model=model), info)
    tracemalloc.start()
    try:
        method._fit(x, y, x[:0], y[:0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * d * 8


def test_deep_forest_fit_memory_follows_its_node_count():
    # default depth grows about a thousand nodes per tree: the node records
    # must stay compact arrays while growing, whose peak is a small multiple
    # of the fitted trees (3.9x with parent ids and sides recorded per node,
    # 5.6x with per-step Python lists of records)
    n, d = 1000, 14
    rng = np.random.default_rng(3)
    x = rng.normal(size=(n, d))
    y = x @ rng.normal(size=d) + rng.normal(size=n)
    info = DatasetInfo(task=TaskType.REGRESSION, n_num_features=d,
                       n_cat_features=0, class_count=None, name="table")
    method = RandomForestMethod(MethodConfig(model={}), info)
    tracemalloc.start()
    try:
        method._fit(x, y, x[:0], y[:0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3.5x five 8-byte arrays per node, 40 bytes a node: the fitted layout
    # the bound was set on, which stored children and unread values
    assert method.model_size() > 100_000
    assert peak <= 3.5 * 40 * method.model_size()


def test_stump_splits_at_the_boundary_past_int32_squared_counts():
    # 48,000 rows of class 0: the count's square passes 2^31
    x = np.repeat(np.arange(10.0), 6000)[:, None]
    y = (x[:, 0] >= 8).astype(np.int64)
    info = DatasetInfo(task=TaskType.BINCLASS, n_num_features=1,
                       n_cat_features=0, class_count=2, name="table")
    method = CARTMethod(MethodConfig(model={"max_depth": 1}), info)
    method._fit(x, y, x[:0], y[:0])
    grid = np.arange(10.0)[:, None]
    np.testing.assert_array_equal(method._predict(grid).values, grid[:, 0] >= 8)


@pytest.mark.parametrize("cls,model", [
    (CARTMethod, {"max_depth": 0}),
    (CARTMethod, {"min_samples_leaf": 0}),
    (RandomForestMethod, {"n_trees": 0}),
    (RandomForestMethod, {"max_features": 0}),
    (GBDTMethod, {"n_trees": 0}),
])
def test_bad_hyperparameters_fail_at_construction(cls, model):
    info = DatasetInfo(task=TaskType.BINCLASS, n_num_features=1,
                       n_cat_features=0, class_count=2, name="table")
    with pytest.raises(ConfigError):
        cls(MethodConfig(model=model), info)
