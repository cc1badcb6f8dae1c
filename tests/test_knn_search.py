"""The screened knn search against the full distance matrix.

``_nearest`` must return the same index array as ``knn_oracle`` element for
element: on duplicate rows and exact ties, signed zeros, subnormals, values
near the float limit, infinities and nan, with query blocks of every size; its
memory must follow the training table, not the query count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import knn_oracle
from tabkit.data import DatasetInfo, TaskType
from tabkit.methods import MethodConfig
from tabkit.methods.classical import KNNMethod, _nearest

# few distinct values make ties; the extremes overflow a squared distance
# (1e154 and beyond) or underflow it (subnormals)
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0]),
    st.floats(-100.0, 100.0, allow_nan=False),
    st.sampled_from([5e-324, -5e-324, 2.2e-308, 1e-160, 1e154, -1e154,
                     1e200, -1e200, 1e308, -1e308]),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


@st.composite
def searches(draw):
    """(queries, training table, k, block rows) with shared and repeated rows."""
    d = draw(st.integers(0, 6))
    n_train = draw(st.integers(1, 60))
    n_query = draw(st.integers(0, 30))
    distinct = draw(st.integers(1, n_train + n_query))
    rows = draw(hnp.arrays(np.float64, (distinct, d), elements=CELLS))
    # a shared offset puts every point far from the origin, where distances
    # are small next to the norms the screen subtracts
    rows += draw(st.sampled_from([0.0, 1e6, 1e12]))
    pick = draw(hnp.arrays(np.int64, n_train + n_query,
                           elements=st.integers(0, distinct - 1)))
    table = rows[pick]
    k = draw(st.integers(1, n_train))
    block_rows = draw(st.integers(1, 8))
    return table[n_train:], table[:n_train], k, block_rows


def knn(x_train, k):
    info = DatasetInfo(task=TaskType.REGRESSION, n_num_features=x_train.shape[1],
                       n_cat_features=0, class_count=None, name="table")
    method = KNNMethod(MethodConfig(model={"n_neighbors": k}), info)
    y = np.zeros(len(x_train))
    method._fit(x_train, y, x_train[:0], y[:0])
    return method


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(searches())
def test_nearest_matches_oracle(search):
    x, x_train, k, block_rows = search
    expected = knn_oracle.neighbors(x, x_train, k)
    assert np.array_equal(_nearest(x, x_train, k, block_rows), expected)
    assert np.array_equal(knn(x_train, k)._neighbors(x), expected)


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_many_blocks_match_oracle(offset):
    # rounded cells tie often; the offset makes distances small against norms
    rng = np.random.default_rng(0)
    x_train = np.round(rng.normal(size=(700, 20)), 1) + offset
    x = np.round(rng.normal(size=(300, 20)), 1) + offset
    x[::7] = x_train[:43]  # queries at distance zero from a training row
    for k in (1, 7, 64):
        assert np.array_equal(knn(x_train, k)._neighbors(x),
                              knn_oracle.neighbors(x, x_train, k))


def test_predict_memory_follows_the_table():
    rng = np.random.default_rng(0)
    x_train = rng.normal(size=(2400, 40))
    x = rng.normal(size=(4000, 40))
    info = DatasetInfo(task=TaskType.MULTICLASS, n_num_features=40,
                       n_cat_features=0, class_count=4, name="table")
    method = KNNMethod(MethodConfig(model={"n_neighbors": 8}), info)
    y = rng.integers(0, 4, size=2400)
    method._fit(x_train, y, x_train[:0], y[:0])
    tracemalloc.start()
    try:
        prediction = method._predict(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full distance matrix alone would be 100 times the table; a block's
    # screen and its partitioned copy take about the table's bytes each
    output = prediction.values.nbytes + prediction.probabilities.nbytes
    assert peak <= 3 * x_train.nbytes + output
