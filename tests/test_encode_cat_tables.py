"""The lookup-table encoder against the per-token reference encoder.

For every policy and task type, ``fit_categorical_encoder``'s training matrix
and ``transform`` of rows with unseen tokens must equal ``encode_cat_oracle``
byte for byte: on tables with duplicate rows and single-token columns, tokens
that are empty, whitespace, non-ASCII, digit strings or near-duplicates of
each other, multiclass labels with absent classes and regression targets from
1e-3 to 1e3 in magnitude.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import encode_cat_oracle as oracle
from tabkit.data import TaskType
from tabkit.encode_cat import CAT_POLICIES, fit_categorical_encoder

# a token is the cell's ``str`` as numpy stores it, and numpy drops trailing
# NUL characters; surrogates have no UTF-8 bytes to hash
CHARACTERS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
TOKENS = st.one_of(
    st.sampled_from(["", " ", "  ", "\t", "é", "日本", "0", "01", "1", "t1",
                     "t1 ", " t1", "T1", "a,b", "a b"]),
    st.text(CHARACTERS, max_size=3),
)


@st.composite
def tables(draw):
    """(training cells, probe cells, task, labels, class count, seed, buckets)."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(1, 60))
    columns, probes = [], []
    for _ in range(d):
        # one token makes a single-token column; a few make repeats
        pool_size = draw(st.sampled_from([1, 3, 12]))
        pool = draw(st.lists(TOKENS, min_size=1, max_size=pool_size))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        columns.append([pool[i] for i in picks])
        probes.append(draw(st.lists(st.one_of(st.sampled_from(pool), TOKENS),
                                    min_size=6, max_size=6)))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cat = np.array([[col[i] for col in columns] for i in rows],
                   dtype=object).reshape(n, d)
    probe = np.array(probes, dtype=object).T.reshape(6, d)
    task = draw(st.sampled_from(list(TaskType)))
    class_count = None
    if task is TaskType.REGRESSION:
        signed = st.tuples(st.floats(1e-3, 1e3), st.sampled_from([-1.0, 1.0]))
        pairs = np.array(draw(st.lists(signed, min_size=n, max_size=n)))
        labels = pairs[:, 0] * pairs[:, 1]
    else:
        class_count = 2 if task is TaskType.BINCLASS else draw(st.integers(3, 6))
        # multiclass labels may leave classes out
        present = draw(st.lists(st.integers(0, class_count - 1), min_size=1,
                                max_size=class_count, unique=True))
        labels = np.array(draw(st.lists(st.sampled_from(present), min_size=n,
                                        max_size=n)), dtype=np.int64)
    seed = draw(st.integers(0, 2**32 - 1))
    n_buckets = draw(st.integers(2, 9))
    return cat, probe, task, labels, class_count, seed, n_buckets


def assert_same(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


@given(tables())
def test_every_policy_matches_oracle(table):
    cat, probe, task, labels, class_count, seed, n_buckets = table
    for policy in CAT_POLICIES:
        args = (cat, policy, labels, task, class_count, seed)
        encoder, train = fit_categorical_encoder(*args, n_buckets=n_buckets)
        reference, expected = oracle.fit_categorical_encoder(*args, n_buckets=n_buckets)
        assert_same(train, expected)
        assert encoder.width == reference.width
        assert_same(encoder.transform(probe), reference.transform(probe))
        assert_same(encoder.transform(cat), reference.transform(cat))
