import json

import numpy as np
import pytest

from tabkit.data import Dataset, TaskType, load_dataset, save_dataset, split_holdout
from tabkit.encode_cat import CAT_POLICIES
from tabkit.errors import LoadError, ParseError, SchemaError
from tabkit.methods import MethodConfig, get_method
from tabkit.pipeline import PipelineConfig
from tabkit.preprocess import CAT_NAN_POLICIES

from conftest import make_classification, make_regression


def _write_dataset(tmp_path, name, info, train, val, test):
    root = tmp_path / name
    root.mkdir()
    (root / "info.json").write_text(json.dumps(info))
    (root / "train.csv").write_text(train)
    (root / "val.csv").write_text(val)
    (root / "test.csv").write_text(test)
    return root


BIN_INFO = {"task_type": "binclass", "n_num_features": 2, "n_cat_features": 1}
HEADER = "x0,x1,color,label\n"


def test_load_basic_binclass(tmp_path):
    _write_dataset(
        tmp_path, "demo", BIN_INFO,
        HEADER + "1.5,2.0,red,0\n,3.25,blue,1\n",
        HEADER,
        HEADER + "0.5,nan,,1\n",
    )
    dataset, info = load_dataset(tmp_path, "demo")
    assert info.task is TaskType.BINCLASS
    assert info.class_count == 2
    assert dataset.n_rows == 3
    assert dataset.part_size("train") == 2
    assert dataset.part_size("val") == 0
    assert dataset.part_size("test") == 1
    np.testing.assert_array_equal(dataset.part_num("train")[0], [1.5, 2.0])
    assert np.isnan(dataset.part_num("train")[1, 0])
    assert np.isnan(dataset.part_num("test")[0, 1])
    assert dataset.part_cat("train")[1, 0] == "blue"
    assert dataset.part_cat("test")[0, 0] == ""
    assert dataset.labels.dtype == np.int64
    np.testing.assert_array_equal(dataset.part_labels("train"), [0, 1])


def test_load_missing_file_raises(tmp_path):
    root = tmp_path / "demo"
    root.mkdir()
    (root / "info.json").write_text(json.dumps(BIN_INFO))
    (root / "train.csv").write_text(HEADER + "1,2,a,0\n")
    (root / "val.csv").write_text(HEADER)
    with pytest.raises(LoadError, match="test.csv"):
        load_dataset(tmp_path, "demo")


def test_load_column_count_mismatch_raises(tmp_path):
    _write_dataset(
        tmp_path, "demo", BIN_INFO,
        HEADER + "1,2,a,0\n", HEADER, "x0,x1,label\n0.5,1.0,1\n",
    )
    with pytest.raises(SchemaError, match="test.csv"):
        load_dataset(tmp_path, "demo")


def test_load_bad_numeric_cell_names_location(tmp_path):
    _write_dataset(
        tmp_path, "demo", BIN_INFO,
        HEADER + "1,2,a,0\noops,2,a,1\n", HEADER, HEADER + "1,2,a,0\n",
    )
    with pytest.raises(ParseError) as excinfo:
        load_dataset(tmp_path, "demo")
    message = str(excinfo.value)
    assert "train.csv" in message
    assert "row 1" in message
    assert "column 0" in message
    assert "oops" in message


def test_load_padded_cells_parse_and_a_later_bad_cell_is_named(tmp_path):
    _write_dataset(
        tmp_path, "demo", BIN_INFO,
        HEADER + " 1.5 ,  ,a,0\n nan ,-2e3,a,1\n", HEADER, HEADER + "1,2,a,0\n",
    )
    dataset, _ = load_dataset(tmp_path, "demo")
    train = dataset.part_num("train")
    assert train[0, 0] == 1.5 and train[1, 1] == -2000.0
    assert np.isnan(train[0, 1]) and np.isnan(train[1, 0])
    (tmp_path / "demo" / "test.csv").write_text(HEADER + "1, x 2 ,a,0\n")
    with pytest.raises(ParseError) as excinfo:
        load_dataset(tmp_path, "demo")
    assert str(excinfo.value) == (
        "test.csv: row 0, numerical column 1: cannot parse 'x 2' as a number")


def test_load_label_out_of_range_raises(tmp_path):
    _write_dataset(
        tmp_path, "demo", BIN_INFO,
        HEADER + "1,2,a,2\n", HEADER, HEADER + "1,2,a,0\n",
    )
    with pytest.raises(ParseError, match="class index 2"):
        load_dataset(tmp_path, "demo")


def test_load_multiclass_infers_class_count(tmp_path):
    info = {"task_type": "multiclass", "n_num_features": 1, "n_cat_features": 0}
    header = "x0,label\n"
    _write_dataset(
        tmp_path, "demo", info,
        header + "1,0\n2,1\n3,4\n", header, header + "4,2\n",
    )
    _, loaded = load_dataset(tmp_path, "demo")
    assert loaded.class_count == 5


def test_load_regression_labels_float(tmp_path):
    info = {"task_type": "regression", "n_num_features": 1, "n_cat_features": 0}
    header = "x0,y\n"
    _write_dataset(
        tmp_path, "demo", info,
        header + "1,0.5\n2,-1.25\n", header, header + "3,2.0\n",
    )
    dataset, loaded = load_dataset(tmp_path, "demo")
    assert loaded.task is TaskType.REGRESSION
    assert loaded.class_count is None
    assert dataset.labels.dtype == np.float64
    np.testing.assert_array_equal(dataset.part_labels("train"), [0.5, -1.25])


def test_load_rejects_unknown_task(tmp_path):
    info = {"task_type": "ranking", "n_num_features": 1, "n_cat_features": 0}
    header = "x0,y\n"
    _write_dataset(tmp_path, "demo", info, header, header, header)
    with pytest.raises(SchemaError, match="task_type"):
        load_dataset(tmp_path, "demo")


@pytest.mark.parametrize("key, value", [
    ("n_classes", "3"), ("n_classes", 3.0), ("n_classes", True),
    ("n_num_features", 2.5), ("n_num_features", -1),
    ("n_num_features", None), ("n_cat_features", True),
])
def test_load_rejects_a_count_that_is_not_an_integer(tmp_path, key, value):
    info = {"task_type": "multiclass", "n_num_features": 2,
            "n_cat_features": 1, "n_classes": 3, key: value}
    _write_dataset(tmp_path, "demo", info, HEADER + "1,2,a,2\n", HEADER,
                   HEADER + "1,2,a,0\n")
    with pytest.raises(SchemaError, match=f"{key} must be an integer >= 0"):
        load_dataset(tmp_path, "demo")


def test_save_load_round_trip_bit_exact(tmp_path):
    # odd values exercise repr round-tripping; missing cells survive too
    for maker, kwargs in [
        (make_classification, dict(missing_rate=0.15, seed=3)),
        (make_regression, dict(missing_rate=0.1, seed=4)),
        (make_classification, dict(n_classes=3, seed=9)),
    ]:
        dataset, info = maker(**kwargs)
        save_dataset(dataset, info, tmp_path / info.name)
        loaded, loaded_info = load_dataset(tmp_path, info.name)
        assert loaded_info.task is info.task
        assert loaded_info.class_count == info.class_count
        assert loaded.n_rows == dataset.n_rows
        for part in ("train", "val", "test"):
            np.testing.assert_array_equal(
                loaded.part_num(part), dataset.part_num(part)
            )
            assert (loaded.part_cat(part) == dataset.part_cat(part)).all()
            np.testing.assert_array_equal(
                loaded.part_labels(part), dataset.part_labels(part)
            )


@pytest.mark.parametrize("cat_nan_policy", CAT_NAN_POLICIES)
@pytest.mark.parametrize("cat_policy", CAT_POLICIES)
def test_load_shares_one_cell_object_per_column_value(tmp_path, cat_policy,
                                                      cat_nan_policy):
    # the same tokens in every column, with missing cells
    dataset, info = make_classification(seed=4, n_rows=90, n_cat=3, n_classes=3,
                                        missing_rate=0.1)
    save_dataset(dataset, info, tmp_path / "d")
    loaded, loaded_info = load_dataset(tmp_path, "d")
    for column in loaded.cat.T:
        assert len({id(cell) for cell in column}) == len(set(column))
    # every cell its own str, as a csv reader hands them out
    fresh = np.array([[("x" + cell)[1:] for cell in row] for row in loaded.cat],
                     dtype=object)
    unshared = Dataset(num=loaded.num, cat=fresh, labels=loaded.labels,
                       task=loaded.task, split=loaded.split)
    config = MethodConfig(pipeline=PipelineConfig(cat_policy=cat_policy,
                                                  cat_nan_policy=cat_nan_policy))
    states = []
    for table in (loaded, unshared):
        method = get_method("knn")(config, loaded_info)
        method.fit(table, loaded_info)
        states.append(method.fitted_state())
    assert states[0] == states[1]


def test_split_holdout_partitions_train_rows():
    dataset, _ = make_classification(val_fraction=0.0, seed=2)
    assert dataset.part_size("val") == 0
    out = split_holdout(dataset, 0.25, seed=0)
    old_train = set(dataset.split["train"].tolist())
    new_train = set(out.split["train"].tolist())
    new_val = set(out.split["val"].tolist())
    assert new_train | new_val == old_train
    assert not new_train & new_val
    assert len(new_val) > 0
    np.testing.assert_array_equal(out.split["test"], dataset.split["test"])


def test_split_holdout_deterministic_and_seed_sensitive():
    dataset, _ = make_classification(val_fraction=0.0, n_rows=300, seed=6)
    a = split_holdout(dataset, 0.2, seed=1)
    b = split_holdout(dataset, 0.2, seed=1)
    c = split_holdout(dataset, 0.2, seed=2)
    np.testing.assert_array_equal(a.split["val"], b.split["val"])
    assert not np.array_equal(a.split["val"], c.split["val"])


def test_split_holdout_stratified_keeps_every_class():
    # class 3 is rare: exactly 2 train rows, so one lands on each side
    rng = np.random.default_rng(0)
    labels = np.array([0] * 40 + [1] * 40 + [2] * 40 + [3] * 2, dtype=np.int64)
    n = len(labels)
    dataset = Dataset(
        num=rng.normal(size=(n, 2)),
        cat=np.empty((n, 0), dtype=object),
        labels=labels,
        task=TaskType.MULTICLASS,
        split={
            "train": np.arange(n),
            "val": np.arange(0),
            "test": np.arange(0),
        },
    )
    out = split_holdout(dataset, 0.2, seed=0)
    for part in ("train", "val"):
        present = set(dataset.labels[out.split[part]].tolist())
        assert present == {0, 1, 2, 3}


def test_split_holdout_rejects_bad_fraction():
    dataset, _ = make_regression(val_fraction=0.0)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            split_holdout(dataset, bad, seed=0)


def test_split_holdout_does_not_mutate_input():
    dataset, _ = make_regression(val_fraction=0.0, seed=8)
    before = {k: v.copy() for k, v in dataset.split.items()}
    split_holdout(dataset, 0.3, seed=0)
    for part, idx in before.items():
        np.testing.assert_array_equal(dataset.split[part], idx)


@pytest.mark.parametrize("make, val", [
    (make_regression, [2, 5, 9, 13, 20, 31, 33, 36]),
    (make_classification, [0, 2, 4, 19, 23, 29, 31, 36]),
])
def test_split_holdout_rows_are_pinned(make, val):
    # a regression table splits as one stratum of the stratified shuffle;
    # any change to the shuffle or to the strata moves these rows
    dataset, _ = make(n_rows=40, seed=0, val_fraction=0.0)
    out = split_holdout(dataset, 0.25, seed=1)
    assert out.split["val"].dtype == np.int64
    assert out.split["val"].tolist() == val
    assert sorted(out.split["train"].tolist() + val) == \
        sorted(dataset.split["train"].tolist())
