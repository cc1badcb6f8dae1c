"""Dataset model, on-disk format, loading, saving, and holdout splitting.

A dataset lives in one directory::

    <name>/
        info.json   - task_type, n_num_features, n_cat_features, [n_classes], [name]
        train.csv
        val.csv     - may contain only the header row
        test.csv

Each CSV has a header row and, per data row, all numerical columns first,
then all categorical columns, then a single label column. Missing numerical
cells are the empty string or a ``nan`` token; missing categorical cells are
the empty string. Decimal separator is ``.``; encoding is UTF-8.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import LoadError, ParseError, SchemaError

PARTS = ("train", "val", "test")


class TaskType(str, Enum):
    BINCLASS = "binclass"
    MULTICLASS = "multiclass"
    REGRESSION = "regression"

    @property
    def is_classification(self) -> bool:
        return self is not TaskType.REGRESSION


@dataclass(frozen=True)
class DatasetInfo:
    """Shape-level facts about a dataset, decoupled from its rows."""

    task: TaskType
    n_num_features: int
    n_cat_features: int
    class_count: int | None = None
    name: str = ""

    @property
    def n_features(self) -> int:
        return self.n_num_features + self.n_cat_features


@dataclass
class Dataset:
    """An in-memory table plus a partition of its rows.

    ``num`` is (N, d_num) float64 with NaN marking missing cells; ``cat`` is
    (N, d_cat) of strings with "" marking missing cells; ``labels`` is (N,)
    int64 for classification and float64 for regression. ``split`` maps each
    of train/val/test to a row-index array; the three sets are disjoint and
    cover all rows. Instances are treated as immutable once built.
    """

    num: np.ndarray
    cat: np.ndarray
    labels: np.ndarray
    task: TaskType
    split: dict[str, np.ndarray]

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_num_features(self) -> int:
        return self.num.shape[1]

    @property
    def n_cat_features(self) -> int:
        return self.cat.shape[1]

    def indices(self, part: str) -> np.ndarray:
        return self.split[part]

    def part_num(self, part: str) -> np.ndarray:
        return self.num[self.split[part]]

    def part_cat(self, part: str) -> np.ndarray:
        return self.cat[self.split[part]]

    def part_labels(self, part: str) -> np.ndarray:
        return self.labels[self.split[part]]

    def part_size(self, part: str) -> int:
        return len(self.split[part])


def _as_cat_array(rows: list[list[str]], n_cols: int) -> np.ndarray:
    arr = np.empty((len(rows), n_cols), dtype=object)
    for i, row in enumerate(rows):
        for j in range(n_cols):
            arr[i, j] = row[j]
    return arr


def _parse_num_cell(token: str, file: str, row: int, col: int) -> float:
    token = token.strip()
    if token == "":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"{file}: row {row}, numerical column {col}: "
            f"cannot parse {token!r} as a number"
        ) from None


def _parse_label(token: str, task: TaskType, class_count: int | None,
                 file: str, row: int):
    token = token.strip()
    if token == "":
        raise ParseError(f"{file}: row {row}: label is missing")
    if task is TaskType.REGRESSION:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(
                f"{file}: row {row}: cannot parse label {token!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"{file}: row {row}: regression label must be finite")
        return value
    try:
        value = float(token)
        index = int(value)
        if index != value:
            raise ValueError
    except ValueError:
        raise ParseError(
            f"{file}: row {row}: cannot parse label {token!r} as a class index"
        ) from None
    if index < 0 or (class_count is not None and index >= class_count):
        raise ParseError(
            f"{file}: row {row}: class index {index} outside [0, {class_count})"
        )
    return index


def _read_csv_part(path: Path, info: DatasetInfo, class_count: int | None):
    if not path.is_file():
        raise LoadError(f"missing dataset file: {path}")
    n_num, n_cat = info.n_num_features, info.n_cat_features
    expected = n_num + n_cat + 1
    num_rows: list[list[float]] = []
    cat_rows: list[list[str]] = []
    labels: list = []
    name = path.name
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, header row required")
        if len(header) != expected:
            raise SchemaError(
                f"{path}: header has {len(header)} columns, "
                f"info declares {expected} ({n_num} numerical + {n_cat} "
                f"categorical + 1 label)"
            )
        for row_idx, row in enumerate(reader):
            if not row:
                continue
            if len(row) != expected:
                raise SchemaError(
                    f"{path}: row {row_idx} has {len(row)} columns, expected {expected}"
                )
            try:
                num_rows.append([float(cell) if cell.strip() else math.nan
                                 for cell in row[:n_num]])
            except ValueError:  # parse again, for the first bad cell's message
                num_rows.append([_parse_num_cell(cell, name, row_idx, j)
                                 for j, cell in enumerate(row[:n_num])])
            cat_rows.append(row[n_num:n_num + n_cat])
            labels.append(_parse_label(row[-1], info.task, class_count, name, row_idx))
    num = np.asarray(num_rows, dtype=np.float64).reshape(len(labels), n_num)
    cat = _as_cat_array(cat_rows, n_cat)
    return num, cat, labels


def load_dataset(path: str | Path, name: str) -> tuple[Dataset, DatasetInfo]:
    """Load the dataset directory ``path/name`` into memory.

    Returns the dataset (blocks separated by column kind, missing cells kept
    as missing markers, categorical tokens kept verbatim) together with its
    schema-level info.
    """
    root = Path(path) / name
    info_path = root / "info.json"
    if not info_path.is_file():
        raise LoadError(f"missing dataset file: {info_path}")
    try:
        raw = json.loads(info_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LoadError(f"{info_path}: invalid JSON ({exc})") from None

    try:
        task = TaskType(raw["task_type"])
    except KeyError:
        raise SchemaError(f"{info_path}: missing key 'task_type'") from None
    except ValueError:
        raise SchemaError(
            f"{info_path}: task_type must be one of "
            f"{[t.value for t in TaskType]}, got {raw['task_type']!r}"
        ) from None
    for key in ("n_num_features", "n_cat_features"):
        if key not in raw:
            raise SchemaError(f"{info_path}: missing key {key!r}")

    class_count = raw.get("n_classes")
    if task is TaskType.BINCLASS:
        if class_count is None:
            class_count = 2
        elif class_count != 2:
            raise SchemaError(f"{info_path}: binclass requires n_classes = 2")
    info = DatasetInfo(
        task=task,
        n_num_features=int(raw["n_num_features"]),
        n_cat_features=int(raw["n_cat_features"]),
        class_count=class_count,
        name=str(raw.get("name", name)),
    )

    parts = {}
    for part in PARTS:
        parts[part] = _read_csv_part(root / f"{part}.csv", info, class_count)

    all_labels = [y for _, _, ys in parts.values() for y in ys]
    if task is TaskType.MULTICLASS:
        if class_count is None:
            class_count = int(max(all_labels)) + 1
        if class_count < 3:
            raise SchemaError(
                f"{info_path}: multiclass requires at least 3 classes, "
                f"got {class_count}"
            )
        info = replace(info, class_count=class_count)

    num = np.vstack([parts[p][0] for p in PARTS])
    cat = np.vstack([parts[p][1] for p in PARTS]) if info.n_cat_features else \
        np.empty((len(all_labels), 0), dtype=object)
    label_dtype = np.float64 if task is TaskType.REGRESSION else np.int64
    labels = np.asarray(all_labels, dtype=label_dtype)

    split = {}
    offset = 0
    for part in PARTS:
        n = len(parts[part][2])
        split[part] = np.arange(offset, offset + n)
        offset += n
    return Dataset(num=num, cat=cat, labels=labels, task=task, split=split), info


def _format_num_cell(value: float) -> str:
    if math.isnan(value):
        return ""
    return repr(float(value))


def save_dataset(dataset: Dataset, info: DatasetInfo, directory: str | Path) -> None:
    """Write ``dataset`` to ``directory`` in the on-disk layout read by
    :func:`load_dataset`. Finite numerical cells round-trip bit-exactly and
    categorical tokens verbatim."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    payload = {
        "task_type": info.task.value,
        "n_num_features": info.n_num_features,
        "n_cat_features": info.n_cat_features,
        "name": info.name,
    }
    if info.class_count is not None:
        payload["n_classes"] = info.class_count
    (root / "info.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")

    header = (
        [f"num_{j}" for j in range(info.n_num_features)]
        + [f"cat_{j}" for j in range(info.n_cat_features)]
        + ["label"]
    )
    for part in PARTS:
        idx = dataset.split[part]
        with open(root / f"{part}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for i in idx:
                row = [_format_num_cell(v) for v in dataset.num[i]]
                row += [str(tok) for tok in dataset.cat[i]]
                label = dataset.labels[i]
                row.append(
                    repr(float(label))
                    if dataset.task is TaskType.REGRESSION
                    else str(int(label))
                )
                writer.writerow(row)


def split_holdout(dataset: Dataset, val_fraction: float, seed: int) -> Dataset:
    """Carve a validation set out of the train rows of ``dataset``.

    The split is a deterministic seeded shuffle. For classification it is
    stratified per class: any class with at least 2 training rows keeps at
    least one row on each side. Returns a new dataset; the input is untouched.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if dataset.part_size("val"):
        raise ValueError("dataset already has validation rows")
    train_idx = dataset.split["train"]
    if len(train_idx) < 2:
        raise ValueError("need at least 2 train rows to split")

    rng = np.random.default_rng(seed)
    if dataset.task.is_classification:
        val_parts = []
        train_parts = []
        labels = dataset.labels[train_idx]
        for cls in np.unique(labels):
            cls_idx = train_idx[labels == cls]
            cls_idx = cls_idx[rng.permutation(len(cls_idx))]
            if len(cls_idx) < 2:
                n_val = 0
            else:
                n_val = min(len(cls_idx) - 1, max(1, int(round(val_fraction * len(cls_idx)))))
            val_parts.append(cls_idx[:n_val])
            train_parts.append(cls_idx[n_val:])
        val_idx = np.sort(np.concatenate(val_parts))
        new_train = np.sort(np.concatenate(train_parts))
    else:
        shuffled = train_idx[rng.permutation(len(train_idx))]
        n_val = min(len(train_idx) - 1, max(1, int(round(val_fraction * len(train_idx)))))
        val_idx = np.sort(shuffled[:n_val])
        new_train = np.sort(shuffled[n_val:])

    split = {"train": new_train, "val": val_idx, "test": dataset.split["test"].copy()}
    return Dataset(
        num=dataset.num, cat=dataset.cat, labels=dataset.labels,
        task=dataset.task, split=split,
    )
