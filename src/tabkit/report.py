"""Multi-seed evaluation runs, cross-dataset ranking, and report files.

A study produces one RunRecord per (dataset, method, seed). Records aggregate
into a RankTable: per dataset, methods are ranked on the primary metric
(accuracy up, RMSE down) with ties averaged; per method, the mean rank, mean
training time, and mean model size are reported.

ModelSize is the parameter count for parametric models and the total node
count for tree ensembles.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DatasetInfo
from .errors import RankError, describe_failure
from .methods import MethodConfig, get_method
from .metrics import (
    CLASSIFICATION_METRICS,
    REGRESSION_METRICS,
    MetricSet,
    average_ranks,
    compute_metrics,
)
from .pipeline import PipelineConfig

__all__ = [
    "RankTable",
    "RunRecord",
    "emit_report",
    "rank_methods",
    "read_results_csv",
    "run_seeds",
    "summarize_records",
]


@dataclass(frozen=True)
class RunRecord:
    dataset: str
    method: str
    seed: int
    metrics: MetricSet | None
    time_s: float | None
    size: int | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.metrics is not None


def run_seeds(
    method_name: str,
    dataset: Dataset,
    info: DatasetInfo,
    seed_num: int,
    *,
    model: dict | None = None,
    training: dict | None = None,
    pipeline: PipelineConfig | None = None,
    dataset_name: str | None = None,
) -> list[RunRecord]:
    """Fit and score the method once per seed 0..seed_num-1 on the test part.

    A seed that raises any exception is recorded with its error text, and
    the run continues.
    """
    if seed_num < 1:
        raise ValueError(f"seed_num must be >= 1, got {seed_num}")
    name = dataset_name or info.name or "dataset"
    method_cls = get_method(method_name)
    records = []
    for seed in range(seed_num):
        config = MethodConfig(
            model=dict(model or {}),
            training=dict(training or {}),
            pipeline=pipeline or PipelineConfig(),
            seed=seed,
        )
        try:
            method = method_cls(config, info)
            elapsed = method.fit(dataset, info)
            prediction = method.predict_part(dataset, "test")
            metrics = compute_metrics(
                prediction, dataset.part_labels("test"), dataset.task
            )
            records.append(RunRecord(
                dataset=name, method=method_name, seed=seed,
                metrics=metrics, time_s=elapsed, size=method.model_size(),
            ))
        except Exception as err:  # any failure is this seed's, not the run's
            records.append(RunRecord(
                dataset=name, method=method_name, seed=seed,
                metrics=None, time_s=None, size=None,
                error=describe_failure(err),
            ))
    return records


def summarize_records(records: list[RunRecord]) -> tuple[dict, int]:
    """Mean and std of every metric (plus time and size) over the successful
    seeds, and the count of failed seeds."""
    ok = [r for r in records if r.ok]
    n_failed = len(records) - len(ok)
    summary: dict = {}
    if ok:
        for name in ok[0].metrics.values:
            column = np.array([r.metrics[name] for r in ok])
            summary[name] = (float(column.mean()), float(column.std()))
        times = np.array([r.time_s for r in ok])
        sizes = np.array([r.size for r in ok], dtype=np.float64)
        summary["time_s"] = (float(times.mean()), float(times.std()))
        summary["size"] = (float(sizes.mean()), float(sizes.std()))
    return summary, n_failed


@dataclass(frozen=True)
class RankTable:
    methods: tuple
    datasets: tuple
    ranks: np.ndarray        # (n_datasets, n_methods), 1 = best, ties averaged
    mean_ranks: np.ndarray   # (n_methods,)
    mean_times: np.ndarray
    mean_sizes: np.ndarray


def _ordered_unique(items) -> tuple:
    seen = dict.fromkeys(items)
    return tuple(seen)


def rank_methods(records: list[RunRecord]) -> RankTable:
    """Rank every method on every dataset by the mean primary metric over its
    successful seeds. Raises RankError for a (method, dataset) cell with no
    successful record."""
    methods = _ordered_unique(r.method for r in records)
    datasets = _ordered_unique(r.dataset for r in records)
    cells: dict = {}
    for r in records:
        if r.ok:
            cells.setdefault((r.dataset, r.method), []).append(r)

    ranks = np.zeros((len(datasets), len(methods)))
    for i, ds in enumerate(datasets):
        scores = np.zeros(len(methods))
        higher = True
        for j, m in enumerate(methods):
            cell = cells.get((ds, m))
            if not cell:
                raise RankError(
                    f"no successful records for method {m!r} on dataset {ds!r}"
                )
            primaries = [r.metrics.primary() for r in cell]
            scores[j] = float(np.mean([value for value, _ in primaries]))
            higher = primaries[0][1]
        ranks[i] = average_ranks(scores, higher)

    mean_times = np.zeros(len(methods))
    mean_sizes = np.zeros(len(methods))
    for j, m in enumerate(methods):
        rs = [r for r in records if r.method == m and r.ok]
        mean_times[j] = float(np.mean([r.time_s for r in rs]))
        mean_sizes[j] = float(np.mean([r.size for r in rs]))
    return RankTable(
        methods=methods, datasets=datasets, ranks=ranks,
        mean_ranks=ranks.mean(axis=0),
        mean_times=mean_times, mean_sizes=mean_sizes,
    )


def _metric_columns(records: list[RunRecord]) -> list[str]:
    columns: list[str] = []
    kinds = {r.metrics.is_classification for r in records if r.ok}
    if True in kinds:
        columns.extend(CLASSIFICATION_METRICS)
    if False in kinds:
        columns.extend(REGRESSION_METRICS)
    return columns


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(path: str, records: list[RunRecord]) -> None:
    columns = _metric_columns(records)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["dataset", "method", "seed", *columns, "time_s", "size"])
        for r in records:
            metric_cells = [
                _format_cell(r.metrics[c]) if r.ok and c in r.metrics.values
                else ""
                for c in columns
            ]
            writer.writerow([
                r.dataset, r.method, r.seed, *metric_cells,
                _format_cell(r.time_s), _format_cell(r.size),
            ])


def read_results_csv(path: str) -> list[RunRecord]:
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        metric_columns = header[3:-2]
        for row in reader:
            values = {
                name: float(cell)
                for name, cell in zip(metric_columns, row[3:-2])
                if cell != ""
            }
            records.append(RunRecord(
                dataset=row[0], method=row[1], seed=int(row[2]),
                metrics=MetricSet(values) if values else None,
                time_s=float(row[-2]) if row[-2] else None,
                size=int(row[-1]) if row[-1] else None,
            ))
    return records


def write_ranks_csv(path: str, table: RankTable) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "mean_rank", "mean_time_s", "mean_size"])
        for j, m in enumerate(table.methods):
            writer.writerow([
                m, repr(float(table.mean_ranks[j])),
                repr(float(table.mean_times[j])),
                repr(float(table.mean_sizes[j])),
            ])


_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_MARGIN_LEFT, _MARGIN_RIGHT = 80, 40
_MARGIN_TOP, _MARGIN_BOTTOM = 40, 60


def _svg_scatter(table: RankTable) -> str:
    """Mean rank (y, inverted so rank 1 sits on top) against mean training
    seconds (x, log scale); circle radius grows with sqrt(model size)."""
    times = np.maximum(table.mean_times, 1e-9)
    log_t = np.log10(times)
    x_lo, x_hi = float(log_t.min()), float(log_t.max())
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    r_lo, r_hi = 0.5, len(table.methods) + 0.5

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x_px(lt: float) -> float:
        return _MARGIN_LEFT + (lt - x_lo) / (x_hi - x_lo) * plot_w

    def y_px(rank: float) -> float:
        return _MARGIN_TOP + (rank - r_lo) / (r_hi - r_lo) * plot_h

    max_size = float(table.mean_sizes.max()) or 1.0
    radii = 4.0 + 22.0 * np.sqrt(np.maximum(table.mean_sizes, 0.0) / max_size)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        "<!-- mean rank (lower is better, axis inverted) vs mean training "
        "seconds (log scale); circle area tracks model size: parameter count "
        "for parametric models, node count for trees -->",
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    ]
    axis_y = _SVG_HEIGHT - _MARGIN_BOTTOM
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" '
        f'x2="{_SVG_WIDTH - _MARGIN_RIGHT}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
        f'x2="{_MARGIN_LEFT}" y2="{axis_y}" stroke="black"/>'
    )
    for k in range(math.floor(x_lo), math.ceil(x_hi) + 1):
        if x_lo <= k <= x_hi:
            px = x_px(k)
            parts.append(
                f'<line x1="{px:.1f}" y1="{axis_y}" x2="{px:.1f}" '
                f'y2="{axis_y + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{axis_y + 20}" font-size="11" '
                f'text-anchor="middle">{10.0 ** k:g}</text>'
            )
    for rank in range(1, len(table.methods) + 1):
        py = y_px(rank)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{py:.1f}" '
            f'x2="{_MARGIN_LEFT}" y2="{py:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 10}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end">{rank}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_SVG_HEIGHT - 15}" '
        f'font-size="13" text-anchor="middle">mean training time (s)</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f'mean rank (1 = best)</text>'
    )
    for j, m in enumerate(table.methods):
        cx, cy = x_px(log_t[j]), y_px(float(table.mean_ranks[j]))
        parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{radii[j]:.1f}" '
            f'fill="steelblue" fill-opacity="0.55" stroke="navy"/>'
        )
        parts.append(
            f'<text x="{cx + radii[j] + 4:.1f}" y="{cy + 4:.1f}" '
            f'font-size="12">{m}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(table: RankTable, records: list[RunRecord],
                output_dir: str) -> dict:
    """Write results.csv, ranks.csv, and rank_vs_time.svg to output_dir."""
    os.makedirs(output_dir, exist_ok=True)
    paths = {
        "results": os.path.join(output_dir, "results.csv"),
        "ranks": os.path.join(output_dir, "ranks.csv"),
        "plot": os.path.join(output_dir, "rank_vs_time.svg"),
    }
    write_results_csv(paths["results"], records)
    write_ranks_csv(paths["ranks"], table)
    with open(paths["plot"], "w") as handle:
        handle.write(_svg_scatter(table))
    return paths
