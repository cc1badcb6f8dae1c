"""Spans recorded around tabkit's layer boundaries, from outside the library.

A traced pass swaps the module and class attributes that tabkit's own callers
look up (``tabkit.pipeline.fit_imputer``, ``FeaturePipeline.transform``,
``Method.fit``, ...) for wrappers that record a span per call, and puts the
originals back when the pass ends. Untraced passes run with no timing
wrapper; the only wrapper they share with traced passes counts the CLI's
tuning trials (workloads.counting_trials) and takes no time stamps.

A span has a name, a layer, start and end times, the span that caused it and
the run id of the seed or tuning trial it belongs to. Spans stay in memory and
are written out when the benchmark ends. A span's self time is its duration
minus the time its child spans cover; the bookkeeping the tracer does inside a
span (hashing a pipeline output, reading an encoder's width) is recorded as a
child span of layer ``trace`` so that no layer is charged for it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import tabkit.cli
import tabkit.encode_cat
import tabkit.encode_num
import tabkit.pipeline
import tabkit.preprocess
import tabkit.report
from tabkit.methods import get_method, registered_methods
from tabkit.methods.base import Method

TREE_METHODS = ("cart", "random_forest", "gbdt")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._run_of: dict[int, str] = {}      # id(method) -> run id
        self._fits_under: dict[int, int] = {}  # span id -> Method.fit children
        self.fitted: list[tuple[str, str, Method]] = []
        self.record_batches: list[list] = []   # what each run_seeds returned
        self.pipeline_digests: list[bytes] = []
        self.num_width = 0
        self.cat_width = 0
        self.rows_loaded = 0
        self.bytes_written = 0

    @contextmanager
    def span(self, name: str, layer: str, run: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if run is None:
            run = parent.run if parent else ""
        record = Span(id=len(self.spans), name=name, layer=layer,
                      start=time.perf_counter() - self.origin,
                      parent=parent.id if parent else None, run=run)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter() - self.origin
            self._stack.pop()

    def bookkeeping(self):
        return self.span("trace.bookkeeping", "trace")

    # ---- wrappers ---------------------------------------------------------
    def _plain(self, name: str, layer: str, fn, after=None, label=None):
        """Record a span per call of fn; ``label`` computes a new run id from
        the call's arguments, ``after`` does bookkeeping on its result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            run = label(*args, **kwargs) if label else None
            with self.span(name, layer, run=run):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.bookkeeping():
                    after(result, args, kwargs)
            return result
        return wrapper

    def _method_fit(self, fn):
        @functools.wraps(fn)
        def fit(method, *args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = self._fits_under.get(parent.id if parent else -1, 0)
            self._fits_under[parent.id if parent else -1] = index + 1
            base = parent.run if parent else ""
            if parent is not None and parent.layer == "tune":
                run = f"{base}/trial{index}"
            else:
                run = f"{base}/seed{method.config.seed}"
            self._run_of[id(method)] = run
            with self.span("methods.fit", "methods", run=run):
                elapsed = fn(method, *args, **kwargs)
            self.fitted.append((run, _method_name(method), method))
            return elapsed
        return fit

    def _method_predict(self, fn):
        @functools.wraps(fn)
        def predict_part(method, *args, **kwargs):
            with self.span("methods.predict_part", "methods",
                           run=self._run_of.get(id(method))):
                return fn(method, *args, **kwargs)
        return predict_part

    # ---- bookkeeping callbacks -------------------------------------------
    def _after_pipeline_fit(self, matrix, args, kwargs):
        digest = hashlib.sha256(repr((matrix.shape, matrix.dtype.str)).encode())
        digest.update(np.ascontiguousarray(matrix))
        self.pipeline_digests.append(digest.digest())

    def _after_num_encoder(self, encoder, args, kwargs):
        if encoder is not None:
            self.num_width = max(self.num_width, encoder.width)

    def _after_cat_encoder(self, result, args, kwargs):
        self.cat_width = max(self.cat_width, result[0].width)

    def _after_load(self, result, args, kwargs):
        self.rows_loaded += result[0].n_rows

    def _after_emit(self, paths, args, kwargs):
        self.bytes_written += sum(os.path.getsize(p) for p in paths.values())

    def _after_run_seeds(self, records, args, kwargs):
        self.record_batches.append(list(records))

    # ---- installation -----------------------------------------------------
    def wrap_run_seeds(self, fn):
        return self._plain(
            "report.run_seeds", "report.run", fn, self._after_run_seeds,
            label=lambda method, dataset, info, *a, dataset_name=None, **k:
            f"{dataset_name or info.name}/{method}")

    def wrap_rank(self, fn):
        return self._plain("report.rank_methods", "report.rank", fn)

    def wrap_emit(self, fn):
        return self._plain("report.emit_report", "report.emit", fn,
                           self._after_emit)

    def wrap_cli(self, fn):
        return self._plain("cli.main", "cli", fn, label=lambda argv: "cli")

    def patches(self):
        """(owner, attribute, replacement) for every traced boundary."""
        pipe, pre, cli = tabkit.pipeline, tabkit.preprocess, tabkit.cli
        num_encoder = tabkit.encode_num.NumericEncoder
        cat_encoder = tabkit.encode_cat.CategoricalEncoder
        plain = self._plain
        return [
            (pipe, "fit_imputer",
             plain("preprocess.fit_imputer", "preprocess.fit",
                   pipe.fit_imputer)),
            (pipe, "fit_normalizer",
             plain("preprocess.fit_normalizer", "preprocess.fit",
                   pipe.fit_normalizer)),
            (pipe, "fit_numeric_encoder",
             plain("encode_num.fit_numeric_encoder", "encode_num.fit",
                   pipe.fit_numeric_encoder, self._after_num_encoder)),
            (pipe, "fit_categorical_encoder",
             plain("encode_cat.fit_categorical_encoder", "encode_cat.fit",
                   pipe.fit_categorical_encoder, self._after_cat_encoder)),
            (pre.FittedImputer, "transform",
             plain("preprocess.FittedImputer.transform", "preprocess.transform",
                   pre.FittedImputer.transform)),
            (pre.FittedNormalizer, "transform",
             plain("preprocess.FittedNormalizer.transform",
                   "preprocess.transform", pre.FittedNormalizer.transform)),
            (num_encoder, "transform",
             plain("encode_num.NumericEncoder.transform", "encode_num.transform",
                   num_encoder.transform)),
            (cat_encoder, "transform",
             plain("encode_cat.CategoricalEncoder.transform",
                   "encode_cat.transform", cat_encoder.transform)),
            (pipe.FeaturePipeline, "fit_transform_train",
             plain("pipeline.fit_transform_train", "pipeline",
                   pipe.FeaturePipeline.fit_transform_train,
                   self._after_pipeline_fit)),
            (pipe.FeaturePipeline, "transform",
             plain("pipeline.transform", "pipeline",
                   pipe.FeaturePipeline.transform)),
            (Method, "fit", self._method_fit(Method.fit)),
            (Method, "predict_part", self._method_predict(Method.predict_part)),
            (tabkit.report, "compute_metrics",
             plain("metrics.compute_metrics", "metrics",
                   tabkit.report.compute_metrics)),
            (cli, "load_dataset",
             plain("data.load_dataset", "data", cli.load_dataset,
                   self._after_load)),
            (cli, "tune_hyper_parameters",
             plain("tune.tune_hyper_parameters", "tune",
                   cli.tune_hyper_parameters,
                   label=lambda name, space, data, info, *a, **k:
                   f"{info.name}/{name}/tune")),
            (cli, "run_seeds", self.wrap_run_seeds(cli.run_seeds)),
            (cli, "rank_methods", self.wrap_rank(cli.rank_methods)),
            (cli, "emit_report", self.wrap_emit(cli.emit_report)),
        ]

    @contextmanager
    def installed(self):
        """Swap every traced boundary in for the duration of the block."""
        for cls in map(get_method, registered_methods()):
            for attr in ("fit", "predict_part"):
                if attr in vars(cls):
                    raise RuntimeError(
                        f"{cls.__name__} overrides Method.{attr}; "
                        f"the traced boundary would miss it")
        saved = []
        try:
            for owner, attr, replacement in self.patches():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _method_name(method: Method) -> str:
    for name in registered_methods():
        if type(method) is get_method(name):
            return name
    return type(method).__name__


# ---- aggregation ------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def layer_metrics(tracer: Tracer, wall_s: float, trials: int,
                  failed_trials: int) -> dict[str, float]:
    """The per-layer table of one traced pass; the tuning trials and the
    failed ones are counted by the workload (see workloads.counting_trials)."""
    spans = tracer.spans
    own = self_times(spans)

    def total(layer: str, name: str | None = None) -> float:
        return sum(t for s, t in zip(spans, own)
                   if s.layer == layer and (name is None or s.name == name))

    def count(name: str) -> int:
        return sum(s.name == name for s in spans)

    method_of = {run: name for run, name, _ in tracer.fitted}
    metrics: dict[str, float] = {
        "methods.fit_s": total("methods", "methods.fit"),
        "methods.predict_s": total("methods", "methods.predict_part"),
    }
    for name in registered_methods():
        for span_name, key in (("methods.fit", "fit_s"),
                               ("methods.predict_part", "predict_s")):
            metrics[f"methods.{name}.{key}"] = sum(
                t for s, t in zip(spans, own)
                if s.name == span_name and method_of.get(s.run) == name)
    metrics["methods.tree_nodes"] = sum(
        m.model_size() for _, name, m in tracer.fitted if name in TREE_METHODS)
    for layer in ("preprocess", "encode_num", "encode_cat"):
        metrics[f"{layer}.fit_s"] = total(f"{layer}.fit")
        metrics[f"{layer}.transform_s"] = total(f"{layer}.transform")
    metrics["encode_num.width"] = tracer.num_width
    metrics["encode_cat.width"] = tracer.cat_width

    digests = tracer.pipeline_digests
    metrics["pipeline.fits"] = count("pipeline.fit_transform_train")
    metrics["pipeline.transforms"] = count("pipeline.transform")
    metrics["pipeline.self_s"] = total("pipeline")
    metrics["pipeline.repeat_fit_frac"] = (
        (len(digests) - len(set(digests))) / len(digests) if digests else 0.0)

    metrics["data.load_s"] = total("data")
    metrics["data.rows"] = tracer.rows_loaded

    trial_times = _trial_durations(spans)
    metrics["tune.trials"] = trials
    metrics["tune.failed_trials"] = failed_trials
    metrics["tune.trial_p50_s"] = (statistics.median(trial_times)
                                   if trial_times else 0.0)
    metrics["tune.self_s"] = total("tune")

    metrics["metrics.calls"] = count("metrics.compute_metrics")
    metrics["metrics.compute_s"] = total("metrics")
    metrics["report.run_self_s"] = total("report.run")
    metrics["report.rank_s"] = total("report.rank")
    metrics["report.emit_s"] = total("report.emit")
    metrics["report.bytes_written"] = tracer.bytes_written
    metrics["cli.self_s"] = total("cli")
    metrics["trace.bookkeeping_s"] = total("trace")
    metrics["trace.wall_s"] = wall_s
    return metrics


def _trial_durations(spans: list[Span]) -> list[float]:
    """A tuning trial runs from its Method.fit to the next trial's Method.fit,
    or to the end of the tuning call for the last trial."""
    durations = []
    for tune in (s for s in spans if s.layer == "tune"):
        starts = [s.start for s in spans
                  if s.parent == tune.id and s.name == "methods.fit"]
        ends = starts[1:] + [tune.end]
        durations.extend(e - b for b, e in zip(starts, ends))
    return durations
