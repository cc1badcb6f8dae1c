"""The benchmark's traced boundaries still exist in tabkit and come back out.

``bench/tracing.py`` swaps tabkit attributes for span-recording wrappers by
name. A renamed attribute, or a method class that overrides ``Method.fit`` or
``Method.predict_part``, breaks ``bench/run.py --trace 1``; this test catches
both without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import tabkit.pipeline

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_boundary(monkeypatch):
    tracing = load_tracing(monkeypatch)
    original = tabkit.pipeline.fit_imputer
    boundaries = [(owner, attr) for owner, attr, _ in tracing.Tracer().patches()]
    before = [vars(owner)[attr] for owner, attr in boundaries]
    with tracing.Tracer().installed():
        assert tabkit.pipeline.fit_imputer is not original
        assert all(vars(owner)[attr] is not saved
                   for (owner, attr), saved in zip(boundaries, before))
    assert tabkit.pipeline.fit_imputer is original
    assert [vars(owner)[attr] for owner, attr in boundaries] == before
