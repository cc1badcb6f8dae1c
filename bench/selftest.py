"""Self-test of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

- A tiny-size pass of every workload, untraced and traced, prints every
  metric BENCHMARK.json names, with its unit, and passes its output checks.
- A record corrupted on purpose (a NaN metric, an edited results.csv cell)
  fails the output check.
- A call that raises is counted as failed and the pass goes on; a tuning
  trial that fails inside a call that succeeds is counted as failed too.
- --update-reference refuses --tiny and leaves reference.json as it is.
- In a directory holding only BENCHMARK.json and bench/, the benchmark exits
  with an error and prints no result.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tabkit.cli  # noqa: E402
from tabkit import emit_report, rank_methods, run_seeds  # noqa: E402
from tabkit.metrics import MetricSet  # noqa: E402

from checks import ReportOutput, check_report  # noqa: E402
from generate import make_classification  # noqa: E402
from workloads import (WORKLOADS, Api, build_cli, build_study,  # noqa: E402
                       run_cli, run_study)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def temp_dir() -> str:
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=BENCH_DIR / "out")


class SmokeTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        done = run_benchmark("--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, done.stdout)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertNotIsInstance(got["value"], bool, m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)
                self.check_run(workload, 1)
                spans = (BENCH_DIR / "out" /
                         f"{workload}-seed1-trace1-spans.jsonl")
                lines = spans.read_text().splitlines()
                self.assertTrue(lines)
                span = json.loads(lines[0])
                for key in ("name", "layer", "start", "end", "parent", "run"):
                    self.assertIn(key, span)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = temp_dir()
        dataset, info = make_classification(1, 71, n_rows=120, n_num=3,
                                            n_cat=1, n_classes=2, name="t")
        self.records = (run_seeds("dummy", dataset, info, 2)
                        + run_seeds("ncm", dataset, info, 2))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def emit(self, records) -> ReportOutput:
        table = rank_methods(records)
        emit_report(table, records, self.dir)
        return ReportOutput(self.dir, records, table)

    def test_clean_report_passes(self):
        _, _, problems = check_report(self.emit(self.records))
        self.assertEqual(problems, [])

    def test_nan_metric_fails(self):
        bad = self.records[0]
        values = dict(bad.metrics.values, log_loss=float("nan"))
        records = [replace(bad, metrics=MetricSet(values)), *self.records[1:]]
        _, _, problems = check_report(self.emit(records))
        self.assertTrue(any("non-finite" in p for p in problems), problems)

    def test_edited_results_cell_fails(self):
        report = self.emit(self.records)
        path = os.path.join(self.dir, "results.csv")
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[1][3] = repr(float(rows[1][3]) + 1e-9)
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        _, _, problems = check_report(report)
        self.assertTrue(any("differs" in p for p in problems), problems)


class FailureIsolationTest(unittest.TestCase):
    def test_raising_call_counts_as_failed_and_pass_continues(self):
        calls = []

        def flaky_run_seeds(method, *args, **kwargs):
            calls.append(method)
            if method == "knn":
                raise ValueError("n_neighbors = 0 is not allowed")
            return run_seeds(method, *args, **kwargs)

        out_dir = temp_dir()
        try:
            api = Api(flaky_run_seeds, rank_methods, emit_report, None)
            result = run_study(api, build_study(1, out_dir, True)[:1], out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.assertEqual(len(calls), 7)
        self.assertEqual((result.attempted, result.failed), (7, 1))
        self.assertTrue(any("ValueError" in e for e in result.errors))


    def test_failed_tuning_trial_counts_as_failed(self):
        tune = tabkit.cli.tune_hyper_parameters

        def odd_trials_fail(*args, **kwargs):
            result = tune(*args, **kwargs)
            return replace(result, trials=[
                replace(t, score=None, error="injected") if t.trial % 2 else t
                for t in result.trials])

        out_dir = temp_dir()
        tabkit.cli.tune_hyper_parameters = odd_trials_fail
        try:
            api = Api(None, None, None, tabkit.cli.main)
            result = run_cli(api, build_cli(1, out_dir, True), out_dir)
        finally:
            tabkit.cli.tune_hyper_parameters = tune
            shutil.rmtree(out_dir, ignore_errors=True)
        # tiny: 3 trials and 3 seeds of knn, 3 seeds of the MLP; trial 1 fails
        self.assertEqual((result.trials, result.failed_trials), (3, 1))
        self.assertEqual((result.attempted, result.failed), (9, 1))
        self.assertTrue(any("injected" in e for e in result.errors))


class ReferenceTest(unittest.TestCase):
    def test_update_reference_refuses_tiny(self):
        before = (BENCH_DIR / "reference.json").read_bytes()
        done = run_benchmark("--workload", "study-1k", "--seed", "1",
                             "--seconds", "1", "--trace", "1", "--tiny",
                             "--update-reference")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual((BENCH_DIR / "reference.json").read_bytes(), before)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = Path(temp_dir())
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = run_benchmark("--workload", "study-1k", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
