"""Output checks run after each pass, outside its timed region.

Each report a pass wrote (results.csv, ranks.csv, rank_vs_time.svg) is read
back and checked against what the pass returned:

- every successful record's metrics are finite;
- ``read_results_csv`` reproduces the in-memory records exactly, where the
  pass has them (results.csv has no error column, so the error text is left
  out of the comparison);
- ranks.csv holds exactly the rank table, or, where the pass has no table in
  memory (the CLI workload), the table ``rank_methods`` rebuilds from the
  records read back.

The digests are sha256 prefixes: of each run's ``Method.fitted_state()`` and
of each rank table without its timing column, which is the only part that is
meant to change from run to run.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from tabkit.report import RankTable, RunRecord, rank_methods, read_results_csv

DIGEST_CHARS = 16


@dataclass
class ReportOutput:
    """One emitted report, plus what the pass knows about it in memory."""

    out_dir: str
    records: list[RunRecord] | None = None
    table: RankTable | None = None


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:DIGEST_CHARS]


def table_digest(table: RankTable) -> str:
    return digest(
        repr((table.methods, table.datasets)).encode(),
        np.ascontiguousarray(table.ranks, dtype=np.float64).tobytes(),
        np.ascontiguousarray(table.mean_ranks, dtype=np.float64).tobytes(),
        np.ascontiguousarray(table.mean_sizes, dtype=np.float64).tobytes(),
    )


def _ranks_rows(table: RankTable) -> list[list[str]]:
    return [
        [m, repr(float(table.mean_ranks[j])), repr(float(table.mean_times[j])),
         repr(float(table.mean_sizes[j]))]
        for j, m in enumerate(table.methods)
    ]


def check_report(report: ReportOutput) -> tuple[list[RunRecord], str, list[str]]:
    """Read a report back; return its records, its rank-table digest and the
    list of problems found (empty when every check passes)."""
    problems: list[str] = []
    path = os.path.join(report.out_dir, "results.csv")
    try:
        records = read_results_csv(path)
    except (OSError, ValueError, IndexError) as err:
        return [], "", [f"{path}: unreadable ({err})"]

    for r in records:
        if r.ok:
            bad = [k for k, v in r.metrics.values.items() if not math.isfinite(v)]
            if bad or r.time_s is None or not math.isfinite(r.time_s):
                problems.append(f"{path}: {r.dataset}/{r.method}/seed{r.seed}: "
                                f"non-finite {bad or ['time_s']}")

    if report.records is not None:
        expected = [replace(r, error=None) for r in report.records]
        if records != expected:
            first = next((i for i, (a, b) in enumerate(zip(records, expected))
                          if a != b), min(len(records), len(expected)))
            problems.append(f"{path}: read_results_csv differs from the records "
                            f"the run returned (first at row {first})")

    table = report.table
    if table is None:
        try:
            table = rank_methods(records)
        except Exception as err:  # a broken rank is reported, not raised
            problems.append(f"{path}: rank_methods on the records read back "
                            f"failed: {type(err).__name__}: {err}")
            return records, "", problems
    ranks_path = os.path.join(report.out_dir, "ranks.csv")
    try:
        with open(ranks_path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
    except OSError as err:
        problems.append(f"{ranks_path}: unreadable ({err})")
        rows = None
    if rows is not None and rows != _ranks_rows(table):
        problems.append(f"{ranks_path}: does not match the rank table")
    return records, table_digest(table), problems


def state_digests(fitted) -> dict[str, str]:
    """run id -> digest of the fitted state, for every (run, name, method)."""
    return {run: digest(method.fitted_state()) for run, _, method in fitted}


def count_mismatches(got: dict, want: dict | None) -> int | None:
    """How many entries differ from the reference or are missing on either
    side; None when there is no reference to compare with."""
    if want is None:
        return None
    return sum(got.get(k) != want.get(k) for k in set(got) | set(want))
