"""Benchmark entry point: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload study-1k --seed 1 --seconds 30 --trace 0

Run from the repository root; tabkit is imported from ./src. The workload's
inputs are generated from --seed.

Every pass runs in a fresh interpreter with one BLAS thread, as a user's
study or CLI call would: it imports tabkit and builds the inputs (CSV files
included), which is the set-up time, then runs the workload once, which is
the pass time, then checks its outputs outside the timed region (see
checks.py). Passes repeat until the
next one would end after --seconds; at least two run. Each figure is the
median over passes. An untraced run also starts SETUP_PROBES interpreters
that only set up, so that setup_s is the median of more set-ups than passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with no
tracing (the CLI workload's count of tuning trials takes no time stamps). --trace 1 alternates untraced and traced passes and reports
the per-layer metrics; the traced minus the untraced pass time is
``trace.overhead_s``. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The full record,
including the environment and every per-layer figure, goes to
bench/out/<workload>-seed<n>-trace<t>.json, and a traced run's spans to the
matching -spans.jsonl file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
PASS_TIMEOUT_S = 150
# Each pass runs with one BLAS thread. With two, the MLP's fit time moved by
# about 17% between identical runs on a 2-CPU host (7% with one), and a BLAS
# routine that splits a sum across threads can make the fitted bytes depend
# on the machine's core count, which the digest reference must not.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("study-1k", "encode-10k", "tune-cli-4k")
# A set-up is about 1.2 s, nearly all of it imports, and the two set-ups of
# one run differed by up to 30%; the extra set-ups steady setup_s.
SETUP_PROBES = 4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (used by selftest.py)")
    parser.add_argument("--update-reference", action="store_true",
                        help="run one traced pass and store this seed's "
                             "digests in reference.json; reports no metrics")
    # one pass in this process; the parent reads its JSON line
    parser.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source() -> None:
    """Import tabkit from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "tabkit" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a tabkit checkout")
    sys.path.insert(0, str(ROOT / "src"))


# ---- one pass, in its own process -------------------------------------------

def environment() -> dict:
    """What makes timings from two machines comparable or not."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def run_pass(args) -> dict:
    """Set up, run one timed pass, check it; return what the parent needs."""
    start = time.perf_counter()
    import tabkit.cli
    import tabkit.report
    from checks import check_report, state_digests
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Api

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        inputs = workload.build(args.seed, os.path.join(workdir, "in"),
                                args.tiny)
        setup = time.perf_counter() - start
        if args.setup_only:
            return {"setup_s": setup}
        out_dir = os.path.join(workdir, "out")
        api = Api(tabkit.report.run_seeds, tabkit.report.rank_methods,
                  tabkit.report.emit_report, tabkit.cli.main)
        if not traced:
            start = time.perf_counter()
            output = workload.run(api, inputs, out_dir)
            wall = time.perf_counter() - start
        else:
            tracer = Tracer()
            with tracer.installed():
                api = Api(tracer.wrap_run_seeds(api.run_seeds),
                          tracer.wrap_rank(api.rank_methods),
                          tracer.wrap_emit(api.emit_report),
                          tracer.wrap_cli(api.cli_main), tracer)
                start = time.perf_counter()
                output = workload.run(api, inputs, out_dir)
                wall = time.perf_counter() - start

        # ---- outside the timed region ----------------------------------------
        records, rank_digests, problems = [], [], []
        for report in output.reports:
            got, table_digest, found = check_report(report)
            records.extend(got)
            rank_digests.append(table_digest)
            problems.extend(found)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not output.complete:
        problems.append("the workload's report is missing")
    ok = [r for r in records if r.ok]
    result = {
        "traced": traced,
        "setup_s": setup,
        "wall_s": wall,
        "train_s": sum(r.time_s for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": output.attempted,
        "failed": output.failed + sum(not r.ok for r in records),
        "errors": output.errors + [f"{r.dataset}/{r.method}/seed{r.seed}: "
                                   f"no metrics" for r in records if not r.ok],
        "problems": problems,
        "rank_digests": rank_digests,
        "accuracy": [r.metrics["accuracy"] for r in ok
                     if r.metrics.is_classification],
        "r2": [r.metrics["r2"] for r in ok if not r.metrics.is_classification],
        "environment": environment(),
    }
    if traced:
        result["layers"] = layer_metrics(tracer, wall, output.trials,
                                         output.failed_trials)
        result["state_digests"] = state_digests(tracer.fitted)
        with open(args.spans_out, "a") as handle:
            for span in tracer.spans:
                handle.write(json.dumps({"pass": args.pass_index, **vars(span)})
                             + "\n")
    return result


# ---- the parent: passes, medians, output -----------------------------------

def spawn_pass(args, traced: bool, index: int, spans_out: Path,
               setup_only: bool = False) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced)),
               "--pass-index", str(index), "--spans-out", str(spans_out)]
    if args.tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S, cwd=ROOT,
                          env={**os.environ, **PASS_ENV})
    if done.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {done.returncode}:\n"
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args, spans_out: Path) -> tuple[list[dict], list[float]]:
    """The passes and the set-up times of the run. An untraced run first sets
    up SETUP_PROBES times; then untraced (and, for a traced run, traced)
    passes alternate until the next would end after ``--seconds``; at least
    two passes run."""
    kinds = [False, True] if args.trace else [False]
    start = time.perf_counter()
    setups = [] if args.trace else [
        spawn_pass(args, False, -1, spans_out, setup_only=True)["setup_s"]
        for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    while True:
        traced = kinds[len(passes) % len(kinds)]
        passes.append(spawn_pass(args, traced, len(passes), spans_out))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (1 + 1 / len(passes)) > args.seconds:
            return passes, setups + [p["setup_s"] for p in passes]


def repeat_problems(passes: list[dict]) -> list[str]:
    """Every pass of a run computes the same ranks, scores and fitted states."""
    problems = []
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        for key in ("rank_digests", "accuracy", "r2"):
            if p[key] != first[key]:
                problems.append(f"pass {i}: {key} differs from pass 0")
    traced = [p for p in passes if p["traced"]]
    for p in traced[1:]:
        if p["state_digests"] != traced[0]["state_digests"]:
            problems.append("fitted states differ between traced passes")
    return problems


def median_of(values):
    return statistics.median(values) if values else None


def mean_of(values):
    return statistics.fmean(values) if values else None


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": median_of(setups),
        "wall_s": median_of([p["wall_s"] for p in untraced]),
        "train_s": median_of([p["train_s"] for p in untraced]),
        "peak_rss_mb": median_of([p["peak_rss_mb"] for p in untraced]),
        "ok_frac": 1.0 - failed / attempted if attempted else None,
        "accuracy_mean": mean_of(passes[0]["accuracy"]),
        "r2_mean": mean_of(passes[0]["r2"]),
    }


def per_layer(passes: list[dict], reference: dict | None) -> tuple[dict, dict]:
    from checks import count_mismatches

    tables = [p["layers"] for p in passes if p["traced"]]
    layers = {k: statistics.median(t[k] for t in tables) for k in tables[0]}
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(untraced)
    got = next(p["state_digests"] for p in passes if p["traced"])
    layers["methods.state_digest_mismatches"] = count_mismatches(
        got, reference and reference["states"])
    wall = layers["trace.wall_s"]
    pipeline_layers = ("preprocess.fit_s", "preprocess.transform_s",
                       "encode_num.fit_s", "encode_num.transform_s",
                       "encode_cat.fit_s", "encode_cat.transform_s",
                       "pipeline.self_s")
    shares = {
        "methods": (layers["methods.fit_s"] + layers["methods.predict_s"]) / wall,
        "pipeline_layers": sum(layers[k] for k in pipeline_layers) / wall,
        "knn_predict": layers["methods.knn.predict_s"] / wall,
    }
    return layers, shares


def unit_of(name: str, spec: dict) -> str:
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def load_reference(args) -> dict | None:
    if args.tiny or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(args.workload, {}).get(
        str(args.seed))


def store_reference(args, traced_pass: dict) -> None:
    document = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    document.setdefault(args.workload, {})[str(args.seed)] = {
        "ranks": traced_pass["rank_digests"],
        "states": traced_pass["state_digests"],
    }
    REFERENCE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def report(args, spec: dict, passes: list[dict], setups: list[float]) -> None:
    """Write the result file, print the full table, then the JSON line."""
    from checks import count_mismatches

    problems = [f"pass {i}: {p}" for i, pass_ in enumerate(passes)
                for p in pass_["problems"]] + repeat_problems(passes)
    reference = load_reference(args)
    figures = end_to_end(passes, setups)
    # None (printed n/a) where reference.json has nothing for this seed
    figures["report.rank_digest_mismatches"] = count_mismatches(
        dict(enumerate(passes[0]["rank_digests"])),
        reference and dict(enumerate(reference["ranks"])))
    shares: dict = {}
    if args.trace:
        layers, shares = per_layer(passes, reference)
        figures.update(layers)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if figures.get(m["name"]) is None]
    if missing:
        raise RuntimeError(f"not measured: {', '.join(missing)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny,
        "environment": passes[0]["environment"],
        "passes": [{k: v for k, v in p.items()
                    if k not in ("environment", "layers", "state_digests")}
                   for p in passes],
        "setup_s_samples": setups,
        "figures": figures,
        "shares_of_traced_wall": shares,
        "wait_time": "none: one process per pass, no queue, no second worker",
        "reference_checked": reference is not None,
        "problems": problems,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for p in passes:
        kind = "traced" if p["traced"] else "untraced"
        print(f"pass {kind}: setup_s {p['setup_s']:.4f}  wall_s {p['wall_s']:.4f}"
              f"  train_s {p['train_s']:.4f}  failed {p['failed']}/{p['attempted']}")
        for error in p["errors"]:
            print(f"  error: {error}")
    for name in sorted(figures):
        value = "n/a" if figures[name] is None else figures[name]
        print(f"{name} {value} {unit_of(name, spec)}")
    for name, share in shares.items():
        print(f"share.{name} {share:.4f} of traced wall_s")
    if args.trace:
        print("wait time: none (one process per pass, no queue, "
              "no second worker)")
    if reference is None:
        print("digest reference: none for this workload and seed, so the "
              "digest mismatch counts read n/a")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    OUT_DIR.mkdir(exist_ok=True)
    if args.pass_index is not None:
        print(json.dumps(run_pass(args)))
        return 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = OUT_DIR / f"{stem}-spans.jsonl"
    spans_out.write_text("")
    try:
        if args.update_reference:
            if args.tiny:
                raise ValueError("--update-reference stores full-size digests; "
                                 "it cannot be combined with --tiny")
            traced = spawn_pass(args, True, 0, spans_out)
            if traced["problems"]:
                raise RuntimeError("output checks failed: "
                                   + "; ".join(traced["problems"]))
            store_reference(args, traced)
            print(f"stored {len(traced['state_digests'])} state digests for "
                  f"{args.workload} seed {args.seed}")
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        report(args, spec, *measure(args, spans_out))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if not args.trace:
            spans_out.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
