"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload study-1k --seeds 1-10

Each seed is one untraced run (--trace 0). For every end-to-end metric this
prints the median over seeds, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (the distance between the
quartiles as a share of the median) and the spread as a share of the metric's
bound in BENCHMARK.json; a steady benchmark keeps that share below one third.
The per-seed lines and the summary go to bench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        command = [sys.executable, str(BENCH_DIR / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            print(done.stdout, done.stderr, file=sys.stderr)
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        print(json.dumps({"seed": seed, "correct": line["correct"],
                          "failed": line["failed"],
                          **{k: v["value"] for k, v in line["metrics"].items()}}),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        stats = summarize([r["metrics"][name]["value"] for r in runs])
        if stats["spread"] is not None:
            stats["spread_over_bound"] = stats["spread"] / bounds[name]
        summary[name] = stats
        extra = (f"  spread/bound {stats['spread_over_bound']:.3f}"
                 if "spread_over_bound" in stats else "")
        spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
        print(f"{name}: median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
              f"q3 {stats['q3']:.6g}  spread {spread}{extra}")
    out = BENCH_DIR / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
