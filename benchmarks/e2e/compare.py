#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

Usage (from the repository root):

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

Each end-to-end metric of each workload is judged against its bound from
``BENCHMARK.json``: B's median may be worse than A's by at most the bound.
When either side's run-to-run spread (quartile distance over median) is
wider than the bound, the metric is reported ``unresolved`` instead, unless
every run of B beats every run of A.  When both sets used the same seed and
run length, the deterministic counts (gas, escrows, result entries, tokens,
stored bytes, program counters) must also match exactly.  Exits 1 on any
regression or count mismatch.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(path: pathlib.Path) -> dict:
    data = json.loads(path.read_text())
    if "runs" not in data:  # a single workload's result file
        data = {
            "seed": data["seed"],
            "seconds": data["seconds"],
            "runs": {data["workload"]: [data]},
        }
    return data


def flat_counts(run: dict) -> dict:
    counts = {k: v for k, v in run["counts"].items() if k != "counters"}
    counts.update({f"counters.{k}": v for k, v in run["counts"]["counters"].items()})
    return counts


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def judge(metric: dict, a: list[float], b: list[float]) -> tuple[str, float]:
    """Verdict for one metric: ``ok``, ``unresolved`` or ``REGRESSION``."""
    lower = metric["better"] == "lower"
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    if max(spread(a), spread(b)) > metric["bound"]:
        beats = max(b) < min(a) if lower else min(b) > max(a)
        return ("ok" if beats else "unresolved"), worse
    return ("REGRESSION" if worse > metric["bound"] else "ok"), worse


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    parser.add_argument("--bench", type=pathlib.Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    metrics = json.loads(args.bench.read_text())["end_to_end"]
    a, b = load(args.a), load(args.b)
    same_work = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    failed = False
    for workload in sorted(set(a["runs"]) | set(b["runs"])):
        runs_a, runs_b = a["runs"].get(workload, []), b["runs"].get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload}: missing from one side (A {len(runs_a)} runs, B {len(runs_b)} runs)")
            failed = True
            continue
        print(f"{workload} (A {len(runs_a)} runs, B {len(runs_b)} runs)")
        for metric in metrics:
            name = metric["name"]
            va = [r["end_to_end"][name] for r in runs_a]
            vb = [r["end_to_end"][name] for r in runs_b]
            verdict, worse = judge(metric, va, vb)
            failed |= verdict == "REGRESSION"
            print(
                f"  {name:26s} A {statistics.median(va):14.4f}  B {statistics.median(vb):14.4f} "
                f"{metric['unit']:6s} worse {worse:+8.2%} (bound {metric['bound']:.0%})  {verdict}"
            )
        if same_work:
            reference = flat_counts(runs_a[0])
            diverged = set()
            for run in runs_a[1:] + runs_b:
                counts = flat_counts(run)
                diverged |= {
                    k for k in set(reference) | set(counts) if counts.get(k) != reference.get(k)
                }
            if diverged:
                failed = True
                print(f"  counts MISMATCH: {sorted(diverged)}")
            else:
                print(f"  {len(reference)} deterministic counts match exactly")
    if not same_work:
        print("seeds or run lengths differ: deterministic counts not compared")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
