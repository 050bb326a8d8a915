#!/usr/bin/env python3
"""Slicer end-to-end benchmark: four paid-search workloads, checked, then timed.

Usage (from the repository root):

    python3 benchmarks/e2e/run.py --seed 1                      # all workloads
    python3 benchmarks/e2e/run.py --workload hot-repeat-8b --seed 3 --seconds 10 --trace 0

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without it every workload runs in a fresh child
process (``--repeat`` times) and the results are collected into
``<out>/results.json`` for ``compare.py``.  Any correctness violation exits
non-zero.  ``REPRO_*`` variables are scrubbed so no knob leaks in from the
caller's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out"
DEFAULT_SECONDS = 15


def scrubbed_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (all-workload mode)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    os.environ.clear()
    os.environ.update(scrubbed_env())
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench  # noqa: E402 - needs the paths above
    from workloads import WORKLOADS  # noqa: E402 - needs the paths above

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, ledger = bench.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}{'.trace' if args.trace else ''}"
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if ledger is not None:
        ledger.write(args.out / f"TRACE_{args.workload}.jsonl")

    failed = list(result["failures"])
    if args.trace:
        units, values = bench.PER_LAYER, result["per_layer"]
        lo, hi = bench.COVERAGE_RANGE
        coverage = values["layers.coverage"]
        if not lo <= coverage <= hi:
            failed.append(f"layers.coverage {coverage:.3f} outside [{lo}, {hi}]")
    else:
        units, values = bench.END_TO_END, result["end_to_end"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:14.4f} {unit}")
    if not args.trace:
        extra = result["extra"]
        print(f"{'op_p90_ms (unbounded)':32s} {extra['op_p90_ms']:14.4f} ms")
        for name in ("insert_p50_ms", "insert_p75_ms"):
            if name in extra:
                print(f"{name + ' (unbounded)':32s} {extra[name]:14.4f} ms")
    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    summary = {
        "correct": result["correct"] and not failed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS  # noqa: E402 - needs the paths above

    args.out.mkdir(parents=True, exist_ok=True)
    stem = ".trace" if args.trace else ""
    collected: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    status = 0
    for _ in range(args.repeat):
        for name in WORKLOADS:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(args.out),
            ]
            child = subprocess.run(cmd, env=scrubbed_env(), check=False)
            if child.returncode != 0:
                status = 1
                continue
            single = args.out / f"{name}{stem}.json"
            collected[name].append(json.loads(single.read_text()))
            single.unlink()
    results = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "runs": collected}
    path = args.out / f"results{stem}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {path}")
    return status


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"cannot find the Slicer sources at {SRC}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
