#!/usr/bin/env python
"""Guard against performance regressions: fresh smoke run vs committed baseline.

Reads the committed ``reports/BENCH_smoke.json``, re-runs ``run_smoke.py``
(unless ``--no-run`` compares an already-fresh report), and gates on two
signals:

* **Kernel counters (the gate).**  The counters run_smoke.py records are
  machine-independent — for a fixed seed the hit/miss/candidate counts are
  deterministic — so "a cache that stopped hitting" or "an accidentally
  repeated walk" shows up exactly, with no CI hardware noise.  The
  snapshot is also shape-independent: a baseline recorded on one cloud
  gates a fresh run through a sharded tier or on another modmath backend.
  A cache regresses when
  its miss count inflates beyond ``--miss-ratio`` (above an absolute
  floor) or its hit rate collapses; ``--exact-counters`` tightens the gate
  to bit-for-bit equality of every counter and value-histogram (the CI
  determinism check).
* **Wall-clock ratios (a warning).**  The committed baseline was timed on a
  different machine, and GitHub runner hardware varies enough that >2x on
  sub-second metrics can trip spuriously — so slowdowns beyond ``--ratio``
  above the 100 ms floor print a WARNING but do not fail the check unless
  ``--strict-timing`` is passed (for runs against a same-machine baseline).

Writes ``reports/regression_check.txt`` / ``.json`` (the CI artifact) with
the full comparison either way.

Usage:  PYTHONPATH=src python benchmarks/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPORTS = HERE / "reports"

RATIO_LIMIT = 2.0
ABS_FLOOR_S = 0.10
MISS_RATIO_LIMIT = 2.0
MISS_FLOOR = 16  # miss-count inflation below this absolute count is noise
HIT_RATE_DROP = 0.25  # absolute hit-rate loss that counts as a collapse
MIN_LOOKUPS = 16  # rate comparisons need at least this many lookups


def load_report(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())


def compare_timings(baseline: dict, fresh: dict, ratio_limit: float, floor_s: float) -> list[dict]:
    """One comparison row per timed metric present in both reports."""
    rows = []
    for name in sorted(baseline):
        if not name.endswith("_s") or name not in fresh:
            continue
        base, now = float(baseline[name]), float(fresh[name])
        ratio = now / base if base else 0.0
        slow = base > 0 and now > floor_s and ratio > ratio_limit
        rows.append(
            {
                "metric": name,
                "baseline_s": base,
                "fresh_s": now,
                "ratio": ratio,
                "slow": slow,
            }
        )
    return rows


def _cache_names(counters: dict) -> set[str]:
    return {
        name.rsplit(".", 1)[0]
        for name in counters
        if name.endswith(".hit") or name.endswith(".miss")
    }


def compare_counters(
    baseline: dict, fresh: dict, miss_ratio: float
) -> list[dict]:
    """One row per hit/miss cache the baseline knows about."""
    rows = []
    for cache in sorted(_cache_names(baseline) & _cache_names(fresh)):
        base_hit = int(baseline.get(f"{cache}.hit", 0))
        base_miss = int(baseline.get(f"{cache}.miss", 0))
        now_hit = int(fresh.get(f"{cache}.hit", 0))
        now_miss = int(fresh.get(f"{cache}.miss", 0))
        base_total = base_hit + base_miss
        now_total = now_hit + now_miss
        # None (rendered "n/a") for a never-consulted cache: 0.0 would
        # read as a collapse when the cache simply wasn't on the path.
        base_rate = base_hit / base_total if base_total else None
        now_rate = now_hit / now_total if now_total else None
        miss_inflated = now_miss > max(MISS_FLOOR, miss_ratio * base_miss)
        rate_collapsed = (
            base_total >= MIN_LOOKUPS
            and now_total >= MIN_LOOKUPS
            and base_rate - now_rate > HIT_RATE_DROP
        )
        rows.append(
            {
                "cache": cache,
                "baseline_hit": base_hit,
                "baseline_miss": base_miss,
                "fresh_hit": now_hit,
                "fresh_miss": now_miss,
                "baseline_hit_rate": base_rate,
                "fresh_hit_rate": now_rate,
                "regressed": miss_inflated or rate_collapsed,
            }
        )
    return rows


def _fmt_rate(rate: float | None) -> str:
    return "n/a" if rate is None else f"{rate:.2f}"


def render(
    timing_rows: list[dict],
    counter_rows: list[dict],
    ratio_limit: float,
    counters_comparable: bool,
    counter_note: str,
    strict_timing: bool,
) -> str:
    lines = [
        "Smoke benchmark regression check",
        "",
        f"Kernel counters ({counter_note}; gate: miss inflation >"
        f"{MISS_RATIO_LIMIT:.1f}x above {MISS_FLOOR}, hit-rate drop >{HIT_RATE_DROP:.2f})",
        f"{'cache':<24} {'base hit/miss':>14} {'fresh hit/miss':>14} "
        f"{'base rate':>9} {'fresh rate':>10}  verdict",
    ]
    for row in counter_rows:
        verdict = "ok"
        if row["regressed"]:
            verdict = "REGRESSED" if counters_comparable else "changed (info)"
        lines.append(
            f"{row['cache']:<24} "
            f"{row['baseline_hit']:>6}/{row['baseline_miss']:<7} "
            f"{row['fresh_hit']:>6}/{row['fresh_miss']:<7} "
            f"{_fmt_rate(row['baseline_hit_rate']):>8} "
            f"{_fmt_rate(row['fresh_hit_rate']):>9}  {verdict}"
        )
    if not counter_rows:
        lines.append("(no comparable hit/miss counters in both reports)")
    lines += [
        "",
        f"Wall-clock timings (limit {ratio_limit:.1f}x, floor {ABS_FLOOR_S * 1000:.0f} ms; "
        + ("strict: fails the check)" if strict_timing else "cross-machine baseline: warnings only)"),
        f"{'metric':<24} {'baseline':>10} {'fresh':>10} {'ratio':>7}  verdict",
    ]
    for row in timing_rows:
        if row["slow"]:
            verdict = "REGRESSED" if strict_timing else "WARNING: slow"
        else:
            verdict = "ok"
        lines.append(
            f"{row['metric']:<24} {row['baseline_s']:>9.4f}s {row['fresh_s']:>9.4f}s "
            f"{row['ratio']:>6.2f}x  {verdict}"
        )
    return "\n".join(lines)


def chaos_check(baseline_path: pathlib.Path, run: bool) -> int:
    """Exact-equality gate on the chaos smoke counters.

    The fault schedule is a pure function of (profile, seed), and the
    ``chaos.*`` / ``retry.*`` counters are a pure function of the schedule —
    no hardware noise, no tolerance bands.  A fresh run with the baseline's
    recorded seed must reproduce the committed counters bit-for-bit; any
    drift means the transport, retry policy or fault plan changed behaviour
    and the baseline must be regenerated *deliberately*.
    """
    if not baseline_path.exists():
        print(f"no chaos baseline at {baseline_path}; "
              "run run_smoke.py --chaos-seed <seed> and commit the report")
        return 2
    baseline = load_report(baseline_path)
    chaos = baseline.get("chaos", {})
    seed, profile = chaos.get("seed"), chaos.get("profile")
    if seed is None or profile is None:
        print(f"{baseline_path} records no chaos seed/profile; regenerate it")
        return 2

    if run:
        subprocess.run(
            [
                sys.executable,
                str(HERE / "run_smoke.py"),
                "--chaos-seed",
                str(seed),
                "--chaos-profile",
                str(profile),
            ],
            check=True,
        )
    fresh = load_report(REPORTS / "BENCH_chaos.json")

    base_counters = baseline.get("counters", {})
    fresh_counters = fresh.get("counters", {})
    drifted = sorted(
        name
        for name in set(base_counters) | set(fresh_counters)
        if base_counters.get(name) != fresh_counters.get(name)
    )
    lines = [
        f"Chaos smoke determinism check (profile {profile!r}, seed {seed})",
        "",
        f"{'counter':<28} {'baseline':>10} {'fresh':>10}  verdict",
    ]
    for name in sorted(set(base_counters) | set(fresh_counters)):
        verdict = "DRIFTED" if name in drifted else "ok"
        lines.append(
            f"{name:<28} {base_counters.get(name, '-'):>10} "
            f"{fresh_counters.get(name, '-'):>10}  {verdict}"
        )
    text = "\n".join(lines)
    print(text)
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / "chaos_check.txt").write_text(text + "\n")
    (REPORTS / "chaos_check.json").write_text(
        json.dumps(
            {
                "seed": seed,
                "profile": profile,
                "baseline_counters": base_counters,
                "fresh_counters": fresh_counters,
                "drifted": drifted,
                "ok": not drifted,
            },
            indent=2,
        )
        + "\n"
    )
    if drifted:
        print(f"\nFAIL: chaos counters drifted from the committed schedule: "
              f"{', '.join(drifted)}")
        return 1
    print("\nOK: chaos fault schedule and retry behaviour reproduced exactly")
    return 0


def settlement_check(baseline_path: pathlib.Path, run: bool) -> int:
    """Exact-equality gate: block settlement vs the committed sync baseline.

    ``run_smoke.py --settlement sync`` and ``--settlement block`` execute
    the identical protocol flow; block production is a delivery knob, so
    every deterministic counter, every value-histogram and the settlement
    ledger totals (verdicts, gas, escrow moved) must match bit for bit.
    Any drift means block-mode settlement changed *what* settles — not just
    when — and fails the job.
    """
    if not baseline_path.exists():
        print(f"no settlement baseline at {baseline_path}; "
              "run run_smoke.py --settlement sync and commit the report")
        return 2
    baseline = load_report(baseline_path)
    if baseline.get("settlement", {}).get("mode") != "sync":
        print(f"{baseline_path} is not a sync-mode settlement report; regenerate it")
        return 2

    if run:
        subprocess.run(
            [sys.executable, str(HERE / "run_smoke.py"), "--settlement", "block"],
            check=True,
        )
    fresh = load_report(REPORTS / "BENCH_settlement_block.json")

    drifted: list[str] = []
    for section in ("counters", "histograms"):
        base_sec = baseline.get(section, {})
        fresh_sec = fresh.get(section, {})
        drifted += sorted(
            f"{section}.{name}"
            for name in set(base_sec) | set(fresh_sec)
            if base_sec.get(name) != fresh_sec.get(name)
        )
    base_ledger = {
        k: v for k, v in baseline.get("settlement", {}).items() if k != "mode"
    }
    fresh_ledger = {
        k: v for k, v in fresh.get("settlement", {}).items() if k != "mode"
    }
    drifted += sorted(
        f"ledger.{k}"
        for k in set(base_ledger) | set(fresh_ledger)
        if base_ledger.get(k) != fresh_ledger.get(k)
    )

    lines = [
        "Settlement-mode equivalence check (block vs committed sync baseline)",
        "",
        f"counters compared: {len(set(baseline.get('counters', {})) | set(fresh.get('counters', {})))}",
        f"histograms compared: {len(set(baseline.get('histograms', {})) | set(fresh.get('histograms', {})))}",
        f"ledger totals compared: {sorted(base_ledger)}",
    ]
    if drifted:
        lines += ["", "DRIFTED:"] + [f"  {name}" for name in drifted]
    else:
        lines.append(
            "every counter, histogram and ledger total identical across modes"
        )
    text = "\n".join(lines)
    print(text)
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / "settlement_check.txt").write_text(text + "\n")
    (REPORTS / "settlement_check.json").write_text(
        json.dumps(
            {
                "baseline": str(baseline_path),
                "baseline_ledger": base_ledger,
                "fresh_ledger": fresh_ledger,
                "drifted": drifted,
                "ok": not drifted,
            },
            indent=2,
        )
        + "\n"
    )
    if drifted:
        print("\nFAIL: block-mode settlement drifted from the sync baseline: "
              f"{', '.join(drifted)}")
        return 1
    print("\nOK: block settlement reproduces the synchronous baseline exactly")
    return 0


def restart_check(baseline_path: pathlib.Path, run: bool) -> int:
    """Exact-equality gate on the warm-restart smoke counters.

    ``run_smoke.py --restart`` already asserts the hard invariants before
    it reports anything — the reopened cloud's first repeat query must be
    byte-identical to the never-restarted oracle with 0 index probes and
    0 PRF evaluations.  This check adds the regression dimension: the
    deterministic counters and histograms of the whole restart flow, plus
    the per-leg counter deltas, must reproduce the committed baseline bit
    for bit.  Any drift means the segment store, the warm checkpoint or
    the rehydration path changed behaviour and the baseline must be
    regenerated deliberately.
    """
    if not baseline_path.exists():
        print(f"no warm-restart baseline at {baseline_path}; "
              "run run_smoke.py --restart and commit the report")
        return 2
    baseline = load_report(baseline_path)
    if "restart_leg" not in baseline:
        print(f"{baseline_path} records no restart leg; regenerate it")
        return 2

    if run:
        subprocess.run(
            [sys.executable, str(HERE / "run_smoke.py"), "--restart"],
            check=True,
        )
    fresh = load_report(REPORTS / "BENCH_warm_restart.json")

    drifted: list[str] = []
    for section in ("counters", "histograms", "restart_leg"):
        base_sec = baseline.get(section, {})
        fresh_sec = fresh.get(section, {})
        drifted += sorted(
            f"{section}.{name}"
            for name in set(base_sec) | set(fresh_sec)
            if base_sec.get(name) != fresh_sec.get(name)
        )

    leg = fresh.get("restart_leg", {})
    lines = [
        "Warm-restart determinism check (reopen vs committed baseline)",
        "",
        f"restart leg: byte_identical={leg.get('byte_identical')} "
        f"index_probes={leg.get('index_probes')} prf_evals={leg.get('prf_evals')}",
        f"counters compared: {len(set(baseline.get('counters', {})) | set(fresh.get('counters', {})))}",
        f"histograms compared: {len(set(baseline.get('histograms', {})) | set(fresh.get('histograms', {})))}",
    ]
    if drifted:
        lines += ["", "DRIFTED:"] + [f"  {name}" for name in drifted]
    else:
        lines.append(
            "every counter, histogram and per-leg delta identical to baseline"
        )
    text = "\n".join(lines)
    print(text)
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / "restart_check.txt").write_text(text + "\n")
    (REPORTS / "restart_check.json").write_text(
        json.dumps(
            {
                "baseline": str(baseline_path),
                "restart_leg": leg,
                "drifted": drifted,
                "ok": not drifted,
            },
            indent=2,
        )
        + "\n"
    )
    if drifted:
        print("\nFAIL: warm-restart counters drifted from the committed "
              f"baseline: {', '.join(drifted)}")
        return 1
    print("\nOK: warm restart reproduces the committed baseline exactly")
    return 0


def range_check(baseline_path: pathlib.Path, run: bool) -> int:
    """Exact-equality gate on the range-planner smoke counters.

    ``run_smoke.py --range`` already asserts the hard invariants before it
    reports anything — every plan verified, every intersection equal to
    the plaintext oracle, ``planner.dedup_saved > 0``.  This check adds
    the regression dimension: the ``planner.*`` family, the full
    deterministic counter snapshot and the value-histograms must reproduce
    the committed baseline bit for bit.  Planner work is a pure function
    of the query stream (same at any shard width or
    settlement mode), so any drift means plan compilation, leg dedup or
    the intersection semantics changed and the baseline must be
    regenerated deliberately.
    """
    if not baseline_path.exists():
        print(f"no range-planner baseline at {baseline_path}; "
              "run run_smoke.py --range and commit the report")
        return 2
    baseline = load_report(baseline_path)
    if "planner" not in baseline:
        print(f"{baseline_path} records no planner section; regenerate it")
        return 2

    if run:
        subprocess.run(
            [sys.executable, str(HERE / "run_smoke.py"), "--range"],
            check=True,
        )
    fresh = load_report(REPORTS / "BENCH_range.json")

    drifted: list[str] = []
    for section in ("planner", "counters", "histograms"):
        base_sec = baseline.get(section, {})
        fresh_sec = fresh.get(section, {})
        drifted += sorted(
            f"{section}.{name}"
            for name in set(base_sec) | set(fresh_sec)
            if base_sec.get(name) != fresh_sec.get(name)
        )

    planner = fresh.get("planner", {})
    lines = [
        "Range-planner determinism check (plan stream vs committed baseline)",
        "",
        f"planner: plans={planner.get('planner.plans')} "
        f"legs={planner.get('planner.legs')} "
        f"dedup_saved={planner.get('planner.dedup_saved')} "
        f"intersect_dropped={planner.get('planner.intersect_dropped')}",
        f"counters compared: {len(set(baseline.get('counters', {})) | set(fresh.get('counters', {})))}",
        f"histograms compared: {len(set(baseline.get('histograms', {})) | set(fresh.get('histograms', {})))}",
    ]
    if drifted:
        lines += ["", "DRIFTED:"] + [f"  {name}" for name in drifted]
    else:
        lines.append(
            "every planner counter, kernel counter and histogram identical "
            "to baseline"
        )
    text = "\n".join(lines)
    print(text)
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / "range_check.txt").write_text(text + "\n")
    (REPORTS / "range_check.json").write_text(
        json.dumps(
            {
                "baseline": str(baseline_path),
                "planner": planner,
                "drifted": drifted,
                "ok": not drifted,
            },
            indent=2,
        )
        + "\n"
    )
    if drifted:
        print("\nFAIL: range-planner counters drifted from the committed "
              f"baseline: {', '.join(drifted)}")
        return 1
    print("\nOK: range planner reproduces the committed baseline exactly")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="gate on exact chaos-counter equality vs reports/BENCH_chaos.json",
    )
    parser.add_argument(
        "--settlement",
        action="store_true",
        help="gate block-mode settlement on bit-for-bit counter/ledger "
        "equality vs reports/BENCH_settlement_sync.json",
    )
    parser.add_argument(
        "--restart",
        action="store_true",
        help="gate the warm-restart smoke on bit-for-bit counter/leg "
        "equality vs reports/BENCH_warm_restart.json",
    )
    parser.add_argument(
        "--range",
        action="store_true",
        dest="range_planner",
        help="gate the range-planner smoke on bit-for-bit planner/counter "
        "equality vs reports/BENCH_range.json",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=REPORTS / "BENCH_smoke.json",
        help="committed baseline report (default: reports/BENCH_smoke.json)",
    )
    parser.add_argument(
        "--ratio",
        type=float,
        default=RATIO_LIMIT,
        help=f"wall-clock slowdown factor worth flagging (default {RATIO_LIMIT})",
    )
    parser.add_argument(
        "--miss-ratio",
        type=float,
        default=MISS_RATIO_LIMIT,
        help=f"cache miss-count inflation that fails the check (default {MISS_RATIO_LIMIT})",
    )
    parser.add_argument(
        "--strict-timing",
        action="store_true",
        help="fail on wall-clock regressions too (same-machine baselines only)",
    )
    parser.add_argument(
        "--no-run",
        action="store_true",
        help="skip re-running run_smoke.py; compare the report already on disk",
    )
    parser.add_argument(
        "--exact-counters",
        action="store_true",
        help="fail on ANY counter/histogram difference vs the baseline "
        "(the CI determinism gate)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="re-run the smoke through a sharded serving tier of this width; "
        "the counter gate still compares against the (single-cloud) baseline "
        "— the tier must do identical protocol work",
    )
    args = parser.parse_args(argv)

    if args.chaos:
        baseline = args.baseline
        if baseline == REPORTS / "BENCH_smoke.json":  # the non-chaos default
            baseline = REPORTS / "BENCH_chaos.json"
        return chaos_check(baseline, run=not args.no_run)

    if args.settlement:
        baseline = args.baseline
        if baseline == REPORTS / "BENCH_smoke.json":  # the non-settlement default
            baseline = REPORTS / "BENCH_settlement_sync.json"
        return settlement_check(baseline, run=not args.no_run)

    if args.restart:
        baseline = args.baseline
        if baseline == REPORTS / "BENCH_smoke.json":  # the non-restart default
            baseline = REPORTS / "BENCH_warm_restart.json"
        return restart_check(baseline, run=not args.no_run)

    if args.range_planner:
        baseline = args.baseline
        if baseline == REPORTS / "BENCH_smoke.json":  # the non-range default
            baseline = REPORTS / "BENCH_range.json"
        return range_check(baseline, run=not args.no_run)

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run run_smoke.py and commit the report")
        return 2
    baseline = load_report(args.baseline)  # read BEFORE the run overwrites it

    if not args.no_run:
        cmd = [sys.executable, str(HERE / "run_smoke.py")]
        if args.shards > 1:
            cmd += ["--shards", str(args.shards)]
        subprocess.run(cmd, check=True)
    fresh = load_report(REPORTS / "BENCH_smoke.json")

    timing_rows = compare_timings(
        baseline.get("metrics", {}), fresh.get("metrics", {}), args.ratio, ABS_FLOOR_S
    )
    counters_comparable = bool(baseline.get("counters")) and bool(fresh.get("counters"))
    if counters_comparable:
        counter_note = "comparable: deterministic counters, any serving shape"
    else:
        counter_note = "informational: baseline predates counter reporting"
    counter_rows = compare_counters(
        baseline.get("counters", {}), fresh.get("counters", {}), args.miss_ratio
    )

    text = render(
        timing_rows, counter_rows, args.ratio, counters_comparable, counter_note,
        args.strict_timing,
    )

    counter_regressions = (
        [r for r in counter_rows if r["regressed"]] if counters_comparable else []
    )
    timing_regressions = [r for r in timing_rows if r["slow"]] if args.strict_timing else []
    timing_warnings = [r for r in timing_rows if r["slow"]]

    exact_drift: list[str] = []
    if args.exact_counters and counters_comparable:
        for section in ("counters", "histograms"):
            base_sec = baseline.get(section, {})
            fresh_sec = fresh.get(section, {})
            exact_drift += sorted(
                f"{section}.{name}"
                for name in set(base_sec) | set(fresh_sec)
                if base_sec.get(name) != fresh_sec.get(name)
            )
        if exact_drift:
            text += (
                "\n\nExact-counter gate: DRIFTED\n  "
                + "\n  ".join(exact_drift)
            )
        else:
            text += (
                "\n\nExact-counter gate: ok "
                "(every counter and value-histogram identical to baseline)"
            )
    print(text)
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / "regression_check.txt").write_text(text + "\n")
    (REPORTS / "regression_check.json").write_text(
        json.dumps(
            {
                "ratio_limit": args.ratio,
                "abs_floor_s": ABS_FLOOR_S,
                "miss_ratio_limit": args.miss_ratio,
                "strict_timing": args.strict_timing,
                "counters_comparable": counters_comparable,
                "counter_note": counter_note,
                "exact_counters": args.exact_counters,
                "exact_drift": exact_drift,
                "timing_rows": timing_rows,
                "counter_rows": counter_rows,
                "regressed": [r["cache"] for r in counter_regressions]
                + [r["metric"] for r in timing_regressions],
                "timing_warnings": [r["metric"] for r in timing_warnings],
                "ok": not (counter_regressions or timing_regressions or exact_drift),
            },
            indent=2,
        )
        + "\n"
    )

    if counter_regressions or timing_regressions or exact_drift:
        names = ", ".join(
            [r["cache"] for r in counter_regressions]
            + [r["metric"] for r in timing_regressions]
            + exact_drift
        )
        print(f"\nFAIL: {names} regressed vs baseline")
        return 1
    if timing_warnings:
        names = ", ".join(r["metric"] for r in timing_warnings)
        print(
            f"\nOK (with warnings): {names} slower than {args.ratio:.1f}x baseline "
            "wall-clock — informational on cross-machine baselines"
        )
        return 0
    print("\nOK: no counter or timing metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
