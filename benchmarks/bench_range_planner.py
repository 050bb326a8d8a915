#!/usr/bin/env python
"""Range planner sweep: selectivity x strategy, byte-identity before timing.

For every selectivity cell (paper-style 0.1% / 1% / 10% of a 16-bit
domain) a Zipf-hot stream of range plans is compiled and served three
ways, over the SAME token lists (generated once per cell):

* **planner** — every leg of the whole stream in ONE
  :meth:`CloudServer.search_many` batch: identical tokens across legs and
  plans walk the trapdoor chain once (`collection passes` = the batch-wide
  unique token count);
* **naive per-leg** — a planner-less client looping
  :meth:`CloudServer.search` per leg: dedup only within one leg, so every
  repeat of a hot plan pays its walks again (passes = summed per-leg
  unique counts);
* **per-point / dyadic** — comparison columns only: the legs an
  equality-only client would issue (one per in-range value) and the
  dyadic nodes a range-tree SSE client would touch
  (:func:`~repro.baselines.range_tree_sse.canonical_cover`).

Per-leg responses from the planner batch are asserted byte-identical to
the naive loop — and the decrypted, intersected per-plan ID sets equal
the plaintext oracle — before any timing is reported.  A final
system-level cell runs the same stream through
:meth:`SlicerSystem.search_plans` and asserts the ``planner.*`` counters
(``planner.dedup_saved > 0``) that the CI range gate pins.

Usage:  PYTHONPATH=src python benchmarks/bench_range_planner.py
"""

from __future__ import annotations

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _harness import bench_params, write_report  # noqa: E402
from repro.analysis.reporting import render_kv_table  # noqa: E402
from repro.baselines.range_tree_sse import canonical_cover  # noqa: E402
from repro.common.rng import default_rng  # noqa: E402
from repro.common.timing import time_call  # noqa: E402
from repro.core import wire  # noqa: E402
from repro.core.cloud import CloudServer  # noqa: E402
from repro.core.owner import DataOwner  # noqa: E402
from repro.core.params import KeyBundle  # noqa: E402
from repro.core.user import DataUser  # noqa: E402
from repro.crypto import kernels  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.planner import compile_plans  # noqa: E402
from repro.system import SlicerSystem  # noqa: E402
from repro.workloads import RangeWorkload, WorkloadGenerator, WorkloadSpec  # noqa: E402

BITS = 16
N_RECORDS = 96
N_PLANS = 12
POOL_SIZE = 4
SELECTIVITIES = [0.001, 0.01, 0.1]
CONJUNCTIVE_SELECTIVITY = 0.01
TARGET_SPEEDUP_AT_1PCT = 2.0


def unique_count(token_lists) -> int:
    seen = {}
    for tokens in token_lists:
        for token in tokens:
            seen[token] = None
    return len(seen)


def build_world(params, keys, database):
    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    out = owner.build(database)
    cloud = CloudServer(params, keys.trapdoor.public)
    cloud.install(out.cloud_package)
    user = DataUser(params, out.user_package, default_rng(5))
    return cloud, user


def plan_stream(selectivity: float, fan_in: int, attributes):
    generator = WorkloadGenerator(default_rng(777))
    workload = RangeWorkload(
        selectivity=selectivity, fan_in=fan_in, pool_size=POOL_SIZE
    )
    return generator.range_plans(N_PLANS, BITS, workload, attributes=attributes)


def run_cell(params, keys, database, selectivity: float, fan_in: int = 1) -> dict:
    kernels.clear_caches()
    REGISTRY.reset()
    cloud, user = build_world(params, keys, database)

    attributes = ["lat", "lon"] if fan_in > 1 else None
    exprs = plan_stream(selectivity, fan_in, attributes)
    plans = compile_plans(exprs, BITS)
    flat_legs = [leg for plan in plans for leg in plan.legs]
    # Tokens minted ONCE and shared by every strategy: the comparison is
    # about serving, not token generation.
    token_lists = [user.make_tokens(leg) for leg in flat_legs]

    # ---- byte-identity before timing -----------------------------------
    naive_responses = [cloud.search(tokens) for tokens in token_lists]
    planner_responses = cloud.search_many(token_lists)
    for leg_index, (naive, planned) in enumerate(
        zip(naive_responses, planner_responses)
    ):
        assert wire.dump_response(planned) == wire.dump_response(naive), (
            f"planner leg {leg_index} diverged from the naive per-leg serve"
        )
    # ...and the intersected per-plan answers equal the plaintext oracle.
    cursor = 0
    for plan in plans:
        ids = None
        for response in planner_responses[cursor : cursor + len(plan.legs)]:
            leg_ids = user.decrypt_results(response)
            ids = leg_ids if ids is None else ids & leg_ids
        cursor += len(plan.legs)
        assert ids == plan.oracle_ids(database), (
            f"plan {plan.describe()} answered wrong IDs"
        )

    # ---- collection passes (the dedup claim, deterministic) ------------
    naive_passes = sum(len(dict.fromkeys(tokens)) for tokens in token_lists)
    planner_passes = unique_count(token_lists)

    # ---- timing on the identity-warmed cloud ---------------------------
    naive_s, _ = time_call(
        lambda: [cloud.search(tokens) for tokens in token_lists]
    )
    planner_s, _ = time_call(lambda: cloud.search_many(token_lists))

    # Comparison columns: what other clients would issue for the same
    # post-merge intervals.
    per_point_legs = sum(
        hi - lo + 1 for plan in plans for _, lo, hi in plan.intervals
    )
    dyadic_nodes = sum(
        len(canonical_cover(lo, hi, BITS))
        for plan in plans
        for _, lo, hi in plan.intervals
    )
    return {
        "selectivity": selectivity,
        "fan_in": fan_in,
        "plans": len(plans),
        "legs": len(flat_legs),
        "merged_away": sum(plan.merged_away for plan in plans),
        "tokens_total": sum(len(t) for t in token_lists),
        "collection_passes_naive": naive_passes,
        "collection_passes_planner": planner_passes,
        "passes_saved": naive_passes - planner_passes,
        "passes_speedup": naive_passes / planner_passes if planner_passes else 0.0,
        "naive_search_s": naive_s,
        "planner_search_s": planner_s,
        "per_point_legs": per_point_legs,
        "dyadic_cover_nodes": dyadic_nodes,
        "byte_identity": True,
    }


def run_system_cell(params, keys, database) -> dict:
    """The 1% stream through the full system: planner counters pinned."""
    kernels.clear_caches()
    REGISTRY.reset()
    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    system = SlicerSystem(params, rng=default_rng(11), owner=owner)
    system.setup(database)
    exprs = plan_stream(0.01, 1, None)
    outcomes = system.search_plans(exprs)
    assert all(out.verified for out in outcomes), "honest plan legs must verify"
    counters = REGISTRY.deterministic_snapshot()["counters"]
    planner = {k: v for k, v in counters.items() if k.startswith("planner.")}
    assert planner["planner.dedup_saved"] > 0, (
        "the Zipf-hot stream must repeat legs for the planner to dedup"
    )
    assert planner["planner.plans"] == len(exprs)
    return planner


def main() -> int:
    params = bench_params(BITS)
    keys = KeyBundle.generate(default_rng(31337), 1024)
    generator = WorkloadGenerator(default_rng(404))
    database = generator.database(WorkloadSpec(N_RECORDS, BITS))
    attributed = WorkloadGenerator(default_rng(404)).attributed_database(
        N_RECORDS,
        {"lat": WorkloadSpec(N_RECORDS, BITS), "lon": WorkloadSpec(N_RECORDS, BITS)},
    )

    cells = [run_cell(params, keys, database, s) for s in SELECTIVITIES]
    cells.append(
        run_cell(params, keys, attributed, CONJUNCTIVE_SELECTIVITY, fan_in=2)
    )
    planner_counters = run_system_cell(params, keys, database)

    one_pct = next(c for c in cells if c["selectivity"] == 0.01 and c["fan_in"] == 1)
    assert one_pct["passes_speedup"] >= TARGET_SPEEDUP_AT_1PCT, (
        f"planner saved only {one_pct['passes_speedup']:.2f}x collection passes "
        f"at 1% selectivity (target {TARGET_SPEEDUP_AT_1PCT}x)"
    )

    rows = [("cell", "passes naive->planner (speedup)  legs  per-point  dyadic")]
    for cell in cells:
        label = f"sel={cell['selectivity']:g}" + (
            f"/fan_in={cell['fan_in']}" if cell["fan_in"] > 1 else ""
        )
        rows.append(
            (
                label,
                f"{cell['collection_passes_naive']}->"
                f"{cell['collection_passes_planner']} "
                f"({cell['passes_speedup']:.2f}x)  {cell['legs']}  "
                f"{cell['per_point_legs']}  {cell['dyadic_cover_nodes']}",
            )
        )
    write_report(
        "range_planner",
        render_kv_table(
            "Range planner sweep (byte-identity asserted per cell)", rows
        ),
        data={
            "config": {
                "records": N_RECORDS,
                "plans": N_PLANS,
                "pool_size": POOL_SIZE,
                "value_bits": BITS,
                "selectivities": SELECTIVITIES,
                "conjunctive_selectivity": CONJUNCTIVE_SELECTIVITY,
                "target_speedup_at_1pct": TARGET_SPEEDUP_AT_1PCT,
            },
            "cells": cells,
            "planner_counters": planner_counters,
            "byte_identity_vs_naive_legs": True,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
