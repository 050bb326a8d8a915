#!/usr/bin/env python
"""Shard scaling sweep: serving-tier width x workload skew.

For every cell (N shards x workload) the sweep first asserts that the
scatter/gather tier's merged responses are **byte-identical** to a
single-cloud reference serving the same token streams — correctness is a
precondition of every timing this file reports — then times the search
loop and records the per-shard routing counters:

* ``tokens_per_shard`` / ``entries_per_shard`` — how the collect work
  actually split (``shard.route.{tokens,entries}.s<K>``).  Under the
  uniform workload at N=4 the per-shard token share must scale ~1/N
  (asserted within a tolerance band);
* ``imbalance`` — max/mean tokens per shard, the hot-shard number.  The
  ``hot`` workload steers ~80% of queries onto one shard via
  :class:`~repro.workloads.ShardSkew`, so its imbalance approaches N while
  the uniform workload's stays near 1 — the regime where adding shards
  stops paying;
* ``collect_probes`` — total index probes, identical at every N (the tier
  partitions the work, it never repeats it).

Kernel memo caches are process-global, so every cell starts cold
(``kernels.clear_caches()`` + registry reset) to keep counters comparable.

Usage:  PYTHONPATH=src python benchmarks/bench_shard_scaling.py
"""

from __future__ import annotations

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _harness import bench_params, write_report  # noqa: E402
from repro.analysis.reporting import render_kv_table  # noqa: E402
from repro.common.rng import default_rng  # noqa: E402
from repro.common.timing import time_call  # noqa: E402
from repro.core import wire  # noqa: E402
from repro.core.cloud import CloudServer  # noqa: E402
from repro.core.owner import DataOwner  # noqa: E402
from repro.core.params import KeyBundle  # noqa: E402
from repro.core.query import MatchCondition, Query  # noqa: E402
from repro.core.user import DataUser  # noqa: E402
from repro.crypto import kernels  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.sharding import HashShardPlan, ShardedCloudFrontend  # noqa: E402
from repro.sharding.plan import equality_route  # noqa: E402
from repro.workloads import ShardSkew, WorkloadGenerator, WorkloadSpec  # noqa: E402

SHARD_COUNTS = [1, 2, 4, 8]
WORKLOADS = ["uniform", "hot"]
N_RECORDS = 160
N_QUERIES = 32
BITS = 8
HOT_FRACTION = 0.8


def make_queries(workload: str, shards: int, prf_key: bytes, stored: list[int]):
    """The cell's query stream (deterministic per (workload, shards))."""
    rng = default_rng(777)
    if workload == "uniform":
        # Equality on *stored* values: every query does real collect work,
        # and the stream is shard-count independent (byte-identity vs N=1).
        return [
            Query(stored[rng.randint_below(len(stored))], MatchCondition.EQUAL)
            for _ in range(N_QUERIES)
        ]
    # Hot-shard skew: ~HOT_FRACTION of queries steered onto shard 0 by
    # rejection sampling against the real routing function.
    plan = HashShardPlan(shards)
    skew = ShardSkew(shards=shards, hot_shard=0, hot_fraction=HOT_FRACTION)
    generator = WorkloadGenerator(rng)
    return generator.sharded_queries(
        N_QUERIES, BITS, skew, equality_route(prf_key, BITS, plan)
    )


def run_cell(params, keys, database, workload: str, shards: int) -> dict:
    kernels.clear_caches()
    REGISTRY.reset()

    plan = HashShardPlan(shards)
    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    owner.shard_plan = plan
    out = owner.build(database)
    frontend = ShardedCloudFrontend(params, keys.trapdoor.public, plan)
    frontend.install_shards(out.shard_packages)
    reference = CloudServer(params, keys.trapdoor.public)
    reference.install(out.cloud_package)
    user = DataUser(params, out.user_package, default_rng(5))

    queries = make_queries(workload, shards, keys.prf_key, database.values())
    token_lists = [user.make_tokens(q) for q in queries]

    # Byte-identity before timing: every merged response must equal the
    # single-cloud response for the same tokens, at this exact shard count.
    for tokens in token_lists:
        assert wire.dump_response(frontend.search(tokens)) == wire.dump_response(
            reference.search(tokens)
        ), f"shard tier diverged from single cloud at N={shards} ({workload})"

    # Timed serve on a cold-counter tier (the identity pass warmed caches
    # on both sides equally; counters below come from this loop only).
    REGISTRY.reset()
    search_s, _ = time_call(
        lambda: [frontend.search(tokens) for tokens in token_lists]
    )

    counters = REGISTRY.snapshot()["counters"]
    tokens_per_shard = [
        counters.get(f"shard.route.tokens.s{sid}", 0) for sid in range(shards)
    ]
    entries_per_shard = [
        counters.get(f"shard.route.entries.s{sid}", 0) for sid in range(shards)
    ]
    total_tokens = sum(tokens_per_shard)
    mean = total_tokens / shards if shards else 0
    imbalance = max(tokens_per_shard) / mean if mean else 0.0
    return {
        "workload": workload,
        "shards": shards,
        "search_s": search_s,
        "queries": len(queries),
        "tokens_total": total_tokens,
        "tokens_per_shard": tokens_per_shard,
        "entries_per_shard": entries_per_shard,
        "imbalance_max_over_mean": imbalance,
        "collect_probes": counters.get("cloud.collect.index_probes", 0),
        "collect_prf_evals": counters.get("cloud.collect.prf_evals", 0),
    }


def main() -> int:
    params = bench_params(BITS)
    keys = KeyBundle.generate(default_rng(31337), 1024)
    database = WorkloadGenerator(default_rng(404)).database(
        WorkloadSpec(N_RECORDS, BITS)
    )

    cells = [
        run_cell(params, keys, database, workload, shards)
        for workload in WORKLOADS
        for shards in SHARD_COUNTS
    ]

    by_cell = {(c["workload"], c["shards"]): c for c in cells}
    # The tier partitions collect work, it never repeats it: probe totals
    # are shard-count invariant per workload.
    for workload in WORKLOADS:
        probes = {by_cell[(workload, n)]["collect_probes"] for n in SHARD_COUNTS}
        assert len(probes) == 1, f"collect probes drifted across N ({workload})"
    # Uniform routing at N=4 splits tokens ~1/N: the busiest shard may not
    # carry more than twice its fair share on this fixed stream.
    uniform4 = by_cell[("uniform", 4)]
    fair = uniform4["tokens_total"] / 4
    assert max(uniform4["tokens_per_shard"]) <= 2 * fair, (
        f"uniform routing too lopsided at N=4: {uniform4['tokens_per_shard']}"
    )
    # The hot workload must actually concentrate: its N=4 imbalance exceeds
    # the uniform stream's.
    assert (
        by_cell[("hot", 4)]["imbalance_max_over_mean"]
        > uniform4["imbalance_max_over_mean"]
    ), "ShardSkew failed to concentrate traffic on the hot shard"

    rows = [("cell", "search_s  imbalance  tokens/shard")]
    for cell in cells:
        rows.append(
            (
                f"{cell['workload']}/N={cell['shards']}",
                f"{cell['search_s']:.4f}s  "
                f"{cell['imbalance_max_over_mean']:.2f}  "
                f"{cell['tokens_per_shard']}",
            )
        )
    write_report(
        "shard_scaling",
        render_kv_table("Shard scaling sweep (byte-identity asserted per cell)", rows),
        data={
            "config": {
                "records": N_RECORDS,
                "queries": N_QUERIES,
                "value_bits": BITS,
                "shard_counts": SHARD_COUNTS,
                "workloads": WORKLOADS,
                "hot_fraction": HOT_FRACTION,
            },
            "cells": cells,
            "byte_identity_vs_single_cloud": True,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
