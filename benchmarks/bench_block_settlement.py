#!/usr/bin/env python
"""Block settlement bench: one block per round vs per-query settlement.

Settling a block's worth of escrows moves amortisation from the
transaction (sync mode's ``batch_verify_and_settle``) to the *block*,
keeping each verdict individually provable from the header's settlement
root.

Byte-identity is a precondition of every timing this file reports: the
block-mode batch responses must equal the per-query sync responses byte
for byte, with equal verdicts and final balances, before either flow is
timed.

Kernel memo caches are process-global, so each leg starts cold
(``kernels.clear_caches()`` + registry reset) to keep counters comparable.

Usage:  PYTHONPATH=src python benchmarks/bench_block_settlement.py
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
from repro.core.owner import DataOwner  # noqa: E402
from repro.core.params import KeyBundle  # noqa: E402
from repro.core.query import Query  # noqa: E402
from repro.crypto import kernels  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.system import SlicerSystem  # noqa: E402
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec  # noqa: E402

N_RECORDS = 120
BITS = 8

#: One block's worth of settlements: equality hits, range scans, a miss.
QUERIES = [
    Query.parse(64, ">"),
    Query.parse(64, "<"),
    Query.parse(200, ">"),
    Query.parse(32, "<"),
    Query.parse(101, "="),
    Query.parse(128, ">"),
]


def fresh_system(keys, mode: str) -> SlicerSystem:
    kernels.clear_caches()
    REGISTRY.reset()
    params = bench_params(BITS)
    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    system = SlicerSystem(
        params, rng=default_rng(5), owner=owner, settlement_mode=mode
    )
    system.setup(WorkloadGenerator(default_rng(404)).database(WorkloadSpec(N_RECORDS, BITS)))
    return system


def main() -> int:
    keys = KeyBundle.generate(default_rng(31337), 1024)

    # Identity pass (untimed): the block-mode batch must produce the same
    # responses and verdicts as per-query sync settlement, and leave the
    # same balances behind.
    sync_probe = fresh_system(keys, "sync")
    sync_ref = [sync_probe.search(q) for q in QUERIES]
    block_probe = fresh_system(keys, "block")
    block_ref = block_probe.batch_search(QUERIES)
    assert [wire.dump_response(o.response) for o in block_ref] == [
        wire.dump_response(o.response) for o in sync_ref
    ], "block-mode batch responses drifted from per-query sync responses"
    assert [o.verified for o in block_ref] == [o.verified for o in sync_ref]
    assert block_probe.balances() == sync_probe.balances(), (
        "block-mode escrow arithmetic drifted from sync"
    )

    # Timed flows on cold caches (the identity pass warmed both equally).
    per_query = fresh_system(keys, "sync")
    sync_height_before = per_query.chain.height
    per_query_s, sync_outcomes = time_call(
        lambda: [per_query.search(q) for q in QUERIES]
    )
    sync_settle_gas = sum(o.settle_receipt.gas_used for o in sync_outcomes)
    sync_blocks = per_query.chain.height - sync_height_before

    batched = fresh_system(keys, "block")
    height_before = batched.chain.height
    batched_s, block_outcomes = time_call(lambda: batched.batch_search(QUERIES))
    block_settle_gas = sum(o.settle_receipt.gas_used for o in block_outcomes)
    settle_blocks = len({o.settle_height for o in block_outcomes})
    assert settle_blocks == 1, "one block must carry the whole round"

    metrics = {
        "queries": len(QUERIES),
        "records": N_RECORDS,
        "value_bits": BITS,
        "per_query_flow_s": per_query_s,
        "block_flow_s": batched_s,
        "sync_settle_gas": sync_settle_gas,
        "block_settle_gas": block_settle_gas,
        "settle_blocks": settle_blocks,
        "sync_blocks_mined": sync_blocks,
        "block_blocks_mined": batched.chain.height - height_before,
        "byte_identity_vs_sync": True,
    }
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}" if isinstance(v, float) else str(v)) for k, v in metrics.items()
    ]
    write_report(
        "block_settlement",
        render_kv_table("Block settlement bench (byte-identity asserted)", rows),
        data={
            "config": {
                "records": N_RECORDS,
                "queries": len(QUERIES),
                "value_bits": BITS,
            },
            "metrics": metrics,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
