"""Golden outputs of every paid-search entry point, pinned field by field.

Each cell drives one entry point (``search``, ``batch_search``,
``search_plans``) under one delivery (direct, chaos) and one settlement
mode (sync, block) on a fixed seed, and records what an operator sees:

* every audit record, every field including the extras (``batch_size``,
  ``batch_settle_gas``, ``block``, ``shards``, ``fault_step``);
* the value-deterministic histogram deltas (sizes, gas, attempts);
* the protocol counters the entry points drive (``batch.*``, ``chaos.*``,
  ``retry.*``, ``contract.*``, ``planner.*``, block production, routing);
* the span tree (names, parents, status, attributes, event names);
* each outcome (query id, verdict, decrypted IDs, height, attempts, error).

The expectations live in ``golden_pipeline.json`` next to this file.  To
regenerate them after a deliberate behaviour change, run::

    PYTHONPATH=src python tests/integration/test_pipeline_golden.py --write
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
from dataclasses import asdict

import pytest

from repro.chaos import ChaosTransport, FaultPlan, FaultProfile, profile_named
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core.cloud import MaliciousCloud, Misbehavior
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.query import Query
from repro.core.records import make_database
from repro.obs import audit as obs_audit
from repro.obs import metrics, trace
from repro.planner import And, Range
from repro.system import SlicerSystem

GOLDEN = pathlib.Path(__file__).with_name("golden_pipeline.json")

VALUES = [7, 7, 9, 40, 41, 64, 3, 200, 128, 12]
QUERIES = [Query.parse(7, "="), Query.parse(40, ">"), Query.parse(101, "=")]
PLANS = [Range(5, 64), And(Range(0, 100), Range(7, 200)), Range(7, 7)]
PAYMENT = 5000

#: Counter families the entry points drive; all are per-deployment state,
#: so they are exact for a fresh system on a fixed seed.
COUNTER_PREFIXES = (
    "audit.",
    "batch.",
    "blocks.",
    "chaos.",
    "contract.",
    "mempool.",
    "planner.",
    "retry.",
    "shard.",
)

BLACK_HOLE = FaultProfile(name="black_hole", drop=1000, force_clean_after=1000)


@functools.lru_cache(maxsize=1)
def _keys() -> KeyBundle:
    return KeyBundle.generate(default_rng(1234), trapdoor_bits=512)


def _params() -> SlicerParams:
    return SlicerParams.testing(value_bits=8)


def _system(settlement="sync", transport=None, shards=1, malicious=None) -> SlicerSystem:
    params = _params()
    owner = DataOwner(params, keys=_keys(), rng=default_rng(7))
    system = SlicerSystem(
        params,
        rng=default_rng(7),
        owner=owner,
        transport=transport,
        shards=shards,
        settlement_mode=settlement,
    )
    if malicious is not None:
        system.cloud = MaliciousCloud(
            params, owner.keys.trapdoor.public, malicious, default_rng(11)
        )
    system.setup(make_database([(f"rec-{i}", v) for i, v in enumerate(VALUES)], bits=8))
    return system


def _chaos(profile, seed=9):
    return ChaosTransport(FaultPlan(profile, seed=seed))


def _searches(system):
    return [system.search(q, payment=PAYMENT) for q in QUERIES]


def _batch(system):
    return system.batch_search([*QUERIES, QUERIES[0]], payment=PAYMENT)


def _plans(system):
    return [leg for plan in system.search_plans(PLANS, payment=PAYMENT) for leg in plan.legs]


#: cell name -> (system factory, function running it and returning the per-escrow outcomes).
CELLS = {
    "search-sync-direct": (lambda: _system(), _searches),
    "search-block-direct": (lambda: _system("block"), _searches),
    "search-sync-chaos": (
        lambda: _system(transport=_chaos(profile_named("lossy"))),
        _searches,
    ),
    "search-block-chaos": (
        lambda: _system("block", transport=_chaos(profile_named("crash_restart"))),
        _searches,
    ),
    "search-sync-refund": (
        lambda: _system(malicious=Misbehavior.DROP_ENTRY),
        _searches,
    ),
    "search-degraded": (
        lambda: _system(transport=_chaos(BLACK_HOLE, seed=3)),
        lambda s: [s.search(QUERIES[0], payment=PAYMENT)],
    ),
    "batch-sync": (lambda: _system(), _batch),
    "batch-block": (lambda: _system("block"), _batch),
    "plans-sync-1": (lambda: _system(), _plans),
    "plans-block-1": (lambda: _system("block"), _plans),
    "plans-sync-4": (lambda: _system(shards=4), _plans),
    "plans-block-4": (lambda: _system("block", shards=4), _plans),
}


def _histograms() -> dict:
    return metrics.REGISTRY.deterministic_snapshot()["histograms"]


def _delta(before: dict, after: dict) -> dict:
    out = {}
    for name, snap in after.items():
        prev = before.get(name)
        buckets = list(snap["buckets"])
        count, total = snap["count"], snap["sum"]
        if prev is not None:
            buckets = [a - b for a, b in zip(buckets, prev["buckets"])]
            count -= prev["count"]
            total -= prev["sum"]
        if count:
            out[name] = {
                "buckets": {str(i): n for i, n in enumerate(buckets) if n},
                "count": count,
                "sum": total,
            }
    return out


def _counters() -> dict:
    return {
        k: v
        for k, v in perfstats.STATS.snapshot().items()
        if k.startswith(COUNTER_PREFIXES)
    }


def _span_tree(spans: list[dict]) -> list:
    names = {s["span_id"]: s["name"] for s in spans}
    return [
        [
            s["name"],
            names.get(s["parent_id"]),
            s["status"],
            {k: v for k, v in sorted(s["attrs"].items())},
            [e["event"] for e in s["events"]],
        ]
        for s in spans
    ]


def _outcome(outcome) -> dict:
    return {
        "query_id": outcome.query_id,
        "verified": outcome.verified,
        "record_ids": sorted(r.hex() for r in outcome.record_ids),
        "settle_height": outcome.settle_height,
        "attempts": outcome.attempts,
        "error": outcome.error,
        "submit_gas": outcome.submit_receipt.gas_used if outcome.submit_receipt else None,
        "settle_gas": outcome.settle_receipt.gas_used if outcome.settle_receipt else None,
    }


def run_cell(name: str) -> dict:
    """Run one cell from a fresh system; everything it observably produced."""
    make, drive = CELLS[name]
    metrics.set_obs_enabled(True)
    try:
        system = make()
        trace.TRACER.reset()
        obs_audit.AUDIT_LOG.reset()
        hist_before = _histograms()
        counters_before = _counters()
        outcomes = drive(system)
        counters_after = _counters()
        return {
            "audit": [asdict(r) for r in obs_audit.AUDIT_LOG.records()],
            "histograms": _delta(hist_before, _histograms()),
            "counters": {
                k: v - counters_before.get(k, 0)
                for k, v in sorted(counters_after.items())
                if v != counters_before.get(k, 0)
            },
            "spans": _span_tree(trace.TRACER.export()),
            "outcomes": [_outcome(o) for o in outcomes],
            "balances": system.balances(),
        }
    finally:
        metrics.set_obs_enabled(None)
        trace.TRACER.reset()
        obs_audit.AUDIT_LOG.reset()


def _normalise(value):
    """JSON round-trip, so tuples/ints compare as the golden file stores them."""
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_matches_golden(cell, golden):
    assert _normalise(run_cell(cell)) == golden[cell]


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_pipeline_golden.py --write")
    data = {name: _normalise(run_cell(name)) for name in sorted(CELLS)}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cells to {GOLDEN}")
