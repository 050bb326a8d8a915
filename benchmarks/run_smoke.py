#!/usr/bin/env python
"""Smoke scenario table: every small Slicer flow, gated bit for bit.

Each row of :data:`CELLS` runs one small end-to-end flow (Build / Search
/ Insert, settle, verify against ``Ac``), asserts its own invariants
(every search verified, oracle-exact answers, byte-identical repeats)
and then compares named sections of its report *exactly* against a
committed baseline under ``reports/``; a cell that writes an audit log
also compares it byte for byte with the committed ``AUDIT_*.jsonl``.  Everything compared is
machine-independent: deterministic counters, value-histograms and
settlement-ledger totals are a pure function of the seeds, so there is
no tolerance band and no wall-clock gate — any drift is a behaviour
change, and the baseline is regenerated deliberately or not at all.

Fresh reports, traces and audit logs go under ``--out`` (default: the
git-ignored ``reports/fresh/``), never over a committed baseline.  To
regenerate the baselines on purpose, pass ``--out benchmarks/reports``.

Usage:  PYTHONPATH=src python benchmarks/run_smoke.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _harness import FRESH_DIR, REPORT_DIR, bench_params, write_report  # noqa: E402
from repro.analysis.reporting import render_kv_table  # noqa: E402
from repro.chaos import ChaosTransport, FaultPlan, profile_named  # noqa: E402
from repro.common import perfstats  # noqa: E402
from repro.common.rng import default_rng  # noqa: E402
from repro.common.timing import time_call  # noqa: E402
from repro.core import wire  # noqa: E402
from repro.core.cloud import CloudServer  # noqa: E402
from repro.core.owner import DataOwner  # noqa: E402
from repro.core.params import KeyBundle, SlicerParams  # noqa: E402
from repro.core.query import Query  # noqa: E402
from repro.core.user import DataUser  # noqa: E402
from repro.core.verify import verify_response  # noqa: E402
from repro.crypto import kernels, modmath  # noqa: E402
from repro.obs import audit as obs_audit  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.sharding import HashShardPlan, ShardedCloudFrontend  # noqa: E402
from repro.system import SlicerSystem  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    RangeWorkload,
    WorkloadGenerator,
    WorkloadSpec,
)

BASELINES = REPORT_DIR
DEFAULT_OUT = FRESH_DIR

N_RECORDS = 120
N_INSERT = 30
BITS = 8

#: Report keys a cell varies on purpose, so no baseline can pin them:
#: settlement-block gates against the *sync* ledger.
UNGATED = {"settlement.mode"}


def _queries() -> list[Query]:
    return [Query.parse(64, ">"), Query.parse(64, "<"), Query.parse(200, ">")]


@dataclass
class Setup:
    params: SlicerParams
    keys: KeyBundle
    owner: DataOwner
    generator: WorkloadGenerator


def _setup(out: pathlib.Path, tag: str, audit: bool = False) -> Setup:
    """Cold process state and JSONL sinks, plus the shared fixtures.

    Every cell uses the same seeds for keys, owner and workload, so cells
    that run the same protocol flow record the same deterministic work.
    The kernel memos are process-global: left warm by an earlier cell,
    they would turn its misses into hits in this cell's gated counters.
    """
    out.mkdir(parents=True, exist_ok=True)
    kernels.clear_caches()

    def sink(filename: str) -> str:
        path = out / filename
        path.write_text("")  # sinks append per record
        return str(path)

    REGISTRY.reset()
    trace.TRACER.reset()
    trace.TRACER.set_sink(sink(f"TRACE_{tag}.jsonl"))
    obs_audit.AUDIT_LOG.reset()
    obs_audit.AUDIT_LOG.set_sink(sink(f"AUDIT_{tag}.jsonl") if audit else None)
    params = bench_params(BITS)
    keys = KeyBundle.generate(default_rng(31337), 1024)
    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    return Setup(params, keys, owner, WorkloadGenerator(default_rng(404)))


@dataclass
class Report:
    """One flow's fresh report: ``data`` is the JSON twin's body."""

    name: str
    title: str
    data: dict
    rows: list[tuple[str, str]] = field(default_factory=list)


def _write(out: pathlib.Path, report: Report) -> dict:
    """Render metrics (+ extra rows), write both twins, return the JSON."""
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}" if isinstance(v, float) else str(v))
        for k, v in report.data["metrics"].items()
    ] + report.rows
    write_report(report.name, render_kv_table(report.title, rows), report.data, out)
    return json.loads((out / f"BENCH_{report.name}.json").read_text())


def plain(out: pathlib.Path, shards: int) -> Report:
    """Build -> search -> warm repeat -> precompute -> insert -> search -> batch.

    Behind ``shards > 1`` the same flow is served by a sharded
    scatter/gather tier: it partitions protocol work without changing it,
    so the recorded snapshot must equal the single-cloud baseline.  The
    tier has no precompute step; owner witnesses already cover every
    prime, so the single cloud's precompute does no counted work either.
    """
    name = "smoke" if shards == 1 else f"smoke_{shards}shard"
    s = _setup(out, name)
    params, keys, owner = s.params, s.keys, s.owner
    database = s.generator.database(WorkloadSpec(N_RECORDS, BITS))

    if shards > 1:
        owner.shard_plan = HashShardPlan(shards)
        cloud = ShardedCloudFrontend(params, keys.trapdoor.public, owner.shard_plan)
    else:
        cloud = CloudServer(params, keys.trapdoor.public)

    def install(package) -> None:
        if shards > 1:
            cloud.install_shards(package.shard_packages)
        else:
            cloud.install(package.cloud_package)

    build_s, built = time_call(lambda: owner.build(database))
    install(built)
    user = DataUser(params, built.user_package, default_rng(5))

    tokens = user.make_tokens(Query.parse(64, ">"))
    search_s, response = time_call(lambda: cloud.search(tokens))
    assert verify_response(params, cloud.ads_value, response).ok, "smoke search failed"

    # Warm repeat: the epoch-suffix entry cache must serve the identical
    # response (this is what puts cloud.entry_cache.{hit,spliced_entries}
    # into the gated counter snapshot).
    repeat_s, repeat = time_call(lambda: cloud.search(tokens))
    assert wire.dump_response(repeat) == wire.dump_response(response), (
        "warm repeat search drifted from the cold response"
    )

    precompute_s = 0.0
    if shards == 1:
        precompute_s, count = time_call(cloud.precompute_witnesses)
        assert count == cloud.prime_count

    add = s.generator.database(WorkloadSpec(N_INSERT, BITS))
    insert_s, inserted = time_call(lambda: owner.insert(add))
    install(inserted)
    user.refresh(inserted.user_package)

    tokens2 = user.make_tokens(Query.parse(64, "<"))
    search2_s, response2 = time_call(lambda: cloud.search(tokens2))
    assert verify_response(params, cloud.ads_value, response2).ok, (
        "post-insert smoke search failed"
    )

    # Batched collection over the union of both queries (one duplicated)
    # must be byte-identical to sequential post-insert searches.  The
    # pre-insert `response` is stale here (inserts change the ADS), so
    # the reference is re-derived.
    reference = cloud.search(tokens)
    batch_s, batch = time_call(lambda: cloud.search_many([tokens, tokens2, tokens]))
    assert [wire.dump_response(r) for r in batch] == [
        wire.dump_response(r) for r in (reference, response2, reference)
    ], "batched search drifted from per-query responses"

    deterministic = REGISTRY.deterministic_snapshot()
    metrics = {
        "build_s": build_s,
        "search_s": search_s,
        "repeat_search_s": repeat_s,
        "precompute_s": precompute_s,
        "insert_s": insert_s,
        "search_after_insert_s": search2_s,
        "batch_search_s": batch_s,
        "records": N_RECORDS,
        "inserted": N_INSERT,
        "value_bits": BITS,
        "primes": cloud.prime_count,
        "shards": shards,
        "modmath_backend": modmath.backend_info()["active"],
        "all_verified": True,
    }
    return Report(
        name,
        "CI smoke benchmark",
        {
            "metrics": metrics,
            # Machine-independent: equal at any shard width and on any
            # modmath backend.  Wall-clock `*_s` histograms are excluded.
            "counters": deterministic["counters"],
            "histograms": deterministic["histograms"],
            "hit_rates": perfstats.rates(),
        },
    )


def chaos(out: pathlib.Path, seed: int, profile: str) -> Report:
    """The full four-party system behind a fault-injecting transport.

    Every search must still settle paid while faults are demonstrably
    injected; (profile, seed) pin the whole fault schedule, so the
    ``chaos.*`` / ``retry.*`` / ``audit.*`` counters reproduce exactly.
    """
    s = _setup(out, "chaos", audit=True)
    transport = ChaosTransport(FaultPlan(profile_named(profile), seed))
    system = SlicerSystem(
        s.params, rng=default_rng(5), owner=s.owner, transport=transport
    )
    setup_s, _ = time_call(
        lambda: system.setup(s.generator.database(WorkloadSpec(N_RECORDS, BITS)))
    )
    outcomes = [system.search(q) for q in _queries()]
    insert_s, _ = time_call(
        lambda: system.insert(s.generator.database(WorkloadSpec(N_INSERT, BITS)))
    )
    outcomes += [system.search(q) for q in _queries()]

    for outcome in outcomes:
        assert outcome.error is None, f"chaos search degraded: {outcome.error}"
        assert outcome.verified, "honest chaos search must settle paid"

    # The audit log must agree with the outcomes, search for search.
    audit_records = obs_audit.AUDIT_LOG.records()
    assert len(audit_records) == len(outcomes), "one audit record per search"
    by_query = {r.query_id: r for r in audit_records}
    for outcome in outcomes:
        record = by_query[str(outcome.query_id)]
        assert record.verdict == "paid", (
            f"audit verdict {record.verdict!r} disagrees with verified outcome"
        )
        assert record.trace_id is not None, "audit entry must link to its trace"

    counters = {
        k: v
        for k, v in REGISTRY.deterministic_snapshot()["counters"].items()
        if k.startswith(("chaos.", "retry.", "audit."))
    }
    injected = sum(v for k, v in counters.items() if k.startswith("chaos.injected."))
    assert injected > 0, f"profile {profile!r} seed {seed} injected no faults"
    assert counters.get("retry.gave_up", 0) == 0, "retry budget must suffice"

    metrics = {
        "setup_s": setup_s,
        "insert_s": insert_s,
        "searches": len(outcomes),
        "records": N_RECORDS,
        "inserted": N_INSERT,
        "value_bits": BITS,
        "virtual_time_s": transport.clock,
        "faults_injected": injected,
        "audit_records": len(audit_records),
        "audit_gas_total": obs_audit.AUDIT_LOG.totals()["gas_total"],
        "all_verified": True,
    }
    return Report(
        "chaos",
        f"Chaos smoke ({profile}, seed {seed})",
        {
            "chaos": {"seed": seed, "profile": profile},
            "metrics": metrics,
            "counters": counters,
            "artifacts": {"trace": "TRACE_chaos.jsonl", "audit": "AUDIT_chaos.jsonl"},
        },
        [(k, str(v)) for k, v in sorted(counters.items())],
    )


def settlement(out: pathlib.Path, mode: str) -> Report:
    """Searches, an insert and more searches, settled sync or per-block.

    Block production moves *when* an escrow settles, never what it pays
    or how much protocol work it takes, so both modes record identical
    counters, histograms and ledger totals.  (Batches are absent on
    purpose: sync batches settle through one amortised receipt, block
    batches per escrow — see ``bench_block_settlement.py``.)
    """
    tag = f"settlement_{mode}"
    s = _setup(out, tag, audit=True)
    system = SlicerSystem(
        s.params, rng=default_rng(5), owner=s.owner, settlement_mode=mode
    )
    setup_s, _ = time_call(
        lambda: system.setup(s.generator.database(WorkloadSpec(N_RECORDS, BITS)))
    )
    search_s, outcomes = time_call(lambda: [system.search(q) for q in _queries()])
    insert_s, _ = time_call(
        lambda: system.insert(s.generator.database(WorkloadSpec(N_INSERT, BITS)))
    )
    search2_s, more = time_call(lambda: [system.search(q) for q in _queries()])
    outcomes += more

    for outcome in outcomes:
        assert outcome.error is None, f"settlement smoke degraded: {outcome.error}"
        assert outcome.verified, "honest settlement smoke must settle paid"

    # Block mode additionally makes every verdict light-client provable:
    # header + inclusion proof, no chain replay.
    proofs_checked = 0
    if mode == "block":
        from repro.blockchain import follow

        client = follow(system.chain)
        for outcome in outcomes:
            assert outcome.settle_height is not None, "missing settle height"
            assert client.check_settlement(system.settlement_proof(outcome)), (
                "light client rejected a settlement proof"
            )
            proofs_checked += 1

    totals = obs_audit.AUDIT_LOG.totals()
    assert totals["records"] == len(outcomes), "one audit record per search"
    assert totals["verdicts"]["paid"] == len(outcomes), "all escrows paid"

    deterministic = REGISTRY.deterministic_snapshot()
    metrics = {
        "setup_s": setup_s,
        "search_s": search_s,
        "insert_s": insert_s,
        "search_after_insert_s": search2_s,
        "searches": len(outcomes),
        "records": N_RECORDS,
        "inserted": N_INSERT,
        "value_bits": BITS,
        "chain_height": system.chain.height,
        "light_client_proofs": proofs_checked,
        "all_verified": True,
    }
    ledger = {
        "mode": mode,
        "verdicts": totals["verdicts"],
        "gas_total": totals["gas_total"],
        "paid_out": totals["paid_out"],
        "refunded": totals["refunded"],
    }
    return Report(
        tag,
        f"Settlement smoke ({mode} mode)",
        {
            "settlement": ledger,
            "metrics": metrics,
            "counters": deterministic["counters"],
            "histograms": deterministic["histograms"],
            "artifacts": {"trace": f"TRACE_{tag}.jsonl", "audit": f"AUDIT_{tag}.jsonl"},
        },
        [
            ("ledger_gas_total", str(totals["gas_total"])),
            ("ledger_paid_out", str(totals["paid_out"])),
        ],
    )


def _deterministic_delta(base: dict) -> dict:
    """Counter delta since ``base``, filtered to the deterministic slice."""
    allowed = set(REGISTRY.deterministic_snapshot()["counters"])
    return {k: v for k, v in perfstats.delta_since(base).items() if k in allowed}


def restart(out: pathlib.Path) -> Report:
    """A cloud reopened from its segment store serves its first repeat warm.

    The never-restarted cloud's warm repeat of the hot query is the
    oracle leg.  Then the cloud checkpoints, every process-global kernel
    memo is cleared (a cold process) and a *fresh* CloudServer reopens
    the store and serves the same query: byte-identical to the oracle,
    zero index probes, zero PRF evals — asserted before any timing.
    """
    s = _setup(out, "restart")
    params, keys, owner = s.params, s.keys, s.owner
    database = s.generator.database(WorkloadSpec(N_RECORDS, BITS))

    store_dir = tempfile.mkdtemp(prefix="slicer-segstore-")
    try:
        cloud = CloudServer(params, keys.trapdoor.public)
        cloud.attach_store(store_dir)
        build_s, built = time_call(lambda: owner.build(database))
        cloud.install(built.cloud_package)
        user = DataUser(params, built.user_package, default_rng(5))

        queries = _queries()
        for query in queries:
            response = cloud.search(user.make_tokens(query))
            assert verify_response(params, cloud.ads_value, response).ok

        add = s.generator.database(WorkloadSpec(N_INSERT, BITS))
        insert_s, inserted = time_call(lambda: owner.insert(add))
        cloud.install(inserted.cloud_package)
        user.refresh(inserted.user_package)

        # Zipf-ish skew: the hot query repeats, the tail runs once.
        hot = user.make_tokens(queries[0])
        for tokens in [hot] + [user.make_tokens(q) for q in queries[1:]]:
            cloud.search(tokens)
        precompute_s, count = time_call(cloud.precompute_witnesses)
        assert count == cloud.prime_count

        # Oracle leg, recorded BEFORE clear_caches() below (which also
        # empties this cloud's entry cache through the kernel registry).
        base = perfstats.snapshot()
        oracle_warm_s, oracle_response = time_call(lambda: cloud.search(hot))
        oracle_delta = _deterministic_delta(base)

        checkpoint_s, _ = time_call(cloud.checkpoint)
        store_bytes = sum(p.stat().st_size for p in pathlib.Path(store_dir).iterdir())

        kernels.clear_caches()
        resumed = CloudServer(params, keys.trapdoor.public)
        # prime_count forces the lazy replay + warm-checkpoint load, so
        # the measured leg below is purely the query.
        reopen_s, _ = time_call(lambda: (resumed.reopen(store_dir), resumed.prime_count))
        base = perfstats.snapshot()
        restart_warm_s, response = time_call(lambda: resumed.search(hot))
        restart_delta = _deterministic_delta(base)

        assert wire.dump_response(response) == wire.dump_response(oracle_response), (
            "restarted cloud's warm leg drifted from the oracle response"
        )
        assert restart_delta.get("cloud.collect.index_probes", 0) == 0, (
            f"warm restart probed the index: {restart_delta}"
        )
        assert restart_delta.get("cloud.collect.prf_evals", 0) == 0, (
            f"warm restart evaluated the PRF: {restart_delta}"
        )
        assert restart_delta == oracle_delta, (
            "restarted warm leg did different deterministic work than the "
            f"oracle leg: {restart_delta} != {oracle_delta}"
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    deterministic = REGISTRY.deterministic_snapshot()
    metrics = {
        "build_s": build_s,
        "insert_s": insert_s,
        "precompute_s": precompute_s,
        "oracle_warm_search_s": oracle_warm_s,
        "checkpoint_s": checkpoint_s,
        "reopen_s": reopen_s,
        "restart_warm_search_s": restart_warm_s,
        "records": N_RECORDS,
        "inserted": N_INSERT,
        "value_bits": BITS,
        "primes": count,
        "segments": 2,
        "store_bytes": store_bytes,
        "modmath_backend": modmath.backend_info()["active"],
        "all_verified": True,
    }
    return Report(
        "warm_restart",
        "Warm-restart smoke benchmark",
        {
            "metrics": metrics,
            "counters": deterministic["counters"],
            "histograms": deterministic["histograms"],
            "restart_leg": {
                "byte_identical": True,
                "index_probes": restart_delta.get("cloud.collect.index_probes", 0),
                "prf_evals": restart_delta.get("cloud.collect.prf_evals", 0),
                "oracle_counters": oracle_delta,
                "restart_counters": restart_delta,
            },
            "artifacts": {"trace": "TRACE_restart.jsonl"},
        },
    )


def range_plans(out: pathlib.Path) -> Report:
    """Zipf-hot range and conjunctive plan streams through ``search_plans``.

    Compile, one batched collection over the leg union, per-leg escrow
    settlement, user-side intersection: every plan must verify and
    answer exactly its plaintext oracle.  Planner work is a pure
    function of the query stream, so ``planner.*`` reproduces exactly.
    """
    s = _setup(out, "range", audit=True)
    system = SlicerSystem(s.params, rng=default_rng(5), owner=s.owner)
    database = s.generator.attributed_database(
        N_RECORDS,
        {"lat": WorkloadSpec(N_RECORDS, BITS), "lon": WorkloadSpec(N_RECORDS, BITS)},
    )
    setup_s, _ = time_call(lambda: system.setup(database))

    streams = [
        ("range", RangeWorkload(selectivity=0.1, fan_in=1, pool_size=4)),
        ("conjunctive", RangeWorkload(selectivity=0.25, fan_in=2, pool_size=4)),
    ]
    plan_rows = []
    search_s = 0.0
    n_plans = 0
    for label, workload in streams:
        exprs = s.generator.range_plans(8, BITS, workload, attributes=["lat", "lon"])
        leg_s, outcomes = time_call(lambda exprs=exprs: system.search_plans(exprs))
        search_s += leg_s
        n_plans += len(outcomes)
        for outcome in outcomes:
            assert outcome.verified, f"honest {label} plan must verify"
            assert outcome.record_ids == outcome.plan.oracle_ids(database), (
                f"{label} plan {outcome.plan.describe()} answered wrong IDs"
            )
        plan_rows.append(
            {
                "stream": label,
                "plans": len(outcomes),
                "legs": sum(len(o.plan.legs) for o in outcomes),
                "merged_away": sum(o.plan.merged_away for o in outcomes),
                "results": sum(len(o.record_ids) for o in outcomes),
            }
        )

    deterministic = REGISTRY.deterministic_snapshot()
    planner = {
        k: v for k, v in deterministic["counters"].items() if k.startswith("planner.")
    }
    assert planner.get("planner.plans") == n_plans
    assert planner.get("planner.dedup_saved", 0) > 0, (
        "the Zipf-hot plan pool must repeat legs for the planner to dedup"
    )

    metrics = {
        "setup_s": setup_s,
        "search_plans_s": search_s,
        "plans": n_plans,
        "records": N_RECORDS,
        "value_bits": BITS,
        "modmath_backend": modmath.backend_info()["active"],
        "audit_records": obs_audit.AUDIT_LOG.totals()["records"],
        "all_verified": True,
    }
    return Report(
        "range",
        "Range-planner smoke benchmark",
        {
            "metrics": metrics,
            "streams": plan_rows,
            "planner": planner,
            "counters": deterministic["counters"],
            "histograms": deterministic["histograms"],
            "artifacts": {"trace": "TRACE_range.jsonl", "audit": "AUDIT_range.jsonl"},
        },
        [(k, str(v)) for k, v in sorted(planner.items())],
    )


@dataclass(frozen=True)
class Cell:
    """One scenario: a flow, its fixed arguments and what it must reproduce."""

    name: str
    flow: Callable[..., Report]
    args: dict
    baseline: str
    sections: tuple[str, ...]
    #: The committed audit log the fresh one must equal byte for byte.
    audit: str | None = None


_EXACT = ("counters", "histograms")

CELLS = (
    Cell("plain", plain, {"shards": 1}, "BENCH_smoke.json", _EXACT),
    Cell("plain-4shard", plain, {"shards": 4}, "BENCH_smoke.json", _EXACT),
    Cell(
        "chaos",
        chaos,
        {"seed": 7, "profile": "lossy"},
        "BENCH_chaos.json",
        ("chaos", "counters"),
        "AUDIT_chaos.jsonl",
    ),
    Cell(
        "settlement-sync",
        settlement,
        {"mode": "sync"},
        "BENCH_settlement_sync.json",
        _EXACT + ("settlement",),
        "AUDIT_settlement_sync.jsonl",
    ),
    Cell(
        "settlement-block",
        settlement,
        {"mode": "block"},
        "BENCH_settlement_sync.json",
        _EXACT + ("settlement",),
        "AUDIT_settlement_block.jsonl",
    ),
    Cell("restart", restart, {}, "BENCH_warm_restart.json", _EXACT + ("restart_leg",)),
    Cell(
        "range",
        range_plans,
        {},
        "BENCH_range.json",
        ("planner",) + _EXACT,
        "AUDIT_range.jsonl",
    ),
)


def _drift(baseline: dict, fresh: dict, sections: tuple[str, ...]) -> list[str]:
    """Every ``section.key`` whose value differs (or exists on one side only)."""
    drifted = []
    for section in sections:
        base, now = baseline.get(section, {}), fresh.get(section, {})
        drifted += sorted(
            f"{section}.{key}"
            for key in set(base) | set(now)
            if base.get(key) != now.get(key) and f"{section}.{key}" not in UNGATED
        )
    return drifted


def _audit_drift(baseline: list[str], fresh: list[str], name: str) -> list[str]:
    """One ``name:line N`` per audit record that differs or exists on one side."""
    return [
        f"{name}:line {i + 1}"
        for i in range(max(len(baseline), len(fresh)))
        if baseline[i : i + 1] != fresh[i : i + 1]
    ]


def gate(name: str, out: pathlib.Path = DEFAULT_OUT) -> list[str]:
    """Run one cell, write its fresh report under ``out``, return its drift."""
    cell = next(c for c in CELLS if c.name == name)
    # Read first: with --out pointing at the baselines, the run rewrites them.
    baseline = json.loads((BASELINES / cell.baseline).read_text())
    audit = (BASELINES / cell.audit).read_text().splitlines() if cell.audit else []
    fresh = _write(out, cell.flow(out, **cell.args))
    drift = _drift(baseline, fresh, cell.sections)
    if cell.audit:
        drift += _audit_drift(audit, (out / cell.audit).read_text().splitlines(), cell.audit)
    return drift


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help="directory for fresh reports, traces and audit logs "
        "(default: benchmarks/reports/fresh; pass benchmarks/reports to "
        "regenerate the committed baselines on purpose)",
    )
    out = parser.parse_args(argv).out.resolve()

    summary = {}
    for cell in CELLS:
        drifted = gate(cell.name, out)
        summary[cell.name] = {
            "baseline": cell.baseline,
            "sections": list(cell.sections),
            "audit": cell.audit,
            "drifted": drifted,
        }
    for name, row in summary.items():
        compared = f"{', '.join(row['sections'])} vs {row['baseline']}"
        if row["audit"]:
            compared += f" + {row['audit']}"
        print(f"{name:<17} {'DRIFTED' if row['drifted'] else 'ok':<8} {compared}")
        for key in row["drifted"]:
            print(f"    {key}")
    (out / "smoke_check.json").write_text(json.dumps(summary, indent=2) + "\n")
    failed = [name for name, row in summary.items() if row["drifted"]]
    if failed:
        print(f"\nFAIL: {', '.join(failed)} drifted from the committed baselines")
        return 1
    print(f"\nOK: all {len(CELLS)} cells reproduce the committed baselines exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
