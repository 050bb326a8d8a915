#!/usr/bin/env python
"""CI smoke benchmark: one small end-to-end deployment, timed and verified.

Runs Build -> Search -> precompute-witnesses -> Insert -> Search on a
smoke-scale database and writes ``reports/BENCH_smoke.json`` (plus the
text twin) via the shared harness.  Each run also writes a JSONL span trace (``reports/TRACE_smoke.jsonl`` /
``TRACE_chaos.jsonl``) and, for chaos runs, the settlement audit log
(``reports/AUDIT_chaos.jsonl``) — both readable via
``python -m repro report``.

With ``--chaos-seed`` the smoke run instead goes through the full
four-party :class:`~repro.system.SlicerSystem` behind a fault-injecting
:class:`~repro.chaos.ChaosTransport`: every search must still settle paid
(``retry.gave_up == 0``) while faults are demonstrably injected, and the
run writes ``reports/BENCH_chaos.json`` whose ``chaos.*`` / ``retry.*``
counters are exactly reproducible from the recorded seed — the invariant
``check_regression.py --chaos`` gates on.

With ``--settlement {sync,block}`` it runs the full-system settlement
smoke in that mode and writes ``reports/BENCH_settlement_<mode>.json``;
the block-mode counters, histograms and ledger totals must reproduce the
committed sync baseline exactly (``check_regression.py --settlement``).

Usage:  PYTHONPATH=src python benchmarks/run_smoke.py [--chaos-seed N]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import pathlib
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _harness import REPORT_DIR, bench_params, write_report  # noqa: E402
from repro.analysis.reporting import render_kv_table  # noqa: E402
from repro.chaos import ChaosTransport, FaultPlan, profile_named  # noqa: E402
from repro.common import perfstats  # noqa: E402
from repro.common.rng import default_rng  # noqa: E402
from repro.common.timing import time_call  # noqa: E402
from repro.core import wire  # noqa: E402
from repro.core.cloud import CloudServer  # noqa: E402
from repro.core.owner import DataOwner  # noqa: E402
from repro.core.params import KeyBundle  # noqa: E402
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

N_RECORDS = 120
N_INSERT = 30
BITS = 8


def _fresh_sink(filename: str) -> str:
    """Truncate-and-return a JSONL sink path (sinks append per record)."""
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / filename
    path.write_text("")
    return str(path)


def _reset_observability(trace_file: str, audit_file: str | None = None) -> None:
    """Cold registry/tracer/audit state plus fresh JSONL sinks for this run."""
    REGISTRY.reset()
    trace.TRACER.reset()
    trace.TRACER.set_sink(_fresh_sink(trace_file))
    obs_audit.AUDIT_LOG.reset()
    obs_audit.AUDIT_LOG.set_sink(_fresh_sink(audit_file) if audit_file else None)


def run_chaos(seed: int, profile_name: str) -> int:
    """End-to-end chaos smoke: everything settles despite injected faults."""
    _reset_observability("TRACE_chaos.jsonl", "AUDIT_chaos.jsonl")
    params = bench_params(BITS)
    keys = KeyBundle.generate(default_rng(31337), 1024)
    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    transport = ChaosTransport(FaultPlan(profile_named(profile_name), seed))
    system = SlicerSystem(params, rng=default_rng(5), owner=owner, transport=transport)

    generator = WorkloadGenerator(default_rng(404))
    setup_s, _ = time_call(
        lambda: system.setup(generator.database(WorkloadSpec(N_RECORDS, BITS)))
    )
    queries = [Query.parse(64, ">"), Query.parse(64, "<"), Query.parse(200, ">")]
    outcomes = [system.search(q) for q in queries]
    insert_s, _ = time_call(
        lambda: system.insert(generator.database(WorkloadSpec(N_INSERT, BITS)))
    )
    outcomes += [system.search(q) for q in queries]

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
    assert injected > 0, f"profile {profile_name!r} seed {seed} injected no faults"
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
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}" if isinstance(v, float) else str(v)) for k, v in metrics.items()
    ] + [(k, str(v)) for k, v in sorted(counters.items())]
    write_report(
        "chaos",
        render_kv_table(f"Chaos smoke ({profile_name}, seed {seed})", rows),
        data={
            # Seed + profile pin the whole fault schedule: a re-run with
            # these values must reproduce `counters` exactly.
            "chaos": {"seed": seed, "profile": profile_name},
            "metrics": metrics,
            "counters": counters,
            "artifacts": {
                "trace": "TRACE_chaos.jsonl",
                "audit": "AUDIT_chaos.jsonl",
            },
        },
    )
    return 0


def run_settlement(mode: str) -> int:
    """Full-system settlement smoke, settled synchronously or per-block.

    Both modes run the identical protocol flow — searches, an insert, more
    searches, through the full four-party :class:`SlicerSystem` — so the
    deterministic counter snapshot and the settlement-ledger totals they
    record must be bit-identical: block production moves *when* an escrow
    settles, never what it pays or how much protocol work it takes.
    (Batched searches are deliberately absent: sync batches settle through
    one amortised ``batch_verify_and_settle`` receipt while block batches
    settle per-escrow, a documented receipt-shape difference — see
    ``bench_block_settlement.py`` for that flow.)

    CI runs ``--settlement block`` and gates the recorded snapshot against
    the committed ``BENCH_settlement_sync.json`` baseline via
    ``check_regression.py --settlement``.
    """
    _reset_observability(
        f"TRACE_settlement_{mode}.jsonl", f"AUDIT_settlement_{mode}.jsonl"
    )
    params = bench_params(BITS)
    keys = KeyBundle.generate(default_rng(31337), 1024)
    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    system = SlicerSystem(
        params, rng=default_rng(5), owner=owner, settlement_mode=mode
    )

    generator = WorkloadGenerator(default_rng(404))
    setup_s, _ = time_call(
        lambda: system.setup(generator.database(WorkloadSpec(N_RECORDS, BITS)))
    )
    queries = [Query.parse(64, ">"), Query.parse(64, "<"), Query.parse(200, ">")]
    search_s, outcomes = time_call(lambda: [system.search(q) for q in queries])
    insert_s, _ = time_call(
        lambda: system.insert(generator.database(WorkloadSpec(N_INSERT, BITS)))
    )
    search2_s, more = time_call(lambda: [system.search(q) for q in queries])
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
    # Mode-invariant ledger facts: the settlement gate compares these
    # (minus "mode") exactly against the committed sync baseline, alongside
    # the counter/histogram snapshot.
    settlement = {
        "mode": mode,
        "verdicts": totals["verdicts"],
        "gas_total": totals["gas_total"],
        "paid_out": totals["paid_out"],
        "refunded": totals["refunded"],
    }
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}" if isinstance(v, float) else str(v)) for k, v in metrics.items()
    ] + [
        ("ledger_gas_total", str(totals["gas_total"])),
        ("ledger_paid_out", str(totals["paid_out"])),
    ]
    write_report(
        f"settlement_{mode}",
        render_kv_table(f"Settlement smoke ({mode} mode)", rows),
        data={
            "settlement": settlement,
            "metrics": metrics,
            "counters": deterministic["counters"],
            "histograms": deterministic["histograms"],
            "artifacts": {
                "trace": f"TRACE_settlement_{mode}.jsonl",
                "audit": f"AUDIT_settlement_{mode}.jsonl",
            },
        },
    )
    return 0


def _deterministic_delta(base: dict) -> dict:
    """Counter delta since ``base``, filtered to the deterministic slice."""
    allowed = set(REGISTRY.deterministic_snapshot()["counters"])
    return {
        k: v for k, v in perfstats.delta_since(base).items() if k in allowed
    }


def run_restart() -> int:
    """Warm-restart smoke: a reopened cloud serves its first repeat query warm.

    Runs the plain smoke flow against a durable segment store (build,
    skewed searches, insert, more searches, witness precompute), records
    the never-restarted cloud's warm repeat of the hot query as the
    **oracle leg**, then checkpoints, clears every process-global kernel
    memo (a cold process), reopens the store into a *fresh* CloudServer and
    serves the same repeat query.  Byte-identity against the oracle leg is
    asserted before any timing is reported, and the restarted leg must
    touch neither the index nor the PRF:
    ``cloud.collect.index_probes == cloud.collect.prf_evals == 0``.
    ``check_regression.py --restart`` gates the recorded counters,
    histograms and both leg deltas bit for bit.
    """
    _reset_observability("TRACE_restart.jsonl")
    params = bench_params(BITS)
    keys = KeyBundle.generate(default_rng(31337), 1024)
    generator = WorkloadGenerator(default_rng(404))
    database = generator.database(WorkloadSpec(N_RECORDS, BITS))
    owner = DataOwner(params, keys=keys, rng=default_rng(12))

    store_dir = tempfile.mkdtemp(prefix="slicer-segstore-")
    try:
        cloud = CloudServer(params, keys.trapdoor.public)
        cloud.attach_store(store_dir)
        build_s, out = time_call(lambda: owner.build(database))
        cloud.install(out.cloud_package)
        user = DataUser(params, out.user_package, default_rng(5))

        queries = [Query.parse(64, ">"), Query.parse(64, "<"), Query.parse(200, ">")]
        for query in queries:
            response = cloud.search(user.make_tokens(query))
            assert verify_response(params, cloud.ads_value, response).ok

        add = generator.database(WorkloadSpec(N_INSERT, BITS))
        insert_s, out2 = time_call(lambda: owner.insert(add))
        cloud.install(out2.cloud_package)
        user.refresh(out2.user_package)

        # Zipf-ish skew: the hot query repeats, the tail runs once — what a
        # production repeat-heavy workload leaves in the caches.
        hot = user.make_tokens(queries[0])
        for tokens in [hot] + [user.make_tokens(q) for q in queries[1:]]:
            cloud.search(tokens)
        precompute_s, count = time_call(cloud.precompute_witnesses)
        assert count == cloud.prime_count

        # Oracle leg: the never-restarted cloud's warm repeat, recorded
        # BEFORE clear_caches() below (which also empties this cloud's
        # entry cache through the kernel registry).
        base = perfstats.snapshot()
        oracle_warm_s, oracle_response = time_call(lambda: cloud.search(hot))
        oracle_delta = _deterministic_delta(base)
        oracle_bytes = wire.dump_response(oracle_response)

        checkpoint_s, _ = time_call(cloud.checkpoint)
        store_bytes = sum(
            p.stat().st_size for p in pathlib.Path(store_dir).iterdir()
        )

        # Process death: fresh server object, cold global kernel memos.
        kernels.clear_caches()
        resumed = CloudServer(params, keys.trapdoor.public)
        # The timed reopen includes full rehydration (prime_count forces the
        # lazy replay + warm-checkpoint load) so the measured leg below is
        # purely the query.
        reopen_s, _ = time_call(
            lambda: (resumed.reopen(store_dir), resumed.prime_count)
        )
        base = perfstats.snapshot()
        restart_warm_s, response = time_call(lambda: resumed.search(hot))
        restart_delta = _deterministic_delta(base)

        # Byte-identity and zero-probe assertions come before any timing
        # is reported: a fast-but-wrong restart must fail the bench.
        assert wire.dump_response(response) == oracle_bytes, (
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
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}" if isinstance(v, float) else str(v)) for k, v in metrics.items()
    ]
    deterministic = REGISTRY.deterministic_snapshot()
    write_report(
        "warm_restart",
        render_kv_table("Warm-restart smoke benchmark", rows),
        data={
            "metrics": metrics,
            "counters": deterministic["counters"],
            "histograms": deterministic["histograms"],
            # The gated heart of the bench: the restarted cloud's first
            # repeat-query leg did exactly the oracle's deterministic work
            # — zero index probes, zero PRF evaluations, byte-identical
            # response — and both deltas are reproduced exactly on re-run.
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
    return 0


def run_range() -> int:
    """Range-planner smoke: plan streams through the full system, gated.

    Builds a two-attribute database, draws a Zipf-hot stream of range and
    conjunctive plan expressions, and runs them through
    :meth:`SlicerSystem.search_plans` — compile, one batched collection
    over the leg union, per-leg escrow settlement, user-side intersection.
    Every plan must verify and answer exactly its plaintext oracle, and the
    ``planner.*`` counters (plans/legs compiled, token walks deduped,
    record IDs dropped by intersection) land in the report for
    ``check_regression.py --range`` to pin bit for bit.
    """
    _reset_observability("TRACE_range.jsonl", "AUDIT_range.jsonl")
    params = bench_params(BITS)
    keys = KeyBundle.generate(default_rng(31337), 1024)
    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    system = SlicerSystem(params, rng=default_rng(5), owner=owner)

    generator = WorkloadGenerator(default_rng(404))
    database = generator.attributed_database(
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
        exprs = generator.range_plans(8, BITS, workload, attributes=["lat", "lon"])
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
        k: v
        for k, v in deterministic["counters"].items()
        if k.startswith("planner.")
    }
    assert planner.get("planner.plans") == n_plans
    assert planner.get("planner.dedup_saved", 0) > 0, (
        "the Zipf-hot plan pool must repeat legs for the planner to dedup"
    )

    totals = obs_audit.AUDIT_LOG.totals()
    metrics = {
        "setup_s": setup_s,
        "search_plans_s": search_s,
        "plans": n_plans,
        "records": N_RECORDS,
        "value_bits": BITS,
        "modmath_backend": modmath.backend_info()["active"],
        "audit_records": totals["records"],
        "all_verified": True,
    }
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}" if isinstance(v, float) else str(v)) for k, v in metrics.items()
    ] + [(k, str(v)) for k, v in sorted(planner.items())]
    write_report(
        "range",
        render_kv_table("Range-planner smoke benchmark", rows),
        data={
            "metrics": metrics,
            "streams": plan_rows,
            # The gated heart of the bench: planner work is a pure function
            # of the query stream, so these reproduce exactly on re-run.
            "planner": planner,
            "counters": deterministic["counters"],
            "histograms": deterministic["histograms"],
            "artifacts": {
                "trace": "TRACE_range.jsonl",
                "audit": "AUDIT_range.jsonl",
            },
        },
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--chaos-seed",
        type=lambda s: int(s, 0),
        default=None,
        help="run the chaos smoke with this fault-schedule seed instead",
    )
    parser.add_argument(
        "--chaos-profile",
        default="lossy",
        help="fault profile for --chaos-seed runs (default: lossy)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through a sharded scatter/gather tier of this width; the "
        "recorded counters must equal the single-cloud baseline (the tier "
        "partitions protocol work, it never changes it)",
    )
    parser.add_argument(
        "--settlement",
        choices=("sync", "block"),
        default=None,
        help="run the full-system settlement smoke in this mode instead; "
        "block mode must reproduce the sync snapshot bit for bit "
        "(check_regression.py --settlement gates on it)",
    )
    parser.add_argument(
        "--restart",
        action="store_true",
        help="run the warm-restart smoke instead: install through a durable "
        "segment store, checkpoint, reopen into a fresh process and serve "
        "the first repeat query warm (0 index probes, 0 PRF evals, "
        "byte-identical to the never-restarted oracle)",
    )
    parser.add_argument(
        "--range",
        dest="range_planner",
        action="store_true",
        help="run the range-planner smoke instead: Zipf-hot range/"
        "conjunctive plan streams through SlicerSystem.search_plans, every "
        "plan verified against the plaintext oracle and the planner.* "
        "counters recorded (check_regression.py --range gates on them)",
    )
    args = parser.parse_args(argv)
    if args.chaos_seed is not None:
        return run_chaos(args.chaos_seed, args.chaos_profile)
    if args.settlement is not None:
        return run_settlement(args.settlement)
    if args.restart:
        return run_restart()
    if args.range_planner:
        return run_range()
    return run_plain(args.shards)


def run_plain(shards: int = 1) -> int:
    _reset_observability("TRACE_smoke.jsonl")  # clean slate for the gate
    params = bench_params(BITS)
    keys = KeyBundle.generate(default_rng(31337), 1024)
    generator = WorkloadGenerator(default_rng(404))
    database = generator.database(WorkloadSpec(N_RECORDS, BITS))

    owner = DataOwner(params, keys=keys, rng=default_rng(12))
    if shards > 1:
        # The sharded serving tier duck-types the CloudServer surface; the
        # rest of this function is width-blind, and the deterministic
        # counter snapshot it records must match the N=1 baseline exactly.
        owner.shard_plan = HashShardPlan(shards)
        build_s, out = time_call(lambda: owner.build(database))
        cloud = ShardedCloudFrontend(params, keys.trapdoor.public, owner.shard_plan)
        cloud.install_shards(out.shard_packages)
    else:
        build_s, out = time_call(lambda: owner.build(database))
        cloud = CloudServer(params, keys.trapdoor.public)
        cloud.install(out.cloud_package)
    user = DataUser(params, out.user_package, default_rng(5))

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

    precompute_s, count = time_call(cloud.precompute_witnesses)
    assert count == cloud.prime_count

    add = generator.database(WorkloadSpec(N_INSERT, BITS))
    insert_s, out2 = time_call(lambda: owner.insert(add))
    if shards > 1:
        cloud.install_shards(out2.shard_packages)
    else:
        cloud.install(out2.cloud_package)
    user.refresh(out2.user_package)

    tokens2 = user.make_tokens(Query.parse(64, "<"))
    search2_s, response2 = time_call(lambda: cloud.search(tokens2))
    assert verify_response(params, cloud.ads_value, response2).ok, "post-insert smoke search failed"

    # Batched collection over the union of both queries (one duplicated):
    # per-query responses must be byte-identical to sequential post-insert
    # searches, and the batch.{unique_tokens,dedup_saved} counters get gated.
    # (The pre-insert `response` is stale here: inserts change the ADS, so
    # witnesses for the same entries differ — re-derive the reference.)
    reference = cloud.search(tokens)
    batch_s, batch = time_call(lambda: cloud.search_many([tokens, tokens2, tokens]))
    assert [wire.dump_response(r) for r in batch] == [
        wire.dump_response(reference),
        wire.dump_response(response2),
        wire.dump_response(reference),
    ], "batched search drifted from per-query responses"

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
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}" if isinstance(v, float) else str(v)) for k, v in metrics.items()
    ]
    deterministic = REGISTRY.deterministic_snapshot()
    write_report(
        "smoke",
        render_kv_table("CI smoke benchmark", rows),
        data={
            "metrics": metrics,
            # Machine-independent kernel counters: the regression gate
            # compares these exactly, at any shard width and on any
            # modmath backend.
            "counters": deterministic["counters"],
            # Value-deterministic histograms (gas, token/result sizes);
            # wall-clock `*_s` histograms are already excluded.
            "histograms": deterministic["histograms"],
            "hit_rates": perfstats.rates(),
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
