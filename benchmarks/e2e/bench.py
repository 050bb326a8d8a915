"""Measure one workload: set-up, warm-up, the timed op stream, the checks.

Correctness gates every number: each op must settle paid with record ids
equal to the plaintext oracle, and escrow must be conserved over each phase
(the cloud gains and the user loses exactly ``payment x paid``; the contract
ends where it started).  A failed op is counted, never dropped.

A run makes ``PASSES`` passes over the op stream, each on a freshly built
deployment from cold kernel memos, so op ``i`` meets the same program state
in every pass.  An op's latency is its fastest pass: interference from other
tenants of the host only ever adds time (timeit's rule, at op granularity),
and taking the minimum per op keeps any trend along the stream.

End-to-end metrics come from the untraced run.  With ``trace`` set, every
other op of each kind runs with the :class:`~ledger.Ledger` wrappers
installed; the untraced ops in between give the tracing overhead, and the
traced ones give the per-layer ledger.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass

from repro.common import perfstats
from repro.crypto import kernels, modmath, symmetric

from ledger import Ledger
from workloads import PAYMENT, PASSES, Op, Workload

#: Set-up also runs on its own, after the passes, until ``setup_s`` has
#: ``SETUP_MIN_S`` of samples (at most ``SETUP_MAX_REPS``): a sub-second
#: set-up needs more samples to ride out host jitter.
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 10

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "gas_per_search": "gas",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stored_bytes_per_record": "B",
}

#: Per-layer time metrics (self time per op of the layer's op kind).
LAYER_MS = {
    "user.tokens.ms": "user.tokens",
    "chain.submit.ms": "chain.submit",
    "cloud.results.ms": "cloud.results",
    "cloud.vo.ms": "cloud.vo",
    "cloud.frontend.ms": "cloud.frontend",
    "chain.verify_settle.ms": "chain.verify_settle",
    "chain.mine.ms": "chain.mine",
    "user.decrypt.ms": "user.decrypt",
    "system.self.ms": "system.self",
}
INSERT_LAYER_MS = {
    "owner.insert.ms": "owner.insert",
    "cloud.install.ms": "cloud.install",
    "chain.update_ads.ms": "chain.update_ads",
}
#: Per-op counter deltas, searches.
SEARCH_COUNTERS = (
    "cloud.collect.prf_evals",
    "cloud.collect.index_probes",
    "cloud.token_dedup.saved",
    "fixed_base.table_pow",
    "wnaf.pow",
    "shard.fanout.dispatches",
    "batch.dedup_saved",
    "planner.legs",
    "planner.dedup_saved",
    "blocks.sealed",
    "mempool.included",
)
#: Hit rates over searches: metric -> counter pair prefix.
HIT_RATES = {
    "cloud.entry_cache.hit_rate": "cloud.entry_cache",
    "trapdoor_chain.hit_rate": "trapdoor_chain",
    "cloud.repeat_witness.hit_rate": "cloud.repeat_witness",
}
#: Per-op counter deltas, inserts.
INSERT_COUNTERS = (
    "hprime.candidates",
    "hprime.mr_rounds",
    "cloud.witness_cache.selfcheck",
    "multi_exp.bases",
)
SETUP_LAYERS = {
    "setup.owner_build_s": "owner.build",
    "setup.install_s": "cloud.install",
    "setup.deploy_s": "chain.deploy",
    "setup.precompute_s": "cloud.precompute",
}

#: Traced-run sanity: layer self time must account for the op wall time.
COVERAGE_RANGE = (0.9, 1.1)

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    **{name: "ms" for name in LAYER_MS},
    "user.tokens.count": "count",
    "gas.submit": "gas",
    "gas.verify_settle": "gas",
    "search.result_entries": "count",
    **{name: "count" for name in SEARCH_COUNTERS},
    **{name: "ratio" for name in HIT_RATES},
    **{name: "ms" for name in INSERT_LAYER_MS},
    "owner.index.ms": "ms",
    "owner.ads.ms": "ms",
    "gas.update_ads": "gas",
    **{name: "count" for name in INSERT_COUNTERS},
    **{name: "s" for name in SETUP_LAYERS},
    "trace.overhead_frac": "ratio",
    "layers.coverage": "ratio",
}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "modmath": modmath.backend_info(),
        "aes": bool(getattr(symmetric, "_HAVE_AES", False)),
    }


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Sample:
    """One timed op as measured and checked."""

    kind: str
    seconds: float
    traced: bool
    ok: bool = False
    escrows: int = 0
    paid: int = 0
    gas: int = 0
    tokens: int = 0
    entries: int = 0
    counters: dict | None = None


class Runner:
    """Executes and checks ops against one deployment and its oracle."""

    def __init__(self, system, database) -> None:
        self.system = system
        self.database = database
        self._oracle: dict = {}

    def execute(self, op: Op):
        if op.kind == "search":
            return self.system.search(op.arg, payment=PAYMENT)
        if op.kind == "plans":
            return self.system.search_plans(op.arg, payment=PAYMENT)
        return self.system.insert(op.arg)

    def check(self, op: Op, result, sample: Sample) -> None:
        """Record one op's outcome in ``sample``; ``sample.ok`` iff correct."""
        if op.kind == "insert":
            self.database.records.extend(op.arg.records)
            self._oracle.clear()
            sample.gas = result.gas_used
            sample.ok = bool(result.status)
            return
        if op.kind == "search":
            legs = [result]
            answered = result.record_ids == self._query_ids(op.arg)
        else:
            legs = [leg for outcome in result for leg in outcome.legs]
            answered = all(o.record_ids == self._plan_ids(o.plan) for o in result)
        for leg in legs:
            sample.escrows += 1
            sample.paid += int(leg.verified)
            sample.gas += leg.submit_receipt.gas_used + leg.settle_receipt.gas_used
            sample.tokens += len(leg.tokens)
            sample.entries += sum(len(r.entries) for r in leg.response.results)
        sample.ok = answered and sample.paid == sample.escrows

    def _query_ids(self, query) -> set[bytes]:
        if query not in self._oracle:
            self._oracle[query] = self.database.ids_matching(query.predicate())
        return self._oracle[query]

    def _plan_ids(self, plan) -> set[bytes]:
        if plan.expr not in self._oracle:
            self._oracle[plan.expr] = plan.oracle_ids(self.database)
        return self._oracle[plan.expr]

    def balances(self) -> tuple[int, int, int]:
        chain = self.system.chain
        return (
            chain.balance(self.system.user_address),
            chain.balance(self.system.cloud_address),
            chain.balance(self.system.contract.address),
        )


def run_phase(
    runner: Runner, ops: list[Op], ledger: Ledger | None, first_id: int = 0
) -> tuple[list[Sample], list[str]]:
    """Run ``ops`` in order; with a ledger, trace every other op of each kind.

    Returns the samples and a description of every failure, including an
    escrow imbalance over the phase.
    """
    failures: list[str] = []
    samples: list[Sample] = []
    start = runner.balances()
    seen: dict[str, int] = {}
    for i, op in enumerate(ops):
        traced = ledger is not None and seen.get(op.kind, 0) % 2 == 0
        seen[op.kind] = seen.get(op.kind, 0) + 1
        before = perfstats.snapshot() if ledger is not None else None
        if traced:
            ledger.op_id, ledger.op_kind = first_id + i, op.kind
            ledger.install()
        t0 = time.perf_counter()
        try:
            result, error = runner.execute(op), None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            result, error = None, exc
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                ledger.uninstall()
        sample = Sample(op.kind, elapsed, traced)
        if error is not None:
            failures.append(f"op {i} ({op.kind}) raised {type(error).__name__}: {error}")
        else:
            runner.check(op, result, sample)
            if not sample.ok:
                failures.append(f"op {i} ({op.kind}) was refunded or answered wrongly")
        if before is not None:
            sample.counters = perfstats.delta_since(before)
        samples.append(sample)

    user, cloud, contract = runner.balances()
    owed = PAYMENT * sum(s.paid for s in samples)
    if start[0] - user != owed or cloud - start[1] != owed or contract != start[2]:
        failures.append(
            f"escrow not conserved: user -{start[0] - user}, cloud +{cloud - start[1]}, "
            f"contract {start[2]} -> {contract}, owed {owed}"
        )
    return samples, failures


def set_up(workload: Workload, inputs, seed: int, ledger: Ledger | None, rep: int):
    """A fresh deployment, set up from cold kernel memos; returns it and the time."""
    kernels.clear_caches()
    system = workload.system(inputs.keys, seed)
    if ledger is not None:
        ledger.op_id, ledger.op_kind = rep, "setup"
        ledger.install()
    start = time.perf_counter()
    try:
        system.setup(inputs.database)
        if workload.precompute:
            system.cloud.precompute_witnesses()
    finally:
        elapsed = time.perf_counter() - start
        if ledger is not None:
            ledger.uninstall()
    return system, elapsed


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Ledger | None]:
    """One run of ``workload``; returns the result record and the ledger."""
    inputs = workload.inputs(seed, seconds)
    ledger = Ledger() if trace else None
    setup_s: list[float] = []
    passes: list[list[Sample]] = []
    counts: list[dict] = []
    failures: list[str] = []
    for p in range(PASSES):
        system, elapsed = set_up(workload, inputs, seed, ledger, p)
        setup_s.append(elapsed)
        database = dataclasses.replace(inputs.database, records=list(inputs.database.records))
        runner = Runner(system, database)
        failures += run_phase(runner, inputs.warm, None)[1]
        before = perfstats.snapshot()
        samples, timed_failures = run_phase(runner, inputs.ops, ledger, p * len(inputs.ops))
        failures += timed_failures
        passes.append(samples)
        counts.append(pass_counts(samples, runner, perfstats.delta_since(before)))
        # Drop this deployment before the next is built: one live at a time.
        system = runner = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS:
        setup_s.append(set_up(workload, inputs, seed, ledger, len(setup_s))[1])

    best_ms = [min(times) * 1e3 for times in zip(*([s.seconds for s in p] for p in passes))]
    kinds = [s.kind for s in passes[0]]
    final = counts[-1]
    failed = sum(1 for p in passes for s in p if not s.ok)
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "correct": not failures,
        "attempted": sum(len(p) for p in passes),
        "failed": failed,
        "failures": failures[:20],
        "end_to_end": {
            "op_p50_ms": statistics.median(best_ms),
            "ops_per_s": len(best_ms) / (sum(best_ms) / 1e3),
            "gas_per_search": final["escrow_gas"] / max(final["escrows"], 1),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "stored_bytes_per_record": final["stored_bytes"] / final["records"],
        },
        "extra": {
            # Reported, not bounded: host speed bursts dominate the tail.
            "op_p90_ms": percentile(best_ms, 90),
            "pass_op_p50_ms": [statistics.median(s.seconds * 1e3 for s in p) for p in passes],
            "setup_reps_s": setup_s,
            "failed_frac": failed / sum(len(p) for p in passes),
            "ops_by_kind": {kind: kinds.count(kind) for kind in sorted(set(kinds))},
            # Every pass does identical work, so its counts must agree.
            "passes_agree": all(c == final for c in counts),
        },
        "counts": final,
    }
    inserts = [t for t, kind in zip(best_ms, kinds) if kind == "insert"]
    if inserts:
        result["extra"].update(
            insert_p50_ms=statistics.median(inserts),
            insert_p75_ms=percentile(inserts, 75),
            search_p50_ms=statistics.median(
                t for t, kind in zip(best_ms, kinds) if kind != "insert"
            ),
        )
    result["op_ms"] = [round(t, 4) for t in best_ms]
    if ledger is not None:
        result["per_layer"], result["ledger"] = layer_metrics(ledger, passes, best_ms, len(setup_s))
    return result, ledger


def pass_counts(samples: list[Sample], runner: Runner, counters: dict) -> dict:
    """The exact counts of one pass: pure functions of the seed and the op count."""
    return {
        "ops": len(samples),
        "escrows": sum(s.escrows for s in samples),
        "escrow_gas": sum(s.gas for s in samples if s.kind != "insert"),
        "insert_gas": sum(s.gas for s in samples if s.kind == "insert"),
        "tokens": sum(s.tokens for s in samples),
        "result_entries": sum(s.entries for s in samples),
        "stored_bytes": len(runner.system.cloud.snapshot()),
        "records": len(runner.database),
        "counters": dict(sorted(counters.items())),
    }


def layer_metrics(
    ledger: Ledger, passes: list[list[Sample]], best_ms: list[float], setups: int
) -> tuple[dict, dict]:
    """Per-layer metrics from the traced ops, plus the full ledger table."""
    search_kinds = ("search", "plans")
    samples = [s for p in passes for s in p]
    searches = [s for s in samples if s.kind in search_kinds]
    inserts = [s for s in samples if s.kind == "insert"]
    n_search = sum(1 for s in searches if s.traced)
    n_insert = sum(1 for s in inserts if s.traced)
    search_self = ledger.self_times(search_kinds)
    insert_self = ledger.self_times(("insert",))
    setup_self = ledger.self_times(("setup",))

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    def summed(group: list[Sample]) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in group:
            for key, value in s.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    metrics: dict[str, float] = {}
    for name, layer in LAYER_MS.items():
        metrics[name] = per(search_self.get(layer, 0.0) * 1e3, n_search)
    for name, layer in INSERT_LAYER_MS.items():
        metrics[name] = per(insert_self.get(layer, 0.0) * 1e3, n_insert)
    for name, label in (("owner.index.ms", "index"), ("owner.ads.ms", "ads")):
        total = ledger.stopwatch_total("owner.insert", label, ("insert",))
        metrics[name] = per(total * 1e3, n_insert)
    metrics["gas.submit"] = per(ledger.gas("chain.submit", search_kinds), n_search)
    metrics["gas.verify_settle"] = per(ledger.gas("chain.verify_settle", search_kinds), n_search)
    metrics["gas.update_ads"] = per(ledger.gas("chain.update_ads", ("insert",)), n_insert)

    # Counters and tallies do not depend on tracing: average over every op.
    search_counts, insert_counts = summed(searches), summed(inserts)
    for name in SEARCH_COUNTERS:
        metrics[name] = per(search_counts.get(name, 0), len(searches))
    for name, prefix in HIT_RATES.items():
        hits = search_counts.get(f"{prefix}.hit", 0)
        metrics[name] = per(hits, hits + search_counts.get(f"{prefix}.miss", 0))
    for name in INSERT_COUNTERS:
        metrics[name] = per(insert_counts.get(name, 0), len(inserts))
    metrics["user.tokens.count"] = per(sum(s.tokens for s in searches), len(searches))
    metrics["search.result_entries"] = per(sum(s.entries for s in searches), len(searches))

    for name, layer in SETUP_LAYERS.items():
        metrics[name] = setup_self.get(layer, 0.0) / setups

    # Every pass traces the same op positions, so the fastest-pass times of
    # traced and untraced positions compare like for like.  Medians keep one
    # lazy first-op cost (such as a fixed-base table build) from deciding.
    traced = [t for t, s in zip(best_ms, passes[0]) if s.kind in search_kinds and s.traced]
    untraced = [t for t, s in zip(best_ms, passes[0]) if s.kind in search_kinds and not s.traced]
    if traced and untraced:
        metrics["trace.overhead_frac"] = 1.0 - statistics.median(untraced) / statistics.median(traced)
    else:
        metrics["trace.overhead_frac"] = 0.0
    op_wall = sum(s.seconds for s in samples if s.traced)
    layer_total = sum(search_self.values()) + sum(insert_self.values())
    metrics["layers.coverage"] = per(layer_total, op_wall)

    table = {
        "traced_ops": {"search": n_search, "insert": n_insert, "setup": setups},
        "self_ms_per_op": {
            "search": {k: per(v * 1e3, n_search) for k, v in sorted(search_self.items())},
            "insert": {k: per(v * 1e3, n_insert) for k, v in sorted(insert_self.items())},
            "setup": {k: v * 1e3 / setups for k, v in sorted(setup_self.items())},
        },
        "unwrapped": ledger.missing,
    }
    return metrics, table
