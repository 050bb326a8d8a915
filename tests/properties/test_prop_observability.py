"""Observability invariants (ISSUE 4 acceptance properties).

Three pillars:

* **Reproducible snapshots** — the registry's deterministic snapshot
  (counters + histogram bucket counts, minus wall-clock ``*_s``
  histograms) is byte-identical across two cold runs of the same seed, for
  the direct path and for a fixed-seed chaos run alike.
* **Connected traces** — a full chaos search yields one span tree: a
  ``search`` root whose trace contains submit → cloud.search →
  verify_settle, with transport fault injections and retries attached as
  events, so a failed search is diagnosable from its trace alone.
* **Audit ≡ outcome** — every search appends exactly one settlement record
  whose verdict mirrors its :class:`~repro.system.SearchOutcome`, and a
  degraded outcome carries structured attribution (exception class, retried
  label, FaultPlan step) that matches the audit entry.
"""

import json

from repro.chaos import RETRY, ChaosTransport, FaultPlan, profile_named
from repro.chaos.faults import FaultProfile
from repro.common.rng import default_rng
from repro.core.query import Query
from repro.core.records import make_database
from repro.crypto import kernels
from repro.obs import audit as obs_audit
from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.system import SlicerSystem

VALUES = [7, 7, 9, 40, 41, 64, 3, 200]
EXTRA = [7, 41]
QUERIES = [
    Query.parse(7, "="),
    Query.parse(40, ">"),
    Query.parse(41, "<"),
]


def database(values, start=0):
    return make_database(
        [(f"rec-{start + i}", v) for i, v in enumerate(values)], bits=8
    )


def build_system(tparams, owner_factory, seed, transport=None):
    system = SlicerSystem(
        tparams,
        rng=default_rng(seed),
        owner=owner_factory(tparams, seed=seed),
        transport=transport,
    )
    system.setup(database(VALUES))
    return system


def run_scenario(system):
    """Search x3, insert, search x3 — repeats exercise every cache layer."""
    outcomes = [system.search(q) for q in QUERIES]
    system.insert(database(EXTRA, start=100))
    outcomes.extend(system.search(q) for q in QUERIES)
    return outcomes


def fresh_run(tparams, owner_factory, transport=None, seed=7):
    """One cold, self-contained run: every process-wide store reset first.

    Cold kernel caches matter: both legs must start from the same cache
    state, or warm memo hits would differ between them.
    """
    REGISTRY.reset()
    kernels.clear_caches()
    trace.TRACER.reset()
    obs_audit.AUDIT_LOG.reset()
    system = build_system(tparams, owner_factory, seed=seed, transport=transport)
    outcomes = run_scenario(system)
    return system, outcomes


def canonical(snapshot) -> str:
    """Byte-identity is asserted on the JSON encoding, not dict equality."""
    return json.dumps(snapshot, sort_keys=True)


class TestSnapshotDeterminism:
    def test_direct_snapshots_identical_across_cold_runs(self, tparams, owner_factory):
        legs = []
        for _ in range(2):
            fresh_run(tparams, owner_factory)
            legs.append(REGISTRY.deterministic_snapshot())
        assert canonical(legs[0]) == canonical(legs[1])
        # and the snapshot is not trivially empty (contract counters fire
        # regardless of the kernel layer; kernel counters only with it on)
        assert legs[0]["counters"].get("contract.settle.paid", 0) > 0
        if kernels.kernels_enabled():
            assert legs[0]["counters"].get("hash_to_prime.miss", 0) > 0
        assert legs[0]["histograms"]

    def test_chaos_snapshots_identical_across_cold_runs(self, tparams, owner_factory):
        legs = []
        for _ in range(2):
            transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=9))
            fresh_run(tparams, owner_factory, transport=transport)
            legs.append(REGISTRY.deterministic_snapshot())
            # the chaos schedule actually fired
            assert any(k.startswith("chaos.injected.") for k in legs[-1]["counters"])
        assert canonical(legs[0]) == canonical(legs[1])


def spans_by_trace(records):
    trees = {}
    for span in records:
        trees.setdefault(span["trace_id"], []).append(span)
    return trees


class TestConnectedChaosTrace:
    def test_full_search_yields_single_connected_trace_with_fault_events(
        self, tparams, owner_factory
    ):
        transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=9))
        system, outcomes = fresh_run(tparams, owner_factory, transport=transport)
        settled = [o for o in outcomes if o.error is None]
        assert settled, "lossy profile with liveness bound must settle searches"

        trees = spans_by_trace(trace.TRACER.export())
        search_roots = [
            s
            for spans in trees.values()
            for s in spans
            if s["name"] == "search" and s["parent_id"] is None
        ]
        assert len(search_roots) == len(outcomes)

        for root in search_roots:
            spans = trees[root["trace_id"]]
            names = {s["name"] for s in spans}
            if root["attrs"].get("verified"):
                assert {"search", "submit", "cloud.search", "verify_settle"} <= names
            # single connected tree: every non-root hangs off a span in-trace
            ids = {s["span_id"] for s in spans}
            for span in spans:
                if span["span_id"] != root["span_id"]:
                    assert span["parent_id"] in ids

        # the fault schedule fired and was attached to spans as events
        events = [
            e
            for spans in trees.values()
            for s in spans
            for e in s["events"]
        ]
        kinds = {e["event"] for e in events}
        assert "fault" in kinds
        fault_events = [e for e in events if e["event"] == "fault"]
        assert all(isinstance(e["step"], int) for e in fault_events)
        # retries happened and were recorded alongside the faults
        assert "retry" in kinds

    def test_audit_verdicts_match_outcomes(self, tparams, owner_factory):
        transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=9))
        system, outcomes = fresh_run(tparams, owner_factory, transport=transport)
        records = obs_audit.AUDIT_LOG.records()
        assert len(records) == len(outcomes)
        by_query = {r.query_id: r for r in records}
        trees = spans_by_trace(trace.TRACER.export())
        for outcome in outcomes:
            record = by_query[str(outcome.query_id)]
            if outcome.error is not None:
                assert record.verdict == "degraded"
            elif outcome.verified:
                assert record.verdict == "paid" and record.paid_to == "cloud"
            else:
                assert record.verdict == "refunded" and record.paid_to == "user"
            assert record.tokens_posted == len(outcome.tokens)
            assert record.attempts == outcome.attempts
            # the audit entry points at the search's span tree
            assert record.trace_id in trees
            assert any(s["name"] == "search" for s in trees[record.trace_id])


class TestDegradedAttribution:
    def test_degraded_outcome_preserves_class_and_fault_step(
        self, tparams, owner_factory
    ):
        # Every request-leg delivery drops: the submit retries must exhaust.
        profile = FaultProfile(name="black_hole", drop=1000, force_clean_after=1000)
        transport = ChaosTransport(FaultPlan(profile, seed=3))
        system = build_system(tparams, owner_factory, seed=7, transport=transport)
        trace.TRACER.reset()
        obs_audit.AUDIT_LOG.reset()

        outcome = system.search(QUERIES[0])
        assert not outcome.verified
        assert outcome.error is not None and "submit_query" in outcome.error
        failure = outcome.failure
        assert failure is not None
        assert failure.error_type == "TransportTimeout"
        assert failure.label == "submit_query"
        assert failure.attempts == RETRY.max_attempts
        # the FaultPlan step that exhausted the budget, resolvable offline
        assert isinstance(failure.fault_step, int)
        step, _leg, kind = transport.plan.history[failure.fault_step]
        assert step == failure.fault_step and kind == "drop"

        (record,) = obs_audit.AUDIT_LOG.records()
        assert record.verdict == "degraded"
        assert record.extra["fault_step"] == failure.fault_step
        assert record.detail == outcome.error

    def test_direct_outcomes_have_no_failure(self, tparams, owner_factory):
        system = build_system(tparams, owner_factory, seed=7)
        outcome = system.search(QUERIES[0])
        assert outcome.error is None and outcome.failure is None

    def test_direct_settle_revert_degrades_and_moves_nothing(self, tparams, owner_factory):
        """A reverted settlement leaves the escrow open: degraded, not refunded."""
        system = build_system(tparams, owner_factory, seed=7)
        # The owner moves the on-chain digest behind the cloud's back.
        system.chain.call(system.owner_address, system.contract, "update_ads", (12345,))
        obs_audit.AUDIT_LOG.reset()
        before = system.balances()

        outcome = system.search(QUERIES[0])

        assert not outcome.verified and not outcome.settled
        assert "stale accumulation value" in outcome.error
        assert outcome.failure.error_type == "TransientChainError"
        assert outcome.attempts == 1
        (record,) = obs_audit.AUDIT_LOG.records()
        assert record.verdict == "degraded" and record.amount == 0
        assert system.balances()["cloud"] == before["cloud"]
