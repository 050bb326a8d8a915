"""Plan execution ≡ naive per-leg loop: the planner only removes waste.

The tentpole invariance for the range planner, pinned across the
execution-shape grid:

* **byte-identity** — running a plan batch through
  :meth:`SlicerSystem.search_plans` yields, leg for leg, the same
  verdicts, record IDs, wire responses, submit/settle gas and final
  balances as compiling the same expressions and feeding the flattened
  legs to :meth:`SlicerSystem.batch_search` directly (the planner-less
  client), at shards 1 and 4;
* **counters** — the deterministic snapshot matches the naive run exactly
  once the planner's own ``planner.*`` family is set aside (the naive
  path never compiles a plan, so it never ticks them), and the plan
  path's full snapshot — ``planner.*`` included — is identical across
  every shape: the counters are pure functions of the query stream;
* **modes** — sync and block settlement deliver the same plan verdicts,
  record IDs, responses and balances (settle receipts differ by design:
  per-escrow block settlement vs one amortised batch receipt);
* **oracle** — every verified plan's intersection equals the plaintext
  ground truth from the attributed database;
* **fairness** — a cloud that tampers with ONE leg's proof refunds
  exactly that leg: sibling legs and sibling plans in the same batch
  keep their verdicts and their pay.

Kernel memo caches are process-global, so every cell starts cold
(``kernels.clear_caches()`` + registry reset).
"""

import pytest

from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer, SearchResponse, TokenResult
from repro.core.query import And, MatchCondition, Query, Range
from repro.core.records import AttributedDatabase
from repro.crypto import kernels
from repro.crypto.accumulator import MembershipWitness
from repro.obs.metrics import REGISTRY
from repro.planner import compile_plans
from repro.system import DEFAULT_PAYMENT, SlicerSystem

BITS = 8

ROWS = [
    {"lat": 7, "city": 1},
    {"lat": 20, "city": 3},
    {"lat": 40, "city": 3},
    {"lat": 45, "city": 1},
    {"lat": 60, "city": 3},
    {"lat": 100, "city": 1},
    {"lat": 130, "city": 3},
    {"lat": 200, "city": 1},
    {"lat": 42, "city": 3},
    {"lat": 255, "city": 1},
]

# Four plan shapes: open range, same-attribute merge (sharing one leg with
# the first plan — the cross-plan dedup case), point range, and a
# cross-attribute conjunction.
EXPRS = [
    Range(10, 50, "lat"),
    And(Range(10, 50, "lat"), Range(20, 80, "lat")),
    Range(42, 42, "lat"),
    And(Range(30, 120, "lat"), Query(3, MatchCondition.EQUAL, "city")),
]


def database():
    db = AttributedDatabase(BITS)
    for i, attrs in enumerate(ROWS):
        db.add(i, attrs)
    return db


def fresh_process_state():
    kernels.clear_caches()
    REGISTRY.reset()


def deploy(tparams, owner_factory, shards=1, mode="sync", seed=11):
    system = SlicerSystem(
        tparams,
        rng=default_rng(seed),
        owner=owner_factory(tparams, seed=seed),
        shards=shards,
        settlement_mode=mode,
    )
    system.setup(database())
    return system


def leg_fingerprint(outcome):
    return (
        outcome.verified,
        sorted(outcome.record_ids),
        wire.dump_response(outcome.response),
        outcome.submit_receipt.gas_used,
        outcome.settle_receipt.gas_used,
    )


def strip_planner(snapshot):
    return {
        "counters": {
            k: v
            for k, v in snapshot["counters"].items()
            if not k.startswith("planner.")
        },
        "histograms": snapshot["histograms"],
    }


def planner_counters(snapshot):
    return {
        k: v for k, v in snapshot["counters"].items() if k.startswith("planner.")
    }


def run_plan_path(tparams, owner_factory, shards=1, mode="sync"):
    fresh_process_state()
    system = deploy(tparams, owner_factory, shards, mode)
    outcomes = system.search_plans(EXPRS)
    return system, outcomes, REGISTRY.deterministic_snapshot()


@pytest.mark.parametrize("shards", [1, 4])
class TestPlanEqualsNaive:
    def test_plan_path_is_byte_identical_to_naive_legs(
        self, tparams, owner_factory, shards
    ):
        system, plan_outcomes, plan_snap = run_plan_path(tparams, owner_factory, shards)
        plan_balances = system.balances()

        # The planner-less client: compile, flatten, loop the legs itself.
        fresh_process_state()
        naive_system = deploy(tparams, owner_factory, shards)
        plans = compile_plans(EXPRS, BITS)
        flat_legs = [leg for plan in plans for leg in plan.legs]
        naive_outcomes = naive_system.batch_search(flat_legs)
        naive_snap = REGISTRY.deterministic_snapshot()

        plan_legs = [leg for out in plan_outcomes for leg in out.legs]
        assert [leg_fingerprint(o) for o in plan_legs] == [
            leg_fingerprint(o) for o in naive_outcomes
        ], "planned legs drifted from the naive per-leg loop"
        assert plan_balances == naive_system.balances()
        assert strip_planner(plan_snap) == naive_snap, (
            "the planner changed protocol work beyond its own counters"
        )

        # Client-side intersection over the naive legs reproduces the plan
        # answer exactly.
        cursor = 0
        for plan, outcome in zip(plans, plan_outcomes):
            legs = naive_outcomes[cursor : cursor + len(plan.legs)]
            cursor += len(plan.legs)
            naive_ids = set(legs[0].record_ids)
            for leg in legs[1:]:
                naive_ids &= leg.record_ids
            assert outcome.verified == all(leg.verified for leg in legs)
            assert outcome.record_ids == naive_ids

    def test_verified_plans_match_plaintext_oracle(self, tparams, owner_factory, shards):
        _, outcomes, snap = run_plan_path(tparams, owner_factory, shards)
        db = database()
        for outcome in outcomes:
            assert outcome.verified
            assert outcome.record_ids == outcome.plan.oracle_ids(db)
        counters = planner_counters(snap)
        assert counters["planner.plans"] == len(EXPRS)
        assert counters["planner.legs"] == sum(
            len(o.plan.legs) for o in outcomes
        )
        # Plans 1 and 2 share the GREATER(51) leg, so the batch-wide token
        # union is strictly smaller than the summed per-leg token lists.
        assert counters["planner.dedup_saved"] > 0


class TestCrossShapeIdentity:
    def test_full_snapshot_identical_across_shards(self, tparams, owner_factory):
        """planner.* included: the counters are shape-independent."""
        cells = []
        for shards in (1, 4):
            system, outcomes, snap = run_plan_path(tparams, owner_factory, shards)
            cells.append(
                (
                    [leg_fingerprint(o) for out in outcomes for o in out.legs],
                    [sorted(out.record_ids) for out in outcomes],
                    system.balances(),
                    snap,
                )
            )
        assert cells[0] == cells[1], "plan path drifted at shards=4"


class TestSettlementModes:
    def test_block_mode_plans_match_sync(self, tparams, owner_factory):
        runs = {}
        for mode in ("sync", "block"):
            system, outcomes, snap = run_plan_path(
                tparams, owner_factory, mode=mode
            )
            runs[mode] = (
                [
                    (
                        o.verified,
                        sorted(o.record_ids),
                        wire.dump_response(o.response),
                        o.submit_receipt.gas_used,
                    )
                    for out in outcomes
                    for o in out.legs
                ],
                [(out.verified, sorted(out.record_ids)) for out in outcomes],
                system.balances(),
                planner_counters(snap),
            )
        assert runs["block"] == runs["sync"]


class LegTamperCloud(CloudServer):
    """An adversary that corrupts the proofs of chosen batch positions.

    Unlike :class:`MaliciousCloud` (which tampers every query), this cloud
    serves the batch honestly and then replaces the witnesses of the
    selected query indices with ``w = 1`` — which cannot satisfy
    ``w^p == Ac`` — so exactly those legs fail verification.
    """

    def __init__(self, params, trapdoor_public, tampered):
        super().__init__(params, trapdoor_public)
        self._tampered = set(tampered)

    def search_many(self, token_lists, **hooks):
        honest = super().search_many(token_lists, **hooks)
        return [
            SearchResponse(
                [
                    TokenResult(r.token, r.entries, MembershipWitness(1))
                    for r in response.results
                ]
            )
            if qi in self._tampered
            else response
            for qi, response in enumerate(honest)
        ]


class TestTamperedLegFairness:
    def test_tampered_leg_refunds_only_its_own_escrow(
        self, tparams, owner_factory
    ):
        # Flattened leg layout for EXPRS:
        #   plan 0 -> legs 0,1   plan 1 -> legs 2,3
        #   plan 2 -> leg  4     plan 3 -> legs 5,6,7
        tampered_index = 4  # plan 2's single equality leg

        fresh_process_state()
        honest = deploy(tparams, owner_factory)
        honest_outcomes = honest.search_plans(EXPRS)
        honest_balances = honest.balances()

        fresh_process_state()
        owner = owner_factory(tparams, seed=11)
        system = SlicerSystem(tparams, rng=default_rng(11), owner=owner)
        system.cloud = LegTamperCloud(
            tparams, owner.keys.trapdoor.public, {tampered_index}
        )
        system.setup(database())
        outcomes = system.search_plans(EXPRS)

        # Only plan 2 loses its verdict; its siblings keep theirs and
        # their answers.
        assert [out.verified for out in outcomes] == [True, True, False, True]
        assert outcomes[2].record_ids == set()
        for honest_out, out in zip(honest_outcomes, outcomes):
            if out.verified:
                assert out.record_ids == honest_out.record_ids

        # Leg-level: exactly the tampered flat index was refunded.
        flat = [leg for out in outcomes for leg in out.legs]
        assert [leg.verified for leg in flat] == [
            i != tampered_index for i in range(len(flat))
        ]

        # Escrow arithmetic: the cloud lost exactly one leg's payment to
        # the user, nothing else moved.
        balances = system.balances()
        assert (
            honest_balances["cloud"] - balances["cloud"] == DEFAULT_PAYMENT
        )
        assert balances["user"] - honest_balances["user"] == DEFAULT_PAYMENT
        assert balances["owner"] == honest_balances["owner"]
