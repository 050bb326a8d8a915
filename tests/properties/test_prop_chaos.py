"""Chaos ≡ direct (satellite property suite).

Two equivalences pin the chaos layer down:

* **transparency** — a fault-free (``clean`` profile) chaos run is
  byte-identical to the direct in-process path: same responses on the wire,
  same verdicts, same decrypted IDs;
* **determinism** — the same chaos seed replays the identical fault
  schedule, outcomes, and ``chaos.*`` / ``retry.*`` counters (the fault
  plan's RNG is independent of the protocol's).

Both run every entry point: single searches, an insert, a batch and a plan
batch.  Batches and plans also cross faults on their own legs: under
``lossy`` they settle every escrow exactly once with the direct run's
verdicts, and when every delivery drops, each escrow degrades.

Only ``chaos.*`` / ``retry.*`` counters are compared: kernel counters
(memo hits etc.) are process-warm, so their absolute values depend on what
ran earlier in the session.
"""

import pytest

from repro.chaos import ChaosTransport, FaultPlan, FaultProfile, profile_named
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.query import Query
from repro.core.records import make_database
from repro.planner import And, Range
from repro.system import DEFAULT_FUNDING, DeliveryFailure, SlicerSystem

VALUES = [7, 7, 9, 40, 41, 64, 3, 200]
EXTRA = [7, 41]
QUERIES = [
    Query.parse(7, "="),
    Query.parse(40, ">"),
    Query.parse(41, "<"),
]
BATCH = [Query.parse(7, "="), Query.parse(40, ">"), Query.parse(7, "=")]
PLANS = [Range(5, 64), And(Range(0, 100), Range(7, 200))]
#: Every request leg drops, and no clean delivery is ever forced.
BLACK_HOLE = FaultProfile(name="black_hole", drop=1000, force_clean_after=1000)


def database(values, start=0):
    return make_database(
        [(f"rec-{start + i}", v) for i, v in enumerate(values)], bits=8
    )


def build_system(tparams, owner_factory, seed, transport=None, shards=1):
    system = SlicerSystem(
        tparams,
        rng=default_rng(seed),
        owner=owner_factory(tparams, seed=seed),
        transport=transport,
        shards=shards,
    )
    system.setup(database(VALUES))
    return system


def run_batch(system):
    return system.batch_search(BATCH)


def run_plans(system):
    return [leg for plan in system.search_plans(PLANS) for leg in plan.legs]


def run_scenario(system):
    """The fixed workload every equivalence run replays."""
    outcomes = [system.search(q) for q in QUERIES]
    system.insert(database(EXTRA, start=100))
    outcomes.extend(system.search(q) for q in QUERIES)
    outcomes.extend(run_batch(system))
    outcomes.extend(run_plans(system))
    return outcomes


def injected():
    return sum(v for k, v in chaos_counters().items() if k.startswith("chaos.injected."))


def settlements():
    return perfstats.get("contract.settle.paid") + perfstats.get("contract.settle.refunded")


def funds(system):
    """Every account's balance plus what the contract holds in escrow."""
    return sum(system.balances().values()) + system.chain.balance(system.contract.address)


def chaos_counters():
    return {
        k: v
        for k, v in perfstats.snapshot().items()
        if k.startswith(("chaos.", "retry."))
    }


def outcome_fingerprint(outcome):
    return (
        outcome.verified,
        outcome.error,
        outcome.query_id,
        sorted(outcome.record_ids),
        None if outcome.response is None else wire.dump_response(outcome.response),
    )


class TestCleanChaosTransparency:
    def test_clean_chaos_byte_identical_to_direct(self, tparams, owner_factory):
        direct = run_scenario(build_system(tparams, owner_factory, seed=7))
        transport = ChaosTransport(FaultPlan(profile_named("clean"), seed=1))
        chaos = run_scenario(
            build_system(tparams, owner_factory, seed=7, transport=transport)
        )
        assert len(direct) == len(chaos)
        for d, c in zip(direct, chaos):
            assert d.verified and c.verified
            assert wire.dump_response(d.response) == wire.dump_response(c.response)
            assert d.record_ids == c.record_ids
            assert d.query_id == c.query_id

    def test_clean_chaos_injects_nothing(self, tparams, owner_factory):
        perfstats.reset()
        transport = ChaosTransport(FaultPlan(profile_named("clean"), seed=1))
        run_scenario(build_system(tparams, owner_factory, seed=7, transport=transport))
        counters = chaos_counters()
        assert not any(k.startswith("chaos.injected.") for k in counters)
        assert counters.get("retry.gave_up", 0) == 0
        assert counters.get("retry.recovered", 0) == 0


class TestSeedDeterminism:
    @pytest.mark.parametrize("profile", ["lossy", "crash_restart"])
    def test_same_seed_same_outcomes_counters_and_schedule(
        self, tparams, owner_factory, profile
    ):
        runs = []
        for _ in range(2):
            perfstats.reset()
            transport = ChaosTransport(FaultPlan(profile_named(profile), seed=9))
            system = build_system(tparams, owner_factory, seed=7, transport=transport)
            outcomes = run_scenario(system)
            runs.append(
                (
                    [outcome_fingerprint(o) for o in outcomes],
                    [o.attempts for o in outcomes],
                    chaos_counters(),
                    list(transport.plan.history),
                )
            )
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self, tparams, owner_factory):
        histories = []
        for seed in (9, 10):
            transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=seed))
            run_scenario(build_system(tparams, owner_factory, seed=7, transport=transport))
            histories.append(list(transport.plan.history))
        assert histories[0] != histories[1]


class TestBatchAndPlanLegsCrossChaos:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("entry", [run_batch, run_plans], ids=["batch", "plans"])
    def test_lossy_faults_hit_the_legs_and_every_escrow_settles_once(
        self, tparams, owner_factory, shards, entry
    ):
        direct = entry(build_system(tparams, owner_factory, seed=7, shards=shards))
        transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=9))
        system = build_system(tparams, owner_factory, seed=7, transport=transport, shards=shards)
        assert funds(system) == 3 * DEFAULT_FUNDING
        faults, settled = injected(), settlements()

        outcomes = entry(system)

        assert injected() > faults, "the entry point's own legs drew no fault"
        assert settlements() - settled == len(outcomes)
        assert len({o.query_id for o in outcomes}) == len(outcomes)
        assert all(o.settled and o.error is None for o in outcomes)
        assert funds(system) == 3 * DEFAULT_FUNDING
        assert [outcome_fingerprint(o) for o in outcomes] == [
            outcome_fingerprint(o) for o in direct
        ]

    @pytest.mark.parametrize("entry", [run_batch, run_plans], ids=["batch", "plans"])
    def test_exhausted_budget_degrades_every_escrow(self, tparams, owner_factory, entry):
        transport = ChaosTransport(FaultPlan(BLACK_HOLE, seed=3))
        system = build_system(tparams, owner_factory, seed=7, transport=transport)
        before = system.balances()

        outcomes = entry(system)

        assert len(outcomes) > 1
        for outcome in outcomes:
            assert not outcome.verified and not outcome.settled
            assert outcome.error is not None and outcome.response is None
            assert isinstance(outcome.failure, DeliveryFailure)
            assert outcome.failure.error_type == "TransportTimeout"
            assert outcome.failure.label == "submit_query"
        assert len({id(o.failure) for o in outcomes}) == len(outcomes)
        assert system.balances() == before  # the cloud gains nothing
        assert funds(system) == 3 * DEFAULT_FUNDING
