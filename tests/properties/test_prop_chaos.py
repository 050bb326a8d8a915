"""Chaos ≡ direct (satellite property suite).

Two equivalences pin the chaos layer down:

* **transparency** — a fault-free (``clean`` profile) chaos run is
  byte-identical to the direct in-process path: same responses on the wire,
  same verdicts, same decrypted IDs;
* **determinism** — the same chaos seed replays the identical fault
  schedule, outcomes, and ``chaos.*`` / ``retry.*`` counters (the fault
  plan's RNG is independent of the protocol's).

Only ``chaos.*`` / ``retry.*`` counters are compared: kernel counters
(memo hits etc.) are process-warm, so their absolute values depend on what
ran earlier in the session.
"""

import pytest

from repro.chaos import ChaosTransport, FaultPlan, profile_named
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.query import Query
from repro.core.records import make_database
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
    """The fixed workload every equivalence run replays."""
    outcomes = [system.search(q) for q in QUERIES]
    system.insert(database(EXTRA, start=100))
    outcomes.extend(system.search(q) for q in QUERIES)
    return outcomes


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
