"""Block settlement ≡ synchronous settlement: the mode is a delivery knob.

The tentpole invariance, asserted across the execution-shape grid:

* **outcomes** — verdicts, record IDs, wire responses, submit/settle gas
  and final balances are bit-identical between ``settlement_mode="sync"``
  and ``"block"``, at shards 1 and 4, through single
  searches, inserts and block-batched searches;
* **counters** — the deterministic counter snapshot is identical across
  modes: block production moves *when* a settlement lands, never how much
  protocol work or gas it takes (``mempool.*``/``blocks.*``/
  ``light_client.*`` delivery machinery is excluded at the source, like
  ``shard.*`` before it);
* **fault determinism** — the same seed yields a bit-identical
  ``ChainFaultPlan.history`` run to run, and enabling chain faults leaves
  the *transport* fault schedule untouched (independent RNG streams);
* **provability** — every block-mode settlement is checkable by a light
  client from a header + settlement proof, across reorgs.

Kernel memo caches are process-global, so every leg starts cold
(``kernels.clear_caches()`` + registry reset) — otherwise the second run
inherits warm ``hash_to_prime`` memos and the comparison measures session
history, not the settlement mode.
"""

import pytest

from repro.chaos import ChainFaultPlan, ChaosTransport, FaultPlan, chain_profile_named, profile_named
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.query import Query
from repro.core.records import make_database
from repro.crypto import kernels
from repro.obs.metrics import REGISTRY
from repro.system import SlicerSystem

VALUES = [7, 7, 9, 40, 41, 64, 3, 200, 128, 255]
EXTRA = [7, 41, 130]
QUERIES = [
    Query.parse(7, "="),
    Query.parse(40, ">"),
    Query.parse(41, "<"),
    Query.parse(200, "="),
]
BATCH = [Query.parse(9, "="), Query.parse(64, "<"), Query.parse(101, "=")]


def database(values, start=0):
    return make_database(
        [(f"rec-{start + i}", v) for i, v in enumerate(values)], bits=8
    )


def fresh_process_state():
    kernels.clear_caches()
    REGISTRY.reset()


def deploy(tparams, owner_factory, mode, shards=1, chain_faults=None, seed=11):
    system = SlicerSystem(
        tparams,
        rng=default_rng(seed),
        owner=owner_factory(tparams, seed=seed),
        shards=shards,
        settlement_mode=mode,
        chain_faults=chain_faults,
    )
    system.setup(database(VALUES))
    return system


def run_scenario(system):
    """Searches -> insert -> searches (the byte-identity flow).

    ``batch_search`` is deliberately NOT part of the identity comparison:
    sync batches settle through one amortised ``batch_verify_and_settle``
    receipt, block batches settle per-escrow inside one block (trading the
    receipt-level identity for per-escrow header provability) — see
    :class:`TestBatchBlockSettlement` for that flow's own invariants.
    """
    outcomes = [system.search(q) for q in QUERIES]
    system.insert(database(EXTRA, start=100))
    outcomes.extend(system.search(q) for q in QUERIES)
    return outcomes


def fingerprint(outcome):
    return (
        outcome.verified,
        sorted(outcome.record_ids),
        wire.dump_response(outcome.response),
        outcome.submit_receipt.gas_used,
        outcome.settle_receipt.gas_used,
    )


@pytest.mark.parametrize("shards", [1, 4])
class TestModeEquivalence:
    def test_block_equals_sync_everywhere(self, tparams, owner_factory, shards):
        runs = {}
        for mode in ("sync", "block"):
            fresh_process_state()
            system = deploy(tparams, owner_factory, mode, shards)
            outcomes = run_scenario(system)
            runs[mode] = (
                [fingerprint(o) for o in outcomes],
                system.balances(),
                REGISTRY.deterministic_snapshot(),
                outcomes,
                system,
            )
        sync_fp, sync_bal, sync_snap, _, _ = runs["sync"]
        blk_fp, blk_bal, blk_snap, blk_outcomes, blk_system = runs["block"]
        assert blk_fp == sync_fp, "block-mode outcomes drifted from sync"
        assert blk_bal == sync_bal, "block-mode escrow arithmetic drifted"
        assert blk_snap == sync_snap, "deterministic counters drifted"
        # Every block-mode settlement is height-stamped and header-provable.
        from repro.blockchain import follow

        client = follow(blk_system.chain)
        for outcome in blk_outcomes:
            assert outcome.settle_height is not None
            assert client.check_settlement(blk_system.settlement_proof(outcome))


class TestBatchBlockSettlement:
    """Block-mode batches: one block settles every escrow, each provably.

    Verdicts, record IDs, responses and *submit* gas match the sync batch
    bit for bit; the settlement receipts intentionally differ (N per-escrow
    ``verify_and_settle`` transactions in one block vs. one amortised
    ``batch_verify_and_settle``), which is exactly what buys each escrow an
    individually provable leaf in the header's settlement root.
    """

    def test_batch_verdicts_balances_and_provability(self, tparams, owner_factory):
        runs = {}
        for mode in ("sync", "block"):
            fresh_process_state()
            system = deploy(tparams, owner_factory, mode)
            outcomes = system.batch_search(QUERIES + BATCH)
            runs[mode] = (system, outcomes)
        sync_system, sync_outcomes = runs["sync"]
        blk_system, blk_outcomes = runs["block"]
        assert [
            (o.verified, sorted(o.record_ids), wire.dump_response(o.response),
             o.submit_receipt.gas_used)
            for o in blk_outcomes
        ] == [
            (o.verified, sorted(o.record_ids), wire.dump_response(o.response),
             o.submit_receipt.gas_used)
            for o in sync_outcomes
        ]
        assert blk_system.balances() == sync_system.balances()
        # One block carried the whole round...
        heights = {o.settle_height for o in blk_outcomes}
        assert len(heights) == 1 and None not in heights
        # ...and every escrow in it is individually header-provable.
        from repro.blockchain import follow

        client = follow(blk_system.chain)
        for outcome in blk_outcomes:
            proof = blk_system.settlement_proof(outcome)
            assert client.check_settlement(proof)


class TestFaultDeterminism:
    def test_same_seed_same_chain_schedule(self, tparams, owner_factory):
        histories = []
        for _ in range(2):
            fresh_process_state()
            faults = ChainFaultPlan(chain_profile_named("reorgy"), seed=23)
            system = deploy(
                tparams, owner_factory, "block", chain_faults=faults
            )
            for q in QUERIES:
                assert system.search(q).settled
            histories.append(tuple(faults.history))
        assert histories[0] == histories[1]
        assert any(":" in out for _, _, out in histories[0]), (
            "the reorgy schedule must actually inject at this seed"
        )

    def test_chain_faults_leave_transport_schedule_untouched(
        self, tparams, owner_factory
    ):
        """ChainFaultPlan draws from its own RNG stream: enabling reorgs
        must not shift a single transport fault decision."""
        histories = {}
        for label, chain_faults in (
            ("without", None),
            ("with", ChainFaultPlan(chain_profile_named("reorgy"), seed=23)),
        ):
            fresh_process_state()
            transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=17))
            system = SlicerSystem(
                tparams,
                rng=default_rng(11),
                owner=owner_factory(tparams, seed=11),
                transport=transport,
                settlement_mode="block",
                chain_faults=chain_faults,
            )
            system.setup(database(VALUES))
            outcomes = [system.search(q) for q in QUERIES]
            assert all(o.settled for o in outcomes)
            histories[label] = tuple(transport.plan.history)
        assert histories["with"] == histories["without"]

    def test_reorg_faults_preserve_mode_equivalence(self, tparams, owner_factory):
        """With reorgs enabled the verdicts and balances still match sync."""
        fresh_process_state()
        sync_system = deploy(tparams, owner_factory, "sync")
        sync_outcomes = run_scenario(sync_system)

        fresh_process_state()
        system = deploy(
            tparams,
            owner_factory,
            "block",
            chain_faults=ChainFaultPlan(chain_profile_named("reorgy"), seed=23),
        )
        outcomes = run_scenario(system)
        assert [(o.verified, sorted(o.record_ids)) for o in outcomes] == [
            (o.verified, sorted(o.record_ids)) for o in sync_outcomes
        ]
        assert system.balances() == sync_system.balances()
        assert system.builder.reorgs > 0, "the reorgy profile must fire"
        system.chain.verify_integrity()
