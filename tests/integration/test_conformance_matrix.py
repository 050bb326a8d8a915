"""Adversarial conformance matrix: Misbehavior × query shape × fault profile.

The headline chaos claim, asserted cell by cell:

* an **honest** cloud always settles **paid**, under every fault profile;
* a response that differs from what an honest cloud would have sent is
  always **refunded** — and one that is byte-identical to honest output is
  paid, even if produced by a "malicious" cloud whose tampering happened to
  be a no-op (dropping from an empty result, omitting epochs that don't
  exist yet, ``STALE_WITNESS``'s honest fallback);
* **no fault profile flips either outcome** — drops, duplicates, bit rot,
  reordering and cloud crashes change how many retries a search needs,
  never who gets the escrow.

The expected verdict is not hand-coded per cell: every outcome is compared
against an *honest twin* — a fresh ``CloudServer`` restored from the
(actual, possibly malicious) cloud's state snapshot — which makes the
oracle exact for no-op tampering without enumerating the no-op cases.
"""

import pytest

from repro.blockchain.slicer_contract import response_to_chain_args, tokens_digest_input
from repro.chaos import ChaosTransport, FaultPlan, FaultProfile, profile_named
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.audit import AuditRecord, ThirdPartyAuditor
from repro.core.cloud import CloudServer, MaliciousCloud, Misbehavior
from repro.core.query import Query, Range
from repro.core.records import make_database
from repro.system import DEFAULT_FUNDING, SlicerSystem

PAYMENT = 5000
VALUES = [7, 7, 9, 40, 41, 64, 3, 200]
#: Inserted after setup so the queried keywords gain a second epoch —
#: without this, OMIT_OLD_EPOCHS would be a no-op in every cell.
EXTRA = [7, 41]

BEHAVIORS = [None, *Misbehavior]  # None = honest
PROFILE_NAMES = ["clean", "lossy", "crash_restart"]

#: shape name -> callable running it; returns the per-side outcomes.
SHAPES = [
    ("eq", lambda s: [s.search(Query.parse(7, "="), payment=PAYMENT)]),
    ("one_sided", lambda s: [s.search(Query.parse(40, ">"), payment=PAYMENT)]),
    # Each leg of a two-sided range crosses the chaos transport as its own search.
    (
        "range",
        lambda s: [s.search(q, payment=PAYMENT) for q in Range(5, 64).to_queries(8)],
    ),
    ("empty", lambda s: [s.search(Query.parse(101, "="), payment=PAYMENT)]),
    # Both escrows settle in one call: under sync settlement the shared
    # escrow body runs on ``batch_verify_and_settle``.
    (
        "batch",
        lambda s: s.batch_search(
            [Query.parse(7, "="), Query.parse(40, ">")], payment=PAYMENT
        ),
    ),
]

#: The settle receipt's gas items that only Algorithm 5 charges.
CHECK_GAS_ITEMS = ("mulmod", "primality", "modexp")

#: Tampering that is *guaranteed* non-trivial on the post-insert ``eq``
#: shape (non-empty results, two epochs) — these cells must refund.
EFFECTIVE_ON_EQ = {
    Misbehavior.DROP_ENTRY,
    Misbehavior.INJECT_ENTRY,
    Misbehavior.TAMPER_ENTRY,
    Misbehavior.OMIT_OLD_EPOCHS,
    Misbehavior.FORGE_WITNESS,
    Misbehavior.EMPTY_RESULT,
}


def database(values, start=0):
    return make_database(
        [(f"rec-{start + i}", v) for i, v in enumerate(values)], bits=8
    )


def build_cell(tparams, owner_factory, behavior, profile, chaos_seed=17):
    owner = owner_factory(tparams, seed=7)
    transport = ChaosTransport(FaultPlan(profile, seed=chaos_seed))
    system = SlicerSystem(
        tparams, rng=default_rng(7), owner=owner, transport=transport
    )
    if behavior is not None:
        system.cloud = MaliciousCloud(
            tparams, owner.keys.trapdoor.public, behavior, default_rng(11)
        )
    system.setup(database(VALUES))
    system.insert(database(EXTRA, start=100))
    return system


def honest_twin(system) -> CloudServer:
    """An honest cloud rebuilt from the actual cloud's state snapshot."""
    twin = CloudServer(system.params, system.owner.keys.trapdoor.public)
    twin.restore(system.cloud.snapshot())
    return twin


class TestConformanceMatrix:
    @pytest.mark.parametrize(
        "behavior", BEHAVIORS, ids=lambda b: "honest" if b is None else b.value
    )
    def test_matrix_cell(self, tparams, owner_factory, behavior):
        verdicts_by_profile = {}
        for profile_name in PROFILE_NAMES:
            perfstats.reset()
            system = build_cell(
                tparams, owner_factory, behavior, profile_named(profile_name)
            )
            twin = honest_twin(system)
            auditor = ThirdPartyAuditor(tparams)
            verdicts = {}
            expected_cloud_gain = 0
            for shape_name, run_shape in SHAPES:
                sides = run_shape(system)
                cell = (behavior, shape_name, profile_name)
                for outcome in sides:
                    # Liveness: bounded fault streaks + the retry budget mean
                    # every search settles — no degraded outcomes, ever.
                    assert outcome.error is None, (shape_name, outcome.error)
                    assert outcome.settled
                    # The fairness oracle: paid iff byte-identical to honest.
                    honest_bytes = wire.dump_response(twin.search(outcome.tokens))
                    got_bytes = wire.dump_response(outcome.response)
                    assert outcome.verified == (got_bytes == honest_bytes), cell
                    # Public verifiability: a keyless auditor re-running the
                    # check over the settle calldata and the settled Ac
                    # reaches the contract's verdict...
                    record = AuditRecord.from_chain_args(
                        response_to_chain_args(outcome.response), system.cloud.ads_value
                    )
                    assert auditor.audit(record).ok == outcome.verified, cell
                    if outcome.verified and shape_name != "batch":
                        # ...and, where the contract ran every token, bills
                        # exactly the gas the settlement paid for the check.
                        billed = outcome.settle_receipt.gas_breakdown
                        audited = auditor.meter.breakdown
                        for item in CHECK_GAS_ITEMS:
                            assert audited.get(item) == billed.get(item), (cell, item)
                    if outcome.verified:
                        expected_cloud_gain += PAYMENT
                verdicts[shape_name] = tuple(o.verified for o in sides)

            # The escrow moved money for exactly the paid cells: duplicates
            # were deduplicated, refunds returned the full payment.
            balances = system.balances()
            assert balances["cloud"] == DEFAULT_FUNDING + expected_cloud_gain
            assert balances["user"] == DEFAULT_FUNDING - expected_cloud_gain
            assert perfstats.get("retry.gave_up") == 0
            verdicts_by_profile[profile_name] = verdicts

        # No fault profile flips any outcome.
        clean = verdicts_by_profile["clean"]
        for profile_name in PROFILE_NAMES[1:]:
            assert verdicts_by_profile[profile_name] == clean, profile_name

        if behavior is None:
            # Honest cloud: paid in every cell of every profile.
            assert all(all(v) for v in clean.values())
        elif behavior in EFFECTIVE_ON_EQ:
            # Non-trivial tampering on a non-empty, two-epoch result: refund.
            assert clean["eq"] == (False,)

    def test_faults_were_actually_injected(self, tparams, owner_factory):
        """Guards the matrix against vacuity: lossy cells really see faults."""
        perfstats.reset()
        system = build_cell(
            tparams, owner_factory, None, profile_named("lossy"), chaos_seed=17
        )
        for _, run_shape in SHAPES:
            run_shape(system)
        injected = sum(
            v for k, v in perfstats.snapshot().items()
            if k.startswith("chaos.injected.")
        )
        assert injected > 0
        assert perfstats.get("retry.attempts") > 0


class TestWarmCacheColumn:
    """The epoch-suffix entry cache adds a warm column to the matrix: every
    shape runs twice on the same system, and the verdicts must be identical
    cold and warm — a cached walk changes what the cloud *computes*, never
    what the verifier *accepts*.  In particular OMIT_OLD_EPOCHS (whose
    truncated walk bypasses the cache) and TAMPER_ENTRY are caught the same
    way when the honest base response came out of the cache."""

    WARM_BEHAVIORS = [None, Misbehavior.OMIT_OLD_EPOCHS, Misbehavior.TAMPER_ENTRY]

    @pytest.mark.parametrize(
        "behavior",
        WARM_BEHAVIORS,
        ids=lambda b: "honest" if b is None else b.value,
    )
    def test_verdicts_identical_cold_and_warm(
        self, tparams, owner_factory, behavior, monkeypatch
    ):
        from repro.crypto import kernels

        monkeypatch.setenv(kernels.KERNELS_ENV, "1")
        kernels.clear_caches()
        system = build_cell(tparams, owner_factory, behavior, profile_named("clean"))
        runs = []
        for leg in ("cold", "warm"):
            perfstats.reset("cloud.entry_cache.")
            verdicts = {}
            for shape_name, run_shape in SHAPES:
                sides = run_shape(system)
                assert all(o.settled and o.error is None for o in sides)
                verdicts[shape_name] = tuple(o.verified for o in sides)
            runs.append(verdicts)
            if leg == "warm":
                # The warm leg really was warm: repeats hit the cache.
                assert perfstats.get("cloud.entry_cache.hit") > 0
        assert runs[0] == runs[1], behavior
        if behavior is None:
            assert all(all(v) for v in runs[0].values())
        else:
            assert runs[0]["eq"] == (False,)  # tampering caught, both legs


class TestCrashRecoveryInMatrix:
    def test_forced_crashes_rebuild_witness_cache_and_still_pay(
        self, tparams, owner_factory
    ):
        """Every delivery crashes the cloud once; restarts restore the
        snapshot (witnesses it cannot vouch for fall back to live
        ``MemWit``), and the search still settles paid."""
        profile = FaultProfile(name="forced-crash", crash=1000, force_clean_after=1)
        perfstats.reset()
        system = build_cell(tparams, owner_factory, None, profile)
        system.cloud.precompute_witnesses()
        outcome = system.search(Query.parse(7, "="), payment=PAYMENT)
        assert outcome.verified
        assert perfstats.get("chaos.cloud_restarts") > 0
        assert outcome.attempts > 2

    def test_crash_between_install_and_ads_update(self, tparams, owner_factory):
        """A cloud that crashes during an insert restarts into the freshly
        installed state (the snapshot is taken atomically with the install),
        so post-insert searches verify against the new on-chain digest."""
        profile = profile_named("crash_restart")
        system = build_cell(tparams, owner_factory, None, profile, chaos_seed=23)
        for extra_seed in range(3):  # several inserts, several crash windows
            system.insert(database([50 + extra_seed], start=200 + extra_seed))
            outcome = system.search(Query.parse(50 + extra_seed, "="), payment=PAYMENT)
            assert outcome.verified
            assert len(outcome.record_ids) == 1


class TestConcurrentInsertAndSearch:
    """Insert lands between submit and settle — the interleaving cell."""

    def _submit(self, system, tokens):
        receipt = system.chain.call(
            system.user_address,
            system.contract,
            "submit_query",
            (tokens_digest_input(tokens),),
            value=PAYMENT,
        )
        assert receipt.status
        return receipt.return_value

    def _settle(self, system, query_id, tokens):
        response = system.cloud.search(tokens)
        receipt = system.chain.call(
            system.cloud_address,
            system.contract,
            "verify_and_settle",
            (query_id, system.cloud.ads_value, response_to_chain_args(response)),
        )
        assert receipt.status
        return receipt, response

    def test_unrelated_insert_between_submit_and_settle_pays(
        self, tparams, owner_factory
    ):
        system = build_cell(tparams, owner_factory, None, profile_named("lossy"))
        tokens = system.user.make_tokens(Query.parse(7, "="))
        query_id = self._submit(system, tokens)
        system.insert(database([99], start=300))  # untouched keyword
        receipt, _ = self._settle(system, query_id, tokens)
        assert receipt.return_value is True
        assert system.balances()["cloud"] == DEFAULT_FUNDING + PAYMENT

    def test_related_insert_serves_snapshot_of_submission_epoch(
        self, tparams, owner_factory
    ):
        """Tokens fix the epoch they were generated at: a concurrent insert
        to the same keyword doesn't break settlement, and the result is the
        complete pre-insert snapshot — the freshness anchor is the *user's*
        refreshed token, not the settle-time state."""
        system = build_cell(tparams, owner_factory, None, profile_named("lossy"))
        baseline = system.search(Query.parse(7, "="), payment=PAYMENT)
        assert baseline.verified

        tokens = system.user.make_tokens(Query.parse(7, "="))
        query_id = self._submit(system, tokens)
        system.insert(database([7], start=400))  # same keyword, new epoch
        receipt, response = self._settle(system, query_id, tokens)
        assert receipt.return_value is True
        stale_ids = system.user.decrypt_results(response)
        assert stale_ids == baseline.record_ids  # the pre-insert snapshot

        # A refreshed query sees the new record too.
        fresh = system.search(Query.parse(7, "="), payment=PAYMENT)
        assert fresh.verified
        assert len(fresh.record_ids) == len(stale_ids) + 1


class TestShardFaultCells:
    """The sharded serving tier's column of the matrix: one bad shard (dead
    or tampering) is caught and refunded for exactly the queries routed to
    it, while queries served entirely by honest live shards still settle
    paid — a compromised shard cannot poison the rest of the tier's
    settlements."""

    AFFECTED = Query.parse(7, "=")   # routes to the victim shard
    SPARED = Query.parse(200, "=")   # routes elsewhere (asserted per cell)

    def build_tier_cell(self, tparams, owner_factory, profile_name="lossy"):
        from repro.sharding.plan import equality_route

        owner = owner_factory(tparams, seed=7)
        transport = ChaosTransport(FaultPlan(profile_named(profile_name), seed=17))
        system = SlicerSystem(
            tparams, rng=default_rng(7), owner=owner, transport=transport, shards=4
        )
        system.setup(database(VALUES))
        system.insert(database(EXTRA, start=100))
        route = equality_route(owner.keys.prf_key, tparams.value_bits, system.cloud.plan)
        victim = route(self.AFFECTED)
        assert route(self.SPARED) != victim, "fixture queries must split shards"
        return system, victim

    def test_dead_shard_refunds_only_its_queries(self, tparams, owner_factory):
        from repro.obs import audit as obs_audit

        system, victim = self.build_tier_cell(tparams, owner_factory)
        baseline = system.search(self.AFFECTED, payment=PAYMENT)
        assert baseline.verified, "pre-fault tier must settle paid"

        system.cloud.kill_shard(victim)
        refunded = system.search(self.AFFECTED, payment=PAYMENT)
        assert refunded.settled and not refunded.verified
        assert refunded.record_ids == set()
        paid = system.search(self.SPARED, payment=PAYMENT)
        assert paid.settled and paid.verified

        # Escrow moved money for exactly the paid searches.
        balances = system.balances()
        assert balances["cloud"] == DEFAULT_FUNDING + 2 * PAYMENT
        assert balances["user"] == DEFAULT_FUNDING - 2 * PAYMENT
        # The audit log attributes each verdict to the shards it touched.
        last_two = obs_audit.AUDIT_LOG.records()[-2:]
        assert [r.verdict for r in last_two] == ["refunded", "paid"]
        assert victim in last_two[0].extra["shards"]
        assert victim not in last_two[1].extra["shards"]

    def test_tampering_shard_caught_honest_shards_paid(self, tparams, owner_factory):
        system, victim = self.build_tier_cell(tparams, owner_factory)
        frontend = system.cloud
        honest_bytes = wire.dump_response(
            system.search(self.AFFECTED, payment=PAYMENT).response
        )

        # Compromise one shard in place: same state, tampering search path.
        evil = MaliciousCloud(
            tparams,
            system.owner.keys.trapdoor.public,
            Misbehavior.TAMPER_ENTRY,
            default_rng(11),
        )
        evil.restore(frontend.snapshot_shard(victim))
        frontend.shard_servers[victim] = evil

        tampered = system.search(self.AFFECTED, payment=PAYMENT)
        assert tampered.settled and not tampered.verified
        assert wire.dump_response(tampered.response) != honest_bytes
        paid = system.search(self.SPARED, payment=PAYMENT)
        assert paid.settled and paid.verified

        balances = system.balances()
        assert balances["cloud"] == DEFAULT_FUNDING + 2 * PAYMENT
        assert balances["user"] == DEFAULT_FUNDING - 2 * PAYMENT

    def test_recovered_shard_rejoins_the_paid_column(self, tparams, owner_factory):
        system, victim = self.build_tier_cell(tparams, owner_factory)
        frontend = system.cloud
        snap = frontend.snapshot_shard(victim)
        frontend.kill_shard(victim)
        assert not system.search(self.AFFECTED, payment=PAYMENT).verified
        frontend.restore_shard(victim, snap)
        recovered = system.search(self.AFFECTED, payment=PAYMENT)
        assert recovered.verified, "a restored shard must settle paid again"


class TestBlockSettlementCells:
    """Block settlement's column of the matrix: reorgs, late settlement,
    duplicate re-submission, malicious clouds — none of it moves a verdict
    or an escrowed coin relative to the synchronous reference.

    Chain faults act *below* the protocol (on when blocks carry what), so
    the oracle is double: every outcome must match the honest twin byte-
    oracle AND the verdict the synchronous cell produced for the same seed.
    """

    CHAIN_PROFILES = ["stable", "reorgy", "congested"]

    def build_block_cell(
        self, tparams, owner_factory, behavior, chain_profile, chaos_seed=17
    ):
        from repro.chaos import ChainFaultPlan, chain_profile_named

        owner = owner_factory(tparams, seed=7)
        transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=chaos_seed))
        system = SlicerSystem(
            tparams,
            rng=default_rng(7),
            owner=owner,
            transport=transport,
            settlement_mode="block",
            chain_faults=ChainFaultPlan(
                chain_profile_named(chain_profile), seed=chaos_seed
            ),
        )
        if behavior is not None:
            system.cloud = MaliciousCloud(
                tparams, owner.keys.trapdoor.public, behavior, default_rng(11)
            )
        system.setup(database(VALUES))
        system.insert(database(EXTRA, start=100))
        return system

    def run_shapes(self, system, twin=None):
        verdicts = {}
        expected_cloud_gain = 0
        for shape_name, run_shape in SHAPES:
            sides = run_shape(system)
            for outcome in sides:
                assert outcome.error is None, (shape_name, outcome.error)
                assert outcome.settled
                if twin is not None:
                    honest_bytes = wire.dump_response(twin.search(outcome.tokens))
                    assert outcome.verified == (
                        wire.dump_response(outcome.response) == honest_bytes
                    ), shape_name
                expected_cloud_gain += PAYMENT if outcome.verified else 0
            verdicts[shape_name] = tuple(o.verified for o in sides)
        return verdicts, expected_cloud_gain

    @pytest.mark.parametrize(
        "behavior",
        [None, Misbehavior.TAMPER_ENTRY, Misbehavior.FORGE_WITNESS],
        ids=lambda b: "honest" if b is None else b.value,
    )
    def test_chain_faults_never_flip_a_verdict(
        self, tparams, owner_factory, behavior
    ):
        # The synchronous reference cell for the same seeds.
        sync_system = build_cell(
            tparams, owner_factory, behavior, profile_named("lossy")
        )
        sync_verdicts, _ = self.run_shapes(sync_system)
        sync_balances = sync_system.balances()

        for chain_profile in self.CHAIN_PROFILES:
            perfstats.reset()
            system = self.build_block_cell(
                tparams, owner_factory, behavior, chain_profile
            )
            # Oracle 1 (inside run_shapes): paid iff byte-identical to the
            # honest twin.
            twin = honest_twin(system)
            verdicts, expected_cloud_gain = self.run_shapes(system, twin=twin)
            # Oracle 2: the sync cell saw the same verdicts.
            assert verdicts == sync_verdicts, (behavior, chain_profile)

            # Exact escrow arithmetic: funds moved for paid cells only, and
            # no reorg or delay leaked a single escrowed coin.
            balances = system.balances()
            assert balances["cloud"] == DEFAULT_FUNDING + expected_cloud_gain
            assert balances["user"] == DEFAULT_FUNDING - expected_cloud_gain
            assert balances == sync_balances, (behavior, chain_profile)
            assert perfstats.get("retry.gave_up") == 0
            system.chain.verify_integrity()

    def test_malicious_cloud_refunded_and_refund_is_provable(
        self, tparams, owner_factory
    ):
        """MaliciousCloud x block settlement: the refund verdict itself is
        anchored in the settlement root — the user can prove they were
        refunded from a header, without replaying the chain."""
        from repro.blockchain import follow

        system = self.build_block_cell(
            tparams, owner_factory, Misbehavior.TAMPER_ENTRY, "reorgy"
        )
        twin = honest_twin(system)
        outcome = system.search(Query.parse(7, "="), payment=PAYMENT)
        honest_bytes = wire.dump_response(twin.search(outcome.tokens))
        assert wire.dump_response(outcome.response) != honest_bytes
        assert outcome.settled and not outcome.verified
        assert outcome.settle_height is not None

        proof = system.settlement_proof(outcome)
        assert proof.verified == b"\x00"
        assert follow(system.chain).check_settlement(proof)
        assert system.balances()["user"] == DEFAULT_FUNDING

    def test_reorg_depths_one_and_two_fire_and_preserve_outcomes(
        self, tparams, owner_factory
    ):
        """Both reorg depths actually occur, replay receipts match, and the
        sealed chain stays internally consistent."""
        from repro.chaos import ChainFaultPlan, ChainFaultProfile

        owner = owner_factory(tparams, seed=7)
        profile = ChainFaultProfile(
            name="churn", reorg=700, reorg_depth_max=2, force_clean_after=2
        )
        system = SlicerSystem(
            tparams,
            rng=default_rng(7),
            owner=owner,
            settlement_mode="block",
            chain_faults=ChainFaultPlan(profile, seed=29),
        )
        system.setup(database(VALUES))
        depths = set()
        for value in (7, 40, 41, 64, 3, 200, 9):
            outcome = system.search(Query.parse(value, "="), payment=PAYMENT)
            assert outcome.settled and outcome.verified
            depths = {
                severity
                for _, leg, out in system.builder.fault_plan.history
                if leg == "reorg" and ":" in out
                for severity in [int(out.split(":")[1])]
            }
        assert {1, 2} <= depths, f"both depths must fire, saw {depths}"
        assert system.builder.reorgs >= 2
        system.chain.verify_integrity()
        paid = 7 * PAYMENT
        assert system.balances()["cloud"] == DEFAULT_FUNDING + paid

    def test_settlement_delayed_past_blocks_lands_late_not_lost(
        self, tparams, owner_factory
    ):
        """Every settlement is held back: it lands d blocks late, the block
        gap is observable, and the verdict + escrow are untouched."""
        from repro.chaos import ChainFaultPlan, ChainFaultProfile

        owner = owner_factory(tparams, seed=7)
        profile = ChainFaultProfile(
            name="always-late",
            delay=1000,
            delay_blocks_max=3,
            force_clean_after=10**6,
        )
        system = SlicerSystem(
            tparams,
            rng=default_rng(7),
            owner=owner,
            settlement_mode="block",
            chain_faults=ChainFaultPlan(profile, seed=31),
        )
        system.setup(database(VALUES))
        submit_height = system.chain.height
        outcome = system.search(Query.parse(7, "="), payment=PAYMENT)
        assert outcome.verified
        assert outcome.settle_height is not None
        # Held past at least one extra sealed block boundary.
        assert outcome.settle_height > submit_height
        assert perfstats.get("chaos.chain.delayed") >= 1
        assert perfstats.get("chaos.chain.delay_blocks") >= 1
        assert system.balances()["cloud"] == DEFAULT_FUNDING + PAYMENT

    def test_duplicate_resubmission_of_settled_escrow_rejected(
        self, tparams, owner_factory
    ):
        """Re-staging an already-settled settlement id is permanently
        rejected by the mempool — the double-settle the escrow state machine
        would also catch never even reaches the chain."""
        from repro.common.errors import MempoolError

        owner = owner_factory(tparams, seed=7)
        system = SlicerSystem(
            tparams, rng=default_rng(7), owner=owner, settlement_mode="block"
        )
        system.setup(database(VALUES))
        outcome = system.search(Query.parse(7, "="), payment=PAYMENT)
        assert outcome.verified
        settled_ids = [
            tx_id for tx_id in system.builder.receipts if tx_id is not None
        ]
        tx_id = settled_ids[-1]
        with pytest.raises(MempoolError):
            system.mempool.stage(
                system.cloud_address,
                system.contract,
                "verify_and_settle",
                (outcome.query_id, system.cloud.ads_value, ()),
                gas_limit=system.settle_gas_limit,
                tx_id=tx_id,
            )
        assert perfstats.get("mempool.rejected.duplicate") >= 1
        # The escrow stayed settled exactly once.
        assert system.balances()["cloud"] == DEFAULT_FUNDING + PAYMENT
