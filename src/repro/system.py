"""End-to-end Slicer deployment: the Fig. 1 workflow in one object.

:class:`SlicerSystem` wires the four parties together:

* **data owner** — builds/updates indexes and ADS, pushes ``Ac`` on chain,
* **data user** — funds searches, generates tokens, decrypts results,
* **cloud** — stores the index, executes searches, produces VOs,
* **blockchain** — escrows payment and publicly verifies results.

The search flow follows the paper exactly: user posts tokens + payment to
the contract; the cloud reads them, searches, and submits results + VOs;
the contract verifies and settles (payment to the cloud on success, refund
on failure).  Inject a :class:`~repro.core.cloud.MaliciousCloud` to watch
the refund path fire — that is the fairness property.

Two delivery modes coexist:

* **direct** (default, ``transport=None``) — the in-process calls this file
  always had, byte-identical to before the chaos layer existed;
* **chaos** — pass a :class:`~repro.chaos.ChaosTransport` (or export
  ``REPRO_CHAOS=1``) and every party boundary serializes through
  :mod:`repro.core.wire`, crosses the fault-injecting transport, and is
  wrapped in a :class:`~repro.chaos.RetryPolicy` with idempotent
  re-submission.  When the retry budget runs out the search degrades to a
  :class:`SearchOutcome` error state instead of raising.

Orthogonally to delivery, ``settlement_mode`` picks how settlements reach
the chain:

* ``"sync"`` (default) — every contract call executes immediately and each
  search mines its own block, byte-identical to before block production
  existed;
* ``"block"`` — settlement transactions stage in a
  :class:`~repro.blockchain.mempool.Mempool` and a
  :class:`~repro.blockchain.block_builder.BlockBuilder` packs them into
  blocks (fee-ordered, gas-budgeted); a :class:`~repro.chaos.ChainFaultPlan`
  can reorg sealed blocks or delay staged settlements.  Verdicts, balances,
  gas and the deterministic counter snapshot are bit-identical to sync mode
  — block production moves *when* a settlement lands, never *how* it
  settles — and each outcome records the block height it settled at, which
  a light client can check against the header's settlement root without
  replaying the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blockchain.block_builder import BlockBuilder
from .blockchain.chain import Blockchain
from .blockchain.mempool import Mempool
from .blockchain.proofs import SettlementProof, prove_settlement
from .blockchain.slicer_contract import (
    SlicerContract,
    response_to_chain_args,
    tokens_digest_input,
)
from .blockchain.transaction import Receipt
from .chaos import (
    CLOUD_TO_CONTRACT,
    CONTRACT_TO_CLOUD,
    OWNER_TO_CLOUD,
    OWNER_TO_CONTRACT,
    USER_TO_CONTRACT,
    ChaosTransport,
    RetryPolicy,
    chaos_enabled,
    shard_channel,
)
from .common import perfstats
from .common.encoding import encode_uint
from .common.errors import RetryExhausted, StateError, TransientChainError
from .crypto import kernels
from .obs import audit as obs_audit
from .obs import metrics, trace
from .obs.audit import VERDICT_DEGRADED, VERDICT_PAID, VERDICT_REFUNDED
from .common.rng import DeterministicRNG, default_rng
from .core import wire
from .core.cloud import CloudServer, SearchResponse
from .core.owner import DataOwner, OwnerOutput
from .core.params import SlicerParams
from .core.query import Query
from .core.records import AttributedDatabase, Database
from .core.state import CloudPackage
from .core.user import DataUser, RangeQuery
from .core.tokens import SearchToken
from .planner import PlanExpr, QueryPlan, compile_plans
from .sharding import (
    HashShardPlan,
    ShardedCloudFrontend,
    dump_shard_package,
    load_shard_package,
)
from .storage import codec, state_io

DEFAULT_FUNDING = 10**9
DEFAULT_PAYMENT = 10**6

#: Gas allowance a block-mode settlement transaction declares.  Block
#: packing budgets by declared limits, so this is what lets one block carry
#: many settlements (vs. the 30M default that fills a block with one tx).
#: Roughly 10x the largest ``verify_and_settle`` bill seen at bench scale;
#: an overflow is a loud failure, never a silent verdict flip.
SETTLE_GAS_LIMIT = 4_000_000

#: Liveness backstop for the block-mode settle loop: far above any chain
#: fault profile's maximum delay, so hitting it means a genuine bug.
MAX_SETTLE_ROUNDS = 64


@dataclass(frozen=True)
class DeliveryFailure:
    """Structured attribution for a degraded search.

    ``error`` on :class:`SearchOutcome` stays a human-readable string (and
    the fingerprint tests rely on that); this carries what the string
    flattens away: the exception class, which retried operation gave up,
    and the index into the chaos :class:`~repro.chaos.faults.FaultPlan`
    history of the injection that exhausted the budget.
    """

    error_type: str
    message: str
    label: str | None = None
    attempts: int | None = None
    fault_step: int | None = None

    @classmethod
    def from_exception(cls, exc: RetryExhausted) -> "DeliveryFailure":
        cause = exc.last_error if exc.last_error is not None else exc.__cause__
        return cls(
            error_type=type(cause).__name__ if cause is not None else type(exc).__name__,
            message=str(exc),
            label=exc.label,
            attempts=exc.attempts,
            fault_step=exc.fault_step,
        )


@dataclass
class SearchOutcome:
    """Everything one on-chain search produced.

    Under chaos delivery a search can *degrade* instead of settling: when
    the retry budget is exhausted ``error`` carries the reason (and
    ``failure`` its structured form), ``verified`` is False, and the
    receipt/response fields for the legs that never completed are None.
    Direct-mode outcomes always have ``error is None`` and every field
    populated.
    """

    query: Query
    query_id: int
    tokens: list[SearchToken]
    response: SearchResponse | None
    verified: bool
    record_ids: set[bytes]
    submit_receipt: Receipt | None
    settle_receipt: Receipt | None
    #: Degradation reason when delivery gave up; None on a settled search.
    error: str | None = None
    #: Delivery attempts consumed across the submit and settle phases.
    attempts: int = 1
    #: Structured failure attribution (exception class, retried label,
    #: FaultPlan step); None unless the search degraded.
    failure: DeliveryFailure | None = None
    #: Block number the settlement landed in (block settlement mode only;
    #: None under synchronous settlement or when the search degraded).
    settle_height: int | None = None

    @property
    def settled(self) -> bool:
        """Whether the escrow closed on chain (paid or refunded)."""
        return self.settle_receipt is not None and bool(self.settle_receipt.status)

    @property
    def settle_gas(self) -> int:
        assert self.settle_receipt is not None, "search never settled"
        return self.settle_receipt.gas_used


@dataclass
class RangeOutcome:
    """A two-sided range search: one verified outcome per side."""

    sides: list[SearchOutcome] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return all(s.verified for s in self.sides)

    @property
    def record_ids(self) -> set[bytes]:
        if not self.sides:
            return set()
        out = set(self.sides[0].record_ids)
        for side in self.sides[1:]:
            out &= side.record_ids
        return out


@dataclass
class PlanOutcome:
    """One executed query plan: a verified outcome per leg, intersected.

    Every leg is an independent on-chain escrow, so a tampered leg refunds
    exactly the queries it served and flips only this plan's ``verified``
    — sibling plans in the same batch keep their verdicts.  ``record_ids``
    is the intersection of the decrypted per-leg ID sets, and is only
    meaningful (non-empty-able) when every leg verified: an unverified
    leg's result set is untrusted, so the plan answers nothing.
    """

    plan: QueryPlan
    legs: list[SearchOutcome] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return all(leg.verified for leg in self.legs)

    @property
    def record_ids(self) -> set[bytes]:
        if not self.legs or not self.verified:
            return set()
        out = set(self.legs[0].record_ids)
        for leg in self.legs[1:]:
            out &= leg.record_ids
        return out


class SlicerSystem:
    """A full deployment of the four-party framework."""

    def __init__(
        self,
        params: SlicerParams | None = None,
        chain: Blockchain | None = None,
        cloud: CloudServer | None = None,
        rng: DeterministicRNG | None = None,
        owner: DataOwner | None = None,
        transport: ChaosTransport | None = None,
        retry: RetryPolicy | None = None,
        shards: int = 1,
        shard_plan=None,
        account_tag: str | None = None,
        env_transport: bool = True,
        settlement_mode: str = "sync",
        chain_faults=None,
        settle_gas_limit: int = SETTLE_GAS_LIMIT,
        store_dir=None,
    ) -> None:
        self.params = params or SlicerParams()
        self.rng = rng or default_rng()
        self.chain = chain or Blockchain()
        self.owner = owner or DataOwner(self.params, rng=self.rng.spawn())

        # Settlement delivery: "sync" executes and mines per call (the
        # byte-identity reference); "block" stages settlements in a mempool
        # and produces blocks, optionally under a ChainFaultPlan.
        if settlement_mode not in ("sync", "block"):
            raise StateError(f"unknown settlement_mode {settlement_mode!r}")
        if chain_faults is not None and settlement_mode != "block":
            raise StateError("chain_faults requires settlement_mode='block'")
        self.settlement_mode = settlement_mode
        self.settle_gas_limit = settle_gas_limit
        self.mempool: Mempool | None = None
        self.builder: BlockBuilder | None = None
        if settlement_mode == "block":
            self.mempool = Mempool(self.chain)
            self.builder = BlockBuilder(self.chain, self.mempool, fault_plan=chain_faults)

        # Chaos delivery (opt-in): None keeps the direct in-process path
        # bit-for-bit identical to the pre-chaos system.  ``env_transport=
        # False`` also opts out of the REPRO_CHAOS auto-detection (multi-
        # system deployments that must stay direct regardless of env).
        if transport is None and env_transport and chaos_enabled():
            transport = ChaosTransport.from_env()
        self.transport = transport
        self.retry = retry or RetryPolicy()

        # Sharded serving tier (opt-in): shards > 1 or an explicit plan
        # replaces the single cloud with a scatter/gather frontend whose
        # merged output is byte-identical to the single-cloud path.
        plan = shard_plan
        if plan is None and shards > 1:
            plan = HashShardPlan(shards)
        if cloud is None:
            if plan is not None:
                cloud = ShardedCloudFrontend(
                    self.params,
                    self.owner.keys.trapdoor.public,
                    plan,
                    transport=self.transport,
                    retry=self.retry,
                )
            else:
                cloud = CloudServer(self.params, self.owner.keys.trapdoor.public)
        self.cloud = cloud
        self._sharded = isinstance(self.cloud, ShardedCloudFrontend)
        if self._sharded:
            # The owner pre-splits every delta along the tier's plan (the
            # tier cannot: routing needs G1, which PRF labels hide).
            self.owner.shard_plan = self.cloud.plan
        if store_dir is not None:
            # Durable epoch-segment store(s): every install appends a
            # segment, and the chaos crash hook restarts *from the store*
            # instead of the monolithic snapshot (warm when checkpointed).
            self.cloud.attach_store(store_dir)

        tag = account_tag
        self.owner_address = self.chain.create_account(
            f"{tag}-owner" if tag else "data-owner", DEFAULT_FUNDING
        )
        self.user_address = self.chain.create_account(
            f"{tag}-user" if tag else "data-user", DEFAULT_FUNDING
        )
        self.cloud_address = self.chain.create_account(
            f"{tag}-cloud" if tag else "cloud", DEFAULT_FUNDING
        )

        self.contract: SlicerContract | None = None
        self.deploy_receipt: Receipt | None = None
        self.user: DataUser | None = None
        #: Additional authorised users: label -> (chain address, DataUser).
        self.extra_users: dict[str, tuple[bytes, DataUser]] = {}
        self._last_user_package = None

        self._cloud_snapshot: bytes | None = None
        self._chaos_op = 0
        #: Block heights chaos-delivered settlements landed at, by query id
        #: (the chaos settle handler runs inside ``transport.deliver`` and
        #: cannot thread the height back through the cached receipt).
        self._settle_heights: dict[int, int] = {}

    # ---------------------------------------------------------------- setup

    def setup(self, database: Database | AttributedDatabase) -> OwnerOutput:
        """Owner builds everything and deploys the contract (Fig. 1 step 1)."""
        with trace.span("setup", records=len(database.records)):
            output = self.owner.build(database)
            with trace.span("install"):
                self._install(output)
            self.contract, self.deploy_receipt = self.chain.deploy(
                self.owner_address,
                SlicerContract,
                args=(self.owner_address, self.cloud_address, output.chain_ads),
                config={"params": self.params.public()},
            )
            if not self.deploy_receipt.status:
                raise StateError(
                    f"contract deployment failed: {self.deploy_receipt.revert_reason}"
                )
            metrics.observe("setup.deploy_gas", self.deploy_receipt.gas_used)
            self.user = DataUser(self.params, output.user_package, self.rng.spawn())
            self._last_user_package = output.user_package
            self.chain.mine()
            if self.transport is not None:
                # First durable snapshot: what a crash-restarted cloud reloads.
                self._cloud_snapshot = self.cloud.snapshot()
        return output

    def authorize_user(self, label: str, funding: int = DEFAULT_FUNDING) -> DataUser:
        """Authorise another data user (the paper's multi-user setting).

        The owner shares keys + current trapdoor state; the new user gets a
        funded chain account and can search independently — freshness is
        anchored by the on-chain digest, not by talking to the owner.
        """
        self._require_setup()
        if label in self.extra_users:
            raise StateError(f"user {label!r} already authorised")
        address = self.chain.create_account(f"user-{label}", funding)
        user = DataUser(self.params, self.owner.user_package(), self.rng.spawn())
        self.extra_users[label] = (address, user)
        return user

    def insert(self, additions: Database | AttributedDatabase) -> Receipt:
        """Owner inserts records and refreshes the on-chain ADS digest."""
        contract = self._require_setup()
        with trace.span("insert", records=len(additions.records)):
            output = self.owner.insert(additions)
            with trace.span("install"):
                if self.transport is None:
                    self._install(output)
                elif self._sharded and output.shard_packages is not None:
                    self._chaos_install_shards(output.shard_packages)
                else:
                    self._chaos_install(output.cloud_package)
            assert self.user is not None
            self.user.refresh(output.user_package)
            for _, extra in self.extra_users.values():
                extra.refresh(output.user_package)
            self._last_user_package = output.user_package
            with trace.span("update_ads"):
                if self.transport is None:
                    receipt = self._chain_call(
                        self.owner_address, contract, "update_ads", (output.chain_ads,)
                    )
                else:
                    receipt = self._chaos_update_ads(contract, output.chain_ads)
            if not receipt.status:
                raise StateError(f"ADS update reverted: {receipt.revert_reason}")
            metrics.observe("insert.update_ads_gas", receipt.gas_used)
            self._mine_boundary()
        return receipt

    # --------------------------------------------------------------- search

    def search(
        self, query: Query, payment: int = DEFAULT_PAYMENT, as_user: str | None = None
    ) -> SearchOutcome:
        """The full paid, publicly-verified search flow (Fig. 1 steps 2-5).

        ``as_user`` selects an extra authorised user (see
        :meth:`authorize_user`); by default the primary user searches.
        """
        contract = self._require_setup()
        assert self.user is not None
        if as_user is None:
            searcher, searcher_address = self.user, self.user_address
        else:
            searcher_address, searcher = self.extra_users[as_user]

        mode = "direct" if self.transport is None else "chaos"
        with trace.span("search", mode=mode):
            tokens = searcher.make_tokens(query)
            if self.transport is None:
                outcome = self._search_direct(
                    contract, query, payment, tokens, searcher, searcher_address
                )
            else:
                outcome = self._search_chaos(
                    contract, query, payment, tokens, searcher, searcher_address
                )
            trace.set_attr("query_id", outcome.query_id)
            trace.set_attr("verified", outcome.verified)
            self._record_search(outcome, payment)
        return outcome

    def _search_direct(
        self, contract, query, payment, tokens, searcher, searcher_address
    ) -> SearchOutcome:
        """In-process delivery — the original, fault-free flow.

        Block settlement changes *when* things land, never what executes:
        the submit still runs immediately (journaled through the builder so
        a reorg can replay it), but the settlement stages in the mempool and
        lands when :meth:`BlockBuilder.seal_block` packs it — same sender,
        same calldata, same per-call gas metering, so the receipt is
        bit-identical to the synchronous one.
        """
        with trace.span("submit"):
            submit_receipt = self._chain_call(
                searcher_address,
                contract,
                "submit_query",
                (tokens_digest_input(tokens),),
                value=payment,
            )
        if not submit_receipt.status:
            raise StateError(f"query submission reverted: {submit_receipt.revert_reason}")
        query_id = submit_receipt.return_value

        with trace.span("cloud.search"):
            response = self.cloud.search(tokens)
        settle_height: int | None = None
        with trace.span("verify_settle"):
            if self.builder is not None:
                settle_receipt, settle_height = self._settle_block(
                    contract, [(query_id, response)]
                )[query_id]
            else:
                settle_receipt = self.chain.call(
                    self.cloud_address,
                    contract,
                    "verify_and_settle",
                    (query_id, self.cloud.ads_value, response_to_chain_args(response)),
                )
        verified = bool(settle_receipt.status and settle_receipt.return_value)
        record_ids = searcher.decrypt_results(response) if verified else set()
        if self.builder is None:
            self.chain.mine()
        return SearchOutcome(
            query=query,
            query_id=query_id,
            tokens=tokens,
            response=response,
            verified=verified,
            record_ids=record_ids,
            submit_receipt=submit_receipt,
            settle_receipt=settle_receipt,
            settle_height=settle_height,
        )

    def _search_chaos(
        self, contract, query, payment, tokens, searcher, searcher_address
    ) -> SearchOutcome:
        """Chaos delivery: every boundary crosses the fault-injecting transport.

        Three legs, each retried with deterministic backoff and idempotent
        re-submission (keyed by an operation counter, so a duplicated or
        re-sent message never double-charges the escrow):

        1. user -> contract: post tokens + payment (``submit_query``);
        2. contract -> cloud: tokens reach the cloud, which searches;
        3. cloud -> contract: response reaches ``verify_and_settle``.

        Exhausting the retry budget degrades to an error outcome instead of
        raising — the caller sees ``verified=False`` plus ``error``.
        """
        transport = self.transport
        assert transport is not None
        tokens_wire = wire.dump_tokens(tokens)
        op = self._next_op()
        attempts = {"n": 0}

        def submit_op(attempt: int) -> Receipt:
            attempts["n"] += 1
            receipt = transport.deliver(
                USER_TO_CONTRACT,
                tokens_wire,
                lambda blob: self._chain_call(
                    searcher_address,
                    contract,
                    "submit_query",
                    (tokens_digest_input(wire.load_tokens(blob)),),
                    value=payment,
                ),
                idempotency_key=("submit", op),
                cache_if=lambda r: r.status,
            )
            return receipt

        try:
            with trace.span("submit"):
                submit_receipt = self.retry.run(
                    submit_op, transport=transport, label="submit_query"
                )
        except RetryExhausted as exc:
            return self._degraded(query, tokens, exc, attempts["n"])
        if not submit_receipt.status:
            # A genuine (non-transient) revert: same contract as direct mode.
            raise StateError(f"query submission reverted: {submit_receipt.revert_reason}")
        query_id = submit_receipt.return_value

        def settle_op(attempt: int) -> tuple[bytes, Receipt]:
            attempts["n"] += 1
            # Leg 2: the cloud reads the tokens and searches.  Not cached —
            # an honest cloud's search is a pure function of its state, and
            # re-running it after a crash restart is exactly the recovery
            # path under test.  A sharded tier runs its *own* per-shard
            # transport legs inside frontend.search (channels
            # ``contract->cloud#shardK``), so the scatter is not wrapped in
            # a second tier-wide delivery here.
            with trace.span("cloud.search", attempt=attempt):
                if self._sharded:
                    response_wire = wire.dump_response(self.cloud.search(tokens))
                else:
                    response_wire = transport.deliver(
                        CONTRACT_TO_CLOUD,
                        tokens_wire,
                        lambda blob: wire.dump_response(self.cloud.search(wire.load_tokens(blob))),
                        on_crash=self._restart_cloud,
                    )
            # Leg 3: response + current Ac to the contract for settlement.
            # Under block settlement the delivered handler stages the tx and
            # runs seal rounds until it lands; the idempotency key stays the
            # op-scoped one (a duplicated message must not re-settle), while
            # the mempool tx id is *attempt*-scoped — a retry after a
            # transient revert is a new staging, not a duplicate.
            if self.builder is not None:
                settle_handler = lambda blob: self._chaos_block_settle(
                    contract, query_id, blob, op, attempt
                )
            else:
                settle_handler = lambda blob: self.chain.call(
                    self.cloud_address,
                    contract,
                    "verify_and_settle",
                    (
                        query_id,
                        self.cloud.ads_value,
                        response_to_chain_args(wire.load_response(blob)),
                    ),
                )
            with trace.span("verify_settle", attempt=attempt):
                receipt = transport.deliver(
                    CLOUD_TO_CONTRACT,
                    response_wire,
                    settle_handler,
                    idempotency_key=("settle", op),
                    cache_if=lambda r: r.status,
                    on_crash=self._restart_cloud,
                )
                if not receipt.status:
                    # Reverts leave the query open (state rolled back), so
                    # the settlement can be retried — e.g. after a crash
                    # restart briefly served a stale Ac.
                    raise TransientChainError(f"settle reverted: {receipt.revert_reason}")
            return response_wire, receipt

        try:
            response_wire, settle_receipt = self.retry.run(
                settle_op, transport=transport, label="verify_and_settle"
            )
        except RetryExhausted as exc:
            return self._degraded(
                query,
                tokens,
                exc,
                attempts["n"],
                query_id=query_id,
                submit_receipt=submit_receipt,
            )

        response = wire.load_response(response_wire)
        verified = bool(settle_receipt.return_value)
        record_ids = searcher.decrypt_results(response) if verified else set()
        if self.builder is None:
            self.chain.mine()
        return SearchOutcome(
            query=query,
            query_id=query_id,
            tokens=tokens,
            response=response,
            verified=verified,
            record_ids=record_ids,
            submit_receipt=submit_receipt,
            settle_receipt=settle_receipt,
            attempts=attempts["n"],
            settle_height=self._settle_heights.get(query_id),
        )

    def _degraded(
        self,
        query: Query,
        tokens: list[SearchToken],
        exc: RetryExhausted,
        attempts: int,
        query_id: int = -1,
        submit_receipt: Receipt | None = None,
    ) -> SearchOutcome:
        """Graceful degradation: the retry budget ran out on some leg."""
        self._mine_boundary()
        return SearchOutcome(
            query=query,
            query_id=query_id,
            tokens=tokens,
            response=None,
            verified=False,
            record_ids=set(),
            submit_receipt=submit_receipt,
            settle_receipt=None,
            error=str(exc),
            attempts=attempts,
            failure=DeliveryFailure.from_exception(exc),
        )

    def _record_search(self, outcome: SearchOutcome, payment: int) -> None:
        """Fold one search into the audit log and the metrics registry.

        Called inside the search's root span, so the audit record carries
        the trace id of the span tree it corresponds to.  The verdict must
        mirror the outcome exactly: ``paid`` iff the contract verified,
        ``refunded`` iff it settled unverified, ``degraded`` iff delivery
        gave up — the chaos property tests assert this correspondence.
        """
        if outcome.error is not None:
            verdict = VERDICT_DEGRADED
        elif outcome.verified:
            verdict = VERDICT_PAID
        else:
            verdict = VERDICT_REFUNDED
        submit_gas = outcome.submit_receipt.gas_used if outcome.submit_receipt else 0
        settle_gas = outcome.settle_receipt.gas_used if outcome.settle_receipt else 0
        metrics.observe("search.tokens_posted", len(outcome.tokens))
        metrics.observe("search.result_ids", len(outcome.record_ids))
        metrics.observe("search.attempts", outcome.attempts)
        if outcome.submit_receipt is not None:
            metrics.observe("gas.submit_query", submit_gas)
        if outcome.settle_receipt is not None:
            metrics.observe("gas.verify_and_settle", settle_gas)
        failure = outcome.failure
        shard_extra = (
            {"shards": self.cloud.shards_for_tokens(outcome.tokens)}
            if self._sharded
            else {}
        )
        block_extra = (
            {"block": outcome.settle_height}
            if outcome.settle_height is not None
            else {}
        )
        obs_audit.AUDIT_LOG.append(
            query_id=str(outcome.query_id),
            verdict=verdict,
            tokens_posted=len(outcome.tokens),
            result_count=len(outcome.record_ids),
            accumulator=self.cloud.ads_value if outcome.response is not None else None,
            paid_to="cloud" if verdict == VERDICT_PAID else (
                "user" if verdict == VERDICT_REFUNDED else None
            ),
            amount=payment if verdict != VERDICT_DEGRADED else 0,
            gas=submit_gas + settle_gas,
            attempts=outcome.attempts,
            trace_id=trace.current_trace_id(),
            detail=outcome.error,
            fault_step=failure.fault_step if failure else None,
            **shard_extra,
            **block_extra,
        )

    def range_search(self, range_query: RangeQuery, payment: int = DEFAULT_PAYMENT) -> RangeOutcome:
        """Two-sided range = one verified search per side, intersected."""
        queries = range_query.to_queries(self.params.value_bits)
        return RangeOutcome([self.search(q, payment) for q in queries])

    def batch_search(
        self, queries: list[Query], payment: int = DEFAULT_PAYMENT
    ) -> list[SearchOutcome]:
        """Run several queries, settled by ONE batched contract call.

        Gas-amortised extension: n queries share one settlement transaction
        (see :meth:`SlicerContract.batch_verify_and_settle`).  Entry
        collection is batched too: all submitted queries go through one
        :meth:`CloudServer.search_many` call, which dedupes identical tokens
        *across* the staged queries and collects over the batch-wide union —
        per-query responses stay byte-identical to sequential
        :meth:`CloudServer.search` calls (the entry-cache property tests
        assert this), only the duplicated walks disappear.

        Under block settlement the amortisation moves from the transaction
        to the *block*: see :meth:`_batch_search_block`.
        """
        contract = self._require_setup()
        assert self.user is not None
        if self.builder is not None:
            return self._batch_search_block(contract, queries, payment)

        with trace.span("batch_search", queries=len(queries)):
            submitted = []
            for query in queries:
                tokens = self.user.make_tokens(query)
                with trace.span("submit"):
                    submit = self.chain.call(
                        self.user_address,
                        contract,
                        "submit_query",
                        (tokens_digest_input(tokens),),
                        value=payment,
                    )
                if not submit.status:
                    raise StateError(f"query submission reverted: {submit.revert_reason}")
                submitted.append((query, submit, tokens))
            with trace.span("cloud.search", batch=len(submitted)):
                responses = self.cloud.search_many([t for _, _, t in submitted])
            staged = [
                (query, submit, tokens, response)
                for (query, submit, tokens), response in zip(submitted, responses)
            ]

            with trace.span("verify_settle", batch=len(staged)):
                settle = self.chain.call(
                    self.cloud_address,
                    contract,
                    "batch_verify_and_settle",
                    (
                        [s.return_value for _, s, _, _ in staged],
                        self.cloud.ads_value,
                        [response_to_chain_args(r) for _, _, _, r in staged],
                    ),
                )
            metrics.observe("gas.batch_verify_and_settle", settle.gas_used)
            verdicts = settle.return_value if settle.status else [False] * len(staged)
            outcomes = []
            trace_id = trace.current_trace_id()
            for (query, submit, tokens, response), verified in zip(staged, verdicts):
                outcome = SearchOutcome(
                    query=query,
                    query_id=submit.return_value,
                    tokens=tokens,
                    response=response,
                    verified=bool(verified),
                    record_ids=self.user.decrypt_results(response) if verified else set(),
                    submit_receipt=submit,
                    settle_receipt=settle,
                )
                outcomes.append(outcome)
                verdict = VERDICT_PAID if outcome.verified else VERDICT_REFUNDED
                # Per-record gas is this query's submit tx; the shared batch
                # settlement tx is attributed once via `extra`, not inflated
                # onto every record.
                obs_audit.AUDIT_LOG.append(
                    query_id=str(outcome.query_id),
                    verdict=verdict,
                    tokens_posted=len(tokens),
                    result_count=len(outcome.record_ids),
                    accumulator=self.cloud.ads_value,
                    paid_to="cloud" if outcome.verified else "user",
                    amount=payment,
                    gas=submit.gas_used,
                    attempts=1,
                    trace_id=trace_id,
                    batch_size=len(staged),
                    batch_settle_gas=settle.gas_used,
                    **(
                        {"shards": self.cloud.shards_for_tokens(tokens)}
                        if self._sharded
                        else {}
                    ),
                )
            self.chain.mine()
        return outcomes

    # -------------------------------------------------------------- planner

    def search_plan(self, expr: PlanExpr, payment: int = DEFAULT_PAYMENT) -> PlanOutcome:
        """Compile and execute one range/conjunctive plan expression."""
        return self.search_plans([expr], payment)[0]

    def search_plans(
        self, exprs: list[PlanExpr], payment: int = DEFAULT_PAYMENT
    ) -> list[PlanOutcome]:
        """Compile a batch of plan expressions and execute all legs at once.

        The planner (:mod:`repro.planner`) reduces every expression to a
        minimal leg set; the flattened legs of the whole batch then ride
        the existing :meth:`batch_search` machinery — one per-leg escrow
        each, ONE :meth:`CloudServer.search_many` collection over the
        batch-wide token union (shared trapdoor-chain walks and PRF labels
        across legs *and* plans are paid once; behind a sharded tier the
        scatter/gather fans the union out per shard), and per-leg
        verification against the one on-chain accumulator before
        settlement, in sync or block mode alike.  Results are therefore
        byte-identical to a naive per-leg loop by construction — the
        planner only removes duplicated work, never changes any leg's
        bytes — which is what the plan ≡ naive property tests pin.

        Record-ID intersection happens here, user-side: index payloads
        carry a fresh nonce per (keyword, record) posting, so a record's
        ciphertexts are unlinkable across legs and the cloud cannot
        intersect them.  What *is* pushed to the cloud is the collection
        over all legs in one batch; what comes back per leg is the full
        verifiable result multiset the fairness guarantee needs.
        """
        plans = compile_plans(exprs, self.params.value_bits)
        flat_legs = [leg for plan in plans for leg in plan.legs]
        with trace.span("search_plans", plans=len(plans), legs=len(flat_legs)):
            outcomes = self.batch_search(flat_legs, payment)
            results: list[PlanOutcome] = []
            cursor = 0
            for plan in plans:
                legs = outcomes[cursor : cursor + len(plan.legs)]
                cursor += len(plan.legs)
                results.append(PlanOutcome(plan=plan, legs=legs))
            self._record_plans(results)
        return results

    def _record_plans(self, results: list[PlanOutcome]) -> None:
        """Planner counters (deterministic; under the exact-counter gate).

        ``planner.dedup_saved`` counts token posts the batch-wide
        ``search_many`` dedup collapsed (duplicate tokens across legs and
        plans walk the index once); ``planner.intersect_dropped`` counts
        record IDs that appeared in some leg but fell out of a verified
        plan's intersection.  Both are pure functions of the query stream,
        so they are identical at any shard width or
        settlement mode.
        """
        perfstats.incr("planner.plans", len(results))
        total_tokens = 0
        unique_tokens: set[SearchToken] = set()
        for outcome in results:
            perfstats.incr("planner.legs", len(outcome.legs))
            for leg in outcome.legs:
                total_tokens += len(leg.tokens)
                unique_tokens.update(leg.tokens)
        perfstats.incr("planner.dedup_saved", total_tokens - len(unique_tokens))
        for outcome in results:
            if outcome.verified and outcome.legs:
                union: set[bytes] = set()
                for leg in outcome.legs:
                    union |= leg.record_ids
                perfstats.incr(
                    "planner.intersect_dropped", len(union) - len(outcome.record_ids)
                )

    # ----------------------------------------------------- block settlement

    def _chain_call(self, sender, contract, method, args, value: int = 0) -> Receipt:
        """One contract call, journaled through the builder in block mode.

        Every immediate call a block-mode system makes must go through the
        builder so a reorg can deterministically re-execute it; sync mode
        falls through to the plain ``chain.call`` it always used.
        """
        if self.builder is not None:
            return self.builder.execute_now(sender, contract, method, args, value=value)
        return self.chain.call(sender, contract, method, args, value=value)

    def _mine_boundary(self) -> None:
        """The per-step block boundary: mine (sync) or seal a block (block)."""
        if self.builder is not None:
            self.builder.seal_block()
        else:
            self.chain.mine()

    def _settle_block(
        self, contract: SlicerContract, staged: list[tuple[int, SearchResponse]]
    ) -> dict[int, tuple[Receipt, int]]:
        """Stage every ``(query_id, response)`` settlement and seal until landed.

        Returns ``query_id -> (receipt, block_number)``.  One seal round
        normally lands everything; a :class:`ChainFaultPlan` delay pushes a
        staged tx past later blocks, and the round loop keeps sealing until
        it ripens — delayed, never lost.
        """
        assert self.builder is not None and self.mempool is not None
        tx_ids: dict[int, tuple] = {}
        for query_id, response in staged:
            tx_id = ("settle", self._next_op())
            self.builder.stage_settlement(
                self.cloud_address,
                contract,
                "verify_and_settle",
                (query_id, self.cloud.ads_value, response_to_chain_args(response)),
                gas_limit=self.settle_gas_limit,
                tx_id=tx_id,
            )
            tx_ids[query_id] = tx_id
        self._fold_membership_checks([response for _, response in staged])
        landed = self._run_settle_rounds(list(tx_ids.values()))
        return {query_id: landed[tx_id] for query_id, tx_id in tx_ids.items()}

    def _run_settle_rounds(self, tx_ids: list[tuple]) -> dict[tuple, tuple[Receipt, int]]:
        """Seal blocks until every staged tx has a receipt (delay-tolerant)."""
        builder = self.builder
        assert builder is not None
        rounds = 0
        while any(tx_id not in builder.receipts for tx_id in tx_ids):
            if rounds >= MAX_SETTLE_ROUNDS:
                raise StateError(
                    f"settlement did not land within {MAX_SETTLE_ROUNDS} blocks"
                )
            builder.seal_block()
            rounds += 1
        return {tx_id: builder.receipts[tx_id] for tx_id in tx_ids}

    def _fold_membership_checks(self, responses: list[SearchResponse]) -> None:
        """Trusted self-check: fold one settle round's membership checks
        through the batched kernel.

        The per-token *untrusted* verification stays per-item inside the
        contract (``batch_verify_membership`` is complete but not
        adversarially sound — see its docstring); this fold is the cloud
        double-checking what it shipped, one ``multi_exp`` pass for the
        whole round instead of one pow per witness.  Responses that crossed
        a wire boundary or a sharded frontend don't carry their captured
        ``membership_items``; the fold is skipped (counted) rather than
        re-deriving primes, which would drift the gated ``hash_to_prime.*``
        counters.
        """
        items: list[tuple[int, int]] = []
        for response in responses:
            captured = getattr(response, "membership_items", None)
            if captured is None:
                perfstats.incr("blockmode.selfcheck.skipped")
                return
            items.extend(captured)
        if not items:
            perfstats.incr("blockmode.selfcheck.skipped")
            return
        ok = kernels.batch_verify_membership(
            self.params.accumulator.modulus, self.cloud.ads_value, items
        )
        perfstats.incr("blockmode.selfcheck.pass" if ok else "blockmode.selfcheck.fail")
        perfstats.incr("blockmode.selfcheck.items", len(items))
        trace.event("blockmode.selfcheck", ok=ok, items=len(items))

    def _chaos_block_settle(
        self, contract: SlicerContract, query_id: int, blob: bytes, op: int, attempt: int
    ) -> Receipt:
        """Chaos-delivery settle handler under block settlement.

        The mempool tx id is attempt-scoped: after a transient revert (e.g.
        a crash-restarted cloud briefly serving a stale ``Ac``) the retry
        stages a *new* transaction — the mempool's duplicate guard would
        permanently reject a re-staging under the old id, and rightly so.
        """
        assert self.builder is not None
        response = wire.load_response(blob)
        tx_id = ("settle", op, attempt)
        self.builder.stage_settlement(
            self.cloud_address,
            contract,
            "verify_and_settle",
            (query_id, self.cloud.ads_value, response_to_chain_args(response)),
            gas_limit=self.settle_gas_limit,
            tx_id=tx_id,
        )
        self._fold_membership_checks([response])
        receipt, height = self._run_settle_rounds([tx_id])[tx_id]
        self._settle_heights[query_id] = height
        return receipt

    def _batch_search_block(
        self, contract: SlicerContract, queries: list[Query], payment: int
    ) -> list[SearchOutcome]:
        """Block-mode batch: one sealed block settles every staged escrow.

        Where the synchronous batch amortises gas into a single
        ``batch_verify_and_settle`` transaction (whose verdicts are only in
        the receipt), the block-mode batch stages one ``verify_and_settle``
        per escrow and lets ONE block carry them all — the amortisation
        moves from the transaction to the block, and every verdict lands in
        the header's settlement root individually, so each is light-client
        provable.  The cloud still folds the whole round's membership
        checks through the trusted batch kernel in one pass.
        """
        assert self.user is not None
        with trace.span("batch_search", queries=len(queries), mode="block"):
            submitted = []
            for query in queries:
                tokens = self.user.make_tokens(query)
                with trace.span("submit"):
                    submit = self._chain_call(
                        self.user_address,
                        contract,
                        "submit_query",
                        (tokens_digest_input(tokens),),
                        value=payment,
                    )
                if not submit.status:
                    raise StateError(f"query submission reverted: {submit.revert_reason}")
                submitted.append((query, submit, tokens))
            with trace.span("cloud.search", batch=len(submitted)):
                responses = self.cloud.search_many([t for _, _, t in submitted])
            with trace.span("verify_settle", batch=len(submitted)):
                landed = self._settle_block(
                    contract,
                    [
                        (submit.return_value, response)
                        for (_, submit, _), response in zip(submitted, responses)
                    ],
                )
            outcomes = []
            trace_id = trace.current_trace_id()
            for (query, submit, tokens), response in zip(submitted, responses):
                settle, height = landed[submit.return_value]
                verified = bool(settle.status and settle.return_value)
                metrics.observe("gas.verify_and_settle", settle.gas_used)
                outcome = SearchOutcome(
                    query=query,
                    query_id=submit.return_value,
                    tokens=tokens,
                    response=response,
                    verified=verified,
                    record_ids=self.user.decrypt_results(response) if verified else set(),
                    submit_receipt=submit,
                    settle_receipt=settle,
                    settle_height=height,
                )
                outcomes.append(outcome)
                verdict = VERDICT_PAID if verified else VERDICT_REFUNDED
                obs_audit.AUDIT_LOG.append(
                    query_id=str(outcome.query_id),
                    verdict=verdict,
                    tokens_posted=len(tokens),
                    result_count=len(outcome.record_ids),
                    accumulator=self.cloud.ads_value,
                    paid_to="cloud" if verified else "user",
                    amount=payment,
                    gas=submit.gas_used + settle.gas_used,
                    attempts=1,
                    trace_id=trace_id,
                    batch_size=len(submitted),
                    block=height,
                    **(
                        {"shards": self.cloud.shards_for_tokens(tokens)}
                        if self._sharded
                        else {}
                    ),
                )
        return outcomes

    def settlement_proof(self, outcome: SearchOutcome) -> SettlementProof:
        """Build the light-client proof that ``outcome``'s verdict settled.

        Only block settlement anchors per-query verdicts in a header
        (``settlement_root``); a sync-mode or degraded outcome has nothing
        to prove against.
        """
        if outcome.settle_height is None:
            raise StateError("settlement proofs require settlement_mode='block'")
        block = self.chain.blocks[outcome.settle_height]
        return prove_settlement(block, encode_uint(outcome.query_id))

    # ------------------------------------------------------- chaos delivery

    def _install(self, output: OwnerOutput) -> None:
        """Direct-mode install: flat package, or pre-split per shard."""
        if self._sharded and output.shard_packages is not None:
            self.cloud.install_shards(output.shard_packages)
        else:
            self.cloud.install(output.cloud_package)

    def _next_op(self) -> int:
        """Monotonic operation counter — the idempotency-key namespace."""
        self._chaos_op += 1
        return self._chaos_op

    def _restart_cloud(self) -> None:
        """Crash-fault hook: restart the cloud from its durable state.

        Models a process restart — in-memory caches are gone, durable state
        survives.  With a segment store attached the cloud reopens from the
        store (possibly *warm*, from its checkpoint); otherwise it reloads
        the last installed ``(I, X, Ac)`` snapshot.  If the dead cloud had
        precomputed witnesses and recovery didn't rehydrate them, the
        restarted one rebuilds them: that is the witness-cache rebuild path
        the chaos tests exercise.
        """
        has_store = (
            getattr(self.cloud, "_store", None) is not None
            or getattr(self.cloud, "_store_root", None) is not None
        )
        if self._cloud_snapshot is None and not has_store:
            return
        perfstats.incr("chaos.cloud_restarts")
        had_cache = self.cloud._witness_cache is not None
        if has_store:
            self.cloud.reopen()
        else:
            self.cloud.restore(self._cloud_snapshot)
        if had_cache and self.cloud._witness_cache is None:
            self.cloud.precompute_witnesses()

    def _chaos_install(self, package: CloudPackage) -> None:
        """Owner -> cloud install over the transport (retried, idempotent)."""
        transport = self.transport
        assert transport is not None
        pkg_wire = state_io.dump_cloud_state(
            package.index, list(package.primes), package.accumulation
        )
        op = self._next_op()

        def handler(blob: bytes) -> bytes:
            index, primes, ads_value = state_io.load_cloud_state(blob)
            self.cloud.install(CloudPackage(index, primes, ads_value))
            # Snapshot atomically with the install: a crash after this
            # handler ran (but before the reply arrived) must restart the
            # cloud into the *installed* state, or the idempotency cache
            # and the cloud's reality would disagree.
            self._cloud_snapshot = self.cloud.snapshot()
            return b"installed"

        def install_op(attempt: int) -> None:
            transport.deliver(
                OWNER_TO_CLOUD,
                pkg_wire,
                handler,
                idempotency_key=("install", op),
                on_crash=self._restart_cloud,
            )

        self.retry.run(install_op, transport=transport, label="install")

    def _chaos_install_shards(self, shard_packages) -> None:
        """Owner -> tier install: one independent transport leg per shard.

        Each shard's package crosses its own channel
        (``owner->cloud#shardK``) with its own idempotency key and retry
        budget; a crash fault restarts only that shard from its per-shard
        durable snapshot.  The tier-level snapshot is refreshed once every
        leg has landed.
        """
        transport = self.transport
        assert transport is not None
        op = self._next_op()
        for pkg in shard_packages:
            pkg_wire = dump_shard_package(pkg)
            sid = pkg.shard_id

            def handler(blob: bytes) -> bytes:
                # install_shard also refreshes that shard's durable snapshot.
                self.cloud.install_shard(load_shard_package(blob))
                return b"installed"

            def install_op(
                attempt: int, _wire=pkg_wire, _handler=handler, _sid=sid
            ) -> None:
                transport.deliver(
                    shard_channel(OWNER_TO_CLOUD, _sid),
                    _wire,
                    _handler,
                    idempotency_key=("install", op, _sid),
                    on_crash=lambda: self.cloud._restart_shard(_sid),
                )

            self.retry.run(
                install_op, transport=transport, label=f"install.shard{sid}"
            )
        self._cloud_snapshot = self.cloud.snapshot()

    def _chaos_update_ads(self, contract: SlicerContract, chain_ads) -> Receipt:
        """Owner -> contract ADS refresh over the transport."""
        transport = self.transport
        assert transport is not None
        op = self._next_op()

        def update_op(attempt: int) -> Receipt:
            return transport.deliver(
                OWNER_TO_CONTRACT,
                codec.encode_int(chain_ads),
                lambda blob: self._chain_call(
                    self.owner_address,
                    contract,
                    "update_ads",
                    (codec.decode_int(blob),),
                ),
                idempotency_key=("ads", op),
                cache_if=lambda r: r.status,
            )

        return self.retry.run(update_op, transport=transport, label="update_ads")

    # -------------------------------------------------------------- helpers

    def balances(self) -> dict[str, int]:
        return {
            "owner": self.chain.balance(self.owner_address),
            "user": self.chain.balance(self.user_address),
            "cloud": self.chain.balance(self.cloud_address),
        }

    def _require_setup(self) -> SlicerContract:
        if self.contract is None:
            raise StateError("call setup() before using the system")
        return self.contract
