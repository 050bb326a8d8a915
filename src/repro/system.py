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

Every paid search — :meth:`SlicerSystem.search`, :meth:`~SlicerSystem.
batch_search` and the planner's :meth:`~SlicerSystem.search_plans` — runs
one staged pipeline: tokens → submit → serve → settle → decrypt → record.
Two things vary inside it.

**Delivery** is the ``transport``.  Every leg (submit, serve, settle, and
an insert's install and ``update_ads``) is one ``transport.deliver`` call
inside one ``transport.retried`` scope, for every entry point:

* the default (``transport=None``) is :data:`~repro.chaos.DIRECT`, whose
  ``deliver`` is the in-process call ``handler(message)`` and nothing else;
* a :class:`~repro.chaos.ChaosTransport` serializes each leg through
  :mod:`repro.core.wire`, injects faults, deduplicates re-sent messages and
  retries under :data:`~repro.chaos.RETRY`.  When the retry budget runs
  out, every escrow of the search or batch that did not settle degrades
  to a :class:`SearchOutcome` error state instead of raising.

**Settlement** is chosen from ``settlement_mode`` and the entry point:

* ``"sync"`` (default) — every contract call executes immediately; a
  single search settles with ``verify_and_settle`` and a batch with one
  ``batch_verify_and_settle``, each mining one block;
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

One writer turns every settled (or degraded) escrow into its audit record
and metric observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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
    DIRECT,
    OWNER_TO_CLOUD,
    OWNER_TO_CONTRACT,
    USER_TO_CONTRACT,
    ChaosTransport,
    shard_channel,
)
from .common import perfstats
from .common.encoding import encode_uint
from .common.errors import (
    InsufficientFundsError,
    ReproError,
    RetryExhausted,
    StateError,
    TransientChainError,
)
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
from .core.user import DataUser
from .core.tokens import SearchToken
from .planner import PlanExpr, QueryPlan, compile_plans
from .sharding import HashShardPlan, ShardedCloudFrontend
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


def _succeeded(receipt: Receipt) -> bool:
    """Whether a leg's reply is final: a reverted call re-executes on re-send."""
    return bool(receipt.status)


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
    def from_exception(cls, exc: ReproError) -> "DeliveryFailure":
        """Attribute a retry budget that ran out, a submit the chain refused,
        or a settlement that reverted."""
        if not isinstance(exc, RetryExhausted):
            return cls(error_type=type(exc).__name__, message=str(exc))
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

    A search *degrades* instead of settling when its transport's retry
    budget runs out, when the chain refuses its submit (it then holds no
    escrow), or when its settlement reverts: ``error`` carries the
    reason (and ``failure`` its structured form), ``verified`` is False,
    and the receipt/response fields for the legs that never completed are
    None.  Only a faulting transport numbers attempts, so a direct outcome
    keeps ``attempts == 1``.
    """

    query: Query
    query_id: int
    tokens: list[SearchToken]
    response: SearchResponse | None = None
    verified: bool = False
    record_ids: set[bytes] = field(default_factory=set)
    submit_receipt: Receipt | None = None
    settle_receipt: Receipt | None = None
    #: Degradation reason when delivery gave up; None on a settled search.
    error: str | None = None
    #: Delivery attempts consumed across the submit and settle legs.
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
        shards: int = 1,
        account_tag: str | None = None,
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

        # Every leg crosses this transport; None is the direct in-process one.
        self.transport = transport or DIRECT

        # Sharded serving tier (opt-in): shards > 1 replaces the single
        # cloud with a scatter/gather frontend whose merged output is
        # byte-identical to the single-cloud path.
        if cloud is None:
            if shards > 1:
                cloud = ShardedCloudFrontend(
                    self.params,
                    self.owner.keys.trapdoor.public,
                    HashShardPlan(shards),
                    transport=self.transport,
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
            # segment, and a chaos crash restarts *from the store* instead
            # of a snapshot (warm when checkpointed).
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
        #: Operation counter: idempotency keys and settlement tx ids.
        self._ops = 0

    # ---------------------------------------------------------------- setup

    def setup(self, database: Database | AttributedDatabase) -> OwnerOutput:
        """Owner builds everything and deploys the contract (Fig. 1 step 1).

        The deployment does not exist yet, so set-up is outside the fault
        model: its install is a direct delivery whatever the transport.
        """
        with trace.span("setup", records=len(database.records)):
            output = self.owner.build(database)
            with trace.span("install"):
                self._install(output, DIRECT)
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
        return output

    def authorize_user(self, label: str, funding: int = DEFAULT_FUNDING) -> DataUser:
        """Authorise another data user (the paper's multi-user setting).

        The owner shares keys + current trapdoor state; the new user gets a
        funded chain account and can search independently.  The user must
        :meth:`~repro.core.user.DataUser.refresh` after every insert
        (:meth:`insert` does it for every user it knows): a user that missed
        one is served stale tokens, and the contract still pays the cloud
        for them (ROADMAP, "Freshness for a lagging user").
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
        transport = self.transport
        with trace.span("insert", records=len(additions.records)):
            output = self.owner.insert(additions)
            with trace.span("install"):
                self._install(output, transport)
            assert self.user is not None
            self.user.refresh(output.user_package)
            for _, extra in self.extra_users.values():
                extra.refresh(output.user_package)
            self._last_user_package = output.user_package
            with trace.span("update_ads"):
                key = ("ads", self._next_op())
                receipt = transport.retried(
                    "update_ads",
                    lambda attempt: transport.deliver(
                        OWNER_TO_CONTRACT,
                        output.chain_ads,
                        lambda ads: self._chain_call(
                            self.owner_address, contract, "update_ads", (ads,)
                        ),
                        codec=(codec.encode_int, codec.decode_int),
                        idempotency_key=key,
                        cache_if=_succeeded,
                    ),
                )
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
        self._require_setup()
        if as_user is None:
            searcher = (self.user_address, self.user)
        else:
            searcher = self.extra_users[as_user]
        with trace.span("search", mode=self.transport.name):
            (outcome,) = self._pipeline([query], payment, searcher, batch=False)
            trace.set_attr("query_id", outcome.query_id)
            trace.set_attr("verified", outcome.verified)
        return outcome

    def batch_search(
        self, queries: list[Query], payment: int = DEFAULT_PAYMENT
    ) -> list[SearchOutcome]:
        """Run several queries, settled together.

        Entry collection is batched: all submitted queries go through one
        :meth:`CloudServer.search_many` call, which dedupes identical tokens
        *across* the staged queries and collects over the batch-wide union —
        per-query responses stay byte-identical to sequential
        :meth:`CloudServer.search` calls (the entry-cache property tests
        assert this), only the duplicated walks disappear.

        Under sync settlement the n escrows share ONE
        :meth:`SlicerContract.batch_verify_and_settle` transaction.  Under
        block settlement the amortisation moves from the transaction to the
        *block*: one ``verify_and_settle`` per escrow, all sealed into one
        block, so every verdict lands in the header's settlement root and is
        light-client provable.  The legs cross the transport as a single
        search's do: one submit per escrow, then one serve and one settle
        for the whole batch.
        """
        self._require_setup()
        block = {"mode": "block"} if self.builder is not None else {}
        with trace.span("batch_search", queries=len(queries), **block):
            return self._pipeline(queries, payment, (self.user_address, self.user), batch=True)

    def _pipeline(
        self, queries: list[Query], payment: int, searcher, batch: bool
    ) -> list[SearchOutcome]:
        """tokens → submit → serve → settle → decrypt → record, once for all entry points.

        Each escrow's submit is one leg; the serve and settle legs carry all
        of the call's escrows (a single search is served by
        :meth:`CloudServer.search` and a batch by
        :meth:`CloudServer.search_many`; their ``batch.*`` counters differ).
        A leg is one ``transport.deliver`` inside one ``transport.retried``
        scope, and serve and settle share a scope, so a lost settlement is
        re-served before it is re-sent.  Idempotency keys are scoped by an
        operation counter, so a duplicated or re-sent message never
        double-charges an escrow.  The first submit that fails (the chain
        refuses it, e.g. for insufficient funds, or its retry budget runs
        out) ends the submits: the escrows already submitted are served and
        settled, and that escrow and every later one degrade unsubmitted.
        A submit whose call ran but whose every reply was lost did not fail:
        the contract side records each escrow's receipt, so that escrow is
        adopted and served and settled as usual.
        When the retry budget runs out, or the settlement reverts, every
        escrow whose settlement did not land degrades to an error outcome
        instead of raising.  Settlement is
        :meth:`_settle`'s: sync settlement mines one block per call, block
        settlement seals as it settles.
        """
        contract, transport = self.contract, self.transport
        address, user = searcher
        outcomes = [SearchOutcome(query, -1, user.make_tokens(query)) for query in queries]
        op = self._next_op()
        #: Numbered attempts per escrow; only a faulting transport numbers them.
        tried = [0] * len(outcomes)
        #: Escrow index -> its submit receipt, once the chain ran the call.
        escrowed: dict[int, Receipt] = {}
        #: Escrow index -> (response, receipt, height, verified) once it settled.
        landed: dict[int, tuple] = {}

        def count(indices, attempt: int | None) -> None:
            if attempt is not None:
                for i in indices:
                    tried[i] += 1

        def submit(i: int, tokens: list[SearchToken]) -> Receipt:
            """The contract's side: open the escrow and record its receipt."""
            receipt = self._chain_call(
                address, contract, "submit_query", (tokens_digest_input(tokens),), value=payment
            )
            if receipt.status:
                escrowed[i] = receipt
            return receipt

        def submit_attempt(i: int, attempt: int | None) -> Receipt:
            count((i,), attempt)
            return transport.deliver(
                USER_TO_CONTRACT,
                outcomes[i].tokens,
                partial(submit, i),
                codec=wire.TOKENS,
                idempotency_key=("submit", op, i),
                cache_if=_succeeded,
            )

        #: The escrows that reached the contract: a prefix of ``outcomes``,
        #: since the first submit the chain refuses ends the submits.
        live: list[SearchOutcome] = []
        submit_error: ReproError | None = None
        for i, outcome in enumerate(outcomes):
            try:
                with trace.span("submit"):
                    receipt = transport.retried("submit_query", partial(submit_attempt, i))
            except (RetryExhausted, InsufficientFundsError) as exc:
                if i not in escrowed:
                    submit_error = exc
                    break
                # Only the replies were lost: the escrow is open on chain.
                receipt = escrowed[i]
            if not receipt.status:
                submit_error = StateError(f"query submission reverted: {receipt.revert_reason}")
                break
            outcome.submit_receipt, outcome.query_id = receipt, receipt.return_value
            live.append(outcome)

        if batch:
            request, serve = [o.tokens for o in live], self.cloud.search_many
            codecs, attrs = (wire.TOKEN_LISTS, wire.RESPONSES), {"batch": len(live)}
        else:
            request, serve = outcomes[0].tokens, self.cloud.search
            codecs, attrs = (wire.TOKENS, wire.RESPONSE), {}
        # A tier delivers each shard's slice on that shard's own leg.
        serve_via = DIRECT if self._sharded else transport

        def serve_settle(attempt: int | None) -> None:
            count(range(len(live)), attempt)
            span_attrs = attrs if attempt is None else {**attrs, "attempt": attempt}

            def settle(message) -> list[str]:
                """The contract's side: settle every escrow not yet landed."""
                responses = message if batch else [message]
                pending = [i for i in range(len(live)) if i not in landed]
                staged = [
                    (live[i].query_id, responses[i], ("settle", op, attempt, i))
                    for i in pending
                ]
                reverts = []
                for i, (receipt, height, verified) in zip(
                    pending, self._settle(contract, staged, batch)
                ):
                    if receipt.status:
                        landed[i] = (responses[i], receipt, height, verified)
                    else:
                        reverts.append(receipt.revert_reason)
                return reverts

            with trace.span("cloud.search", **span_attrs):
                served = serve_via.deliver(
                    CONTRACT_TO_CLOUD, request, serve, codec=codecs[0], endpoint=self.cloud
                )
            with trace.span("verify_settle", **span_attrs):
                reverts = transport.deliver(
                    CLOUD_TO_CONTRACT,
                    served,
                    settle,
                    codec=codecs[1],
                    idempotency_key=("settle", op),
                    cache_if=lambda reverts: not reverts,
                    endpoint=self.cloud,
                )
                if reverts:
                    # A revert leaves the escrow open (state rolled back), so
                    # the settlement can be retried, e.g. after a crash
                    # restart briefly served a stale Ac.
                    raise TransientChainError(f"settle reverted: {reverts[0]}")

        #: What degrades the submitted escrows: the settle leg's failure, or
        #: the submit's when no escrow reached the chain.
        failed = submit_error if not live else None
        if failed is None:
            try:
                transport.retried("verify_and_settle", serve_settle)
            except (RetryExhausted, TransientChainError) as exc:
                failed = exc
        if failed is not None:
            self._mine_boundary()

        numbered = any(tried)
        for i, outcome in enumerate(outcomes):
            if i in landed:
                response, outcome.settle_receipt, outcome.settle_height, verified = landed[i]
                outcome.response, outcome.verified = response, verified
                if verified:
                    outcome.record_ids = user.decrypt_results(response)
            else:
                error = failed if i < len(live) else submit_error
                outcome.error, outcome.failure = str(error), DeliveryFailure.from_exception(error)
            if numbered:
                outcome.attempts = tried[i]
            self._record(outcome, payment, batch_size=len(outcomes) if batch else None)
        if failed is None and self.builder is None:
            self.chain.mine()
        return outcomes

    def _settle(
        self, contract: SlicerContract, staged: list[tuple], batch: bool
    ) -> list[tuple[Receipt, int | None, bool]]:
        """Settle ``(query_id, response, tx_id)`` escrows: ``(receipt, height, verified)`` each.

        * **sync single** — one ``verify_and_settle`` call;
        * **sync batch** — one ``batch_verify_and_settle`` call for all of
          them, whose per-escrow verdicts are only in its return value;
        * **block** — one ``verify_and_settle`` per escrow staged in the
          mempool (same sender, calldata and per-call gas metering as sync,
          so the receipts are bit-identical), then blocks are sealed until
          every one has landed: a :class:`ChainFaultPlan` delay pushes a tx
          past later blocks, and the round loop keeps sealing until it
          ripens — delayed, never lost.  ``tx_id`` is scoped by attempt:
          a retry after a transient revert is a new staging, not a
          duplicate.
        """
        builder = self.builder
        if builder is not None:
            tx_ids = []
            for query_id, response, tx_id in staged:
                builder.stage_settlement(
                    self.cloud_address,
                    contract,
                    "verify_and_settle",
                    (query_id, self.cloud.ads_value, response_to_chain_args(response)),
                    gas_limit=self.settle_gas_limit,
                    tx_id=tx_id,
                )
                tx_ids.append(tx_id)
            rounds = 0
            while not all(tx_id in builder.receipts for tx_id in tx_ids):
                if rounds == MAX_SETTLE_ROUNDS:
                    raise StateError(f"settlement did not land within {rounds} blocks")
                builder.seal_block()
                rounds += 1
            landed = [builder.receipts[tx_id] for tx_id in tx_ids]
            return [(r, height, bool(r.status and r.return_value)) for r, height in landed]
        if batch:
            receipt = self.chain.call(
                self.cloud_address,
                contract,
                "batch_verify_and_settle",
                (
                    [query_id for query_id, _, _ in staged],
                    self.cloud.ads_value,
                    [response_to_chain_args(response) for _, response, _ in staged],
                ),
            )
            metrics.observe("gas.batch_verify_and_settle", receipt.gas_used)
            verdicts = receipt.return_value if receipt.status else [False] * len(staged)
            return [(receipt, None, bool(v)) for v in verdicts]
        ((query_id, response, _),) = staged
        receipt = self.chain.call(
            self.cloud_address,
            contract,
            "verify_and_settle",
            (query_id, self.cloud.ads_value, response_to_chain_args(response)),
        )
        return [(receipt, None, bool(receipt.status and receipt.return_value))]

    def _record(self, outcome: SearchOutcome, payment: int, batch_size: int | None) -> None:
        """The one audit writer: fold one escrow into the audit log and metrics.

        Called inside the entry point's root span, so the audit record
        carries the trace id of the span tree it corresponds to.  The
        verdict mirrors the outcome exactly: ``paid`` iff the contract
        verified, ``refunded`` iff it settled unverified, ``degraded`` iff
        delivery gave up — the chaos property tests assert this.

        A single search (``batch_size`` None) observes the ``search.*`` and
        per-transaction gas histograms and records its ``fault_step``.  A
        batch record carries ``batch_size``; under sync settlement its gas
        is the query's own submit tx, and the shared batch settlement tx is
        attributed once via ``batch_settle_gas`` rather than inflated onto
        every record.
        """
        if outcome.error is not None:
            verdict = VERDICT_DEGRADED
        elif outcome.verified:
            verdict = VERDICT_PAID
        else:
            verdict = VERDICT_REFUNDED
        submit_gas = outcome.submit_receipt.gas_used if outcome.submit_receipt else 0
        settle_gas = outcome.settle_receipt.gas_used if outcome.settle_receipt else 0
        shared_settle = batch_size is not None and self.builder is None
        extra: dict = {}
        if batch_size is None:
            metrics.observe("search.tokens_posted", len(outcome.tokens))
            metrics.observe("search.result_ids", len(outcome.record_ids))
            metrics.observe("search.attempts", outcome.attempts)
            if outcome.submit_receipt is not None:
                metrics.observe("gas.submit_query", submit_gas)
            extra["fault_step"] = outcome.failure.fault_step if outcome.failure else None
        else:
            extra["batch_size"] = batch_size
        if shared_settle:
            extra["batch_settle_gas"] = settle_gas
            settle_gas = 0
        elif outcome.settle_receipt is not None:
            metrics.observe("gas.verify_and_settle", settle_gas)
        if outcome.settle_height is not None:
            extra["block"] = outcome.settle_height
        if self._sharded:
            extra["shards"] = self.cloud.shards_for_tokens(outcome.tokens)
        obs_audit.AUDIT_LOG.append(
            query_id=str(outcome.query_id),
            verdict=verdict,
            tokens_posted=len(outcome.tokens),
            result_count=len(outcome.record_ids),
            accumulator=self.cloud.ads_value if outcome.response is not None else None,
            paid_to={VERDICT_PAID: "cloud", VERDICT_REFUNDED: "user"}.get(verdict),
            amount=payment if verdict != VERDICT_DEGRADED else 0,
            gas=submit_gas + settle_gas,
            attempts=outcome.attempts,
            trace_id=trace.current_trace_id(),
            detail=outcome.error,
            **extra,
        )

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

    # ------------------------------------------------------------- delivery

    def _install(self, output: OwnerOutput, transport) -> None:
        """The install leg: one flat delivery, or one per shard.

        Each message is one :func:`state_io.dump_cloud_package` carrying
        the owner's witnesses.  A tier gets one independent leg per shard
        (``owner->cloud#shardK``) with its own idempotency key, retry
        budget and crash-restart endpoint; the shard id travels as the
        channel and the handler, never in the payload.
        """
        if self._sharded:
            legs = [
                (
                    shard_channel(OWNER_TO_CLOUD, sid),
                    f"install.shard{sid}",
                    package,
                    self.cloud.shard_servers[sid],
                )
                for sid, package in enumerate(output.shard_packages)
            ]
        else:
            legs = [(OWNER_TO_CLOUD, "install", output.cloud_package, self.cloud)]
        op = self._next_op()
        package_codec = (state_io.dump_cloud_package, state_io.load_cloud_package)
        for channel, label, package, endpoint in legs:
            transport.retried(
                label,
                lambda attempt: transport.deliver(
                    channel,
                    package,
                    endpoint.install,
                    codec=package_codec,
                    idempotency_key=("install", op, channel),
                    endpoint=endpoint,
                ),
            )

    def _next_op(self) -> int:
        """Monotonic operation counter: the idempotency-key namespace."""
        self._ops += 1
        return self._ops

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
