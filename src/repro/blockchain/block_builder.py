"""Deterministic block production over the mempool, with reorg replay.

The builder is the block-mode counterpart of the ad-hoc ``chain.mine()``
calls the synchronous path sprinkles after each protocol step.  It owns
three things:

* **packing** — :meth:`seal_block` drains the mempool (fee order, per-sender
  nonce order, block gas budget) and seals one block;
* **the replay journal** — before the first transaction of every block it
  takes a :meth:`~repro.blockchain.chain.Blockchain.mark` in the chain's
  undo log, and keeps a bounded journal of ``(mark, executed calls)`` per
  sealed block; it holds the oldest journaled mark, so the undo log keeps
  at most :data:`MAX_JOURNAL` blocks of writes;
* **chain faults** — with a :class:`~repro.chaos.faults.ChainFaultPlan`
  attached, every sealed block draws a reorg decision: on a hit the last
  ``d`` builder-produced blocks are orphaned, state rewinds to the earliest
  popped block's mark, and the orphaned transactions re-execute in their
  original order into replacement blocks.

Execution is deterministic, so replay reproduces every receipt bit for bit
— the builder *asserts* this (status, gas, return value) and refuses to
continue on divergence.  That is the mechanical form of the fairness claim:
a reorg can move a settlement to a different block, it can never change the
verdict or the escrow arithmetic.  Replacement blocks still differ from the
orphaned ones: the chain clock is monotonic across reorgs, so the new
headers carry later timestamps (and therefore new hashes), which is what
the reorg-aware light-client sync has to cope with.

Transactions executed outside the mempool (block mode still submits
escrows and ADS updates immediately, exactly like the synchronous path)
enter the journal through :meth:`execute_now`, so a reorg replays them
too.  The builder never touches blocks it did not produce (deployment and
setup blocks are outside the journal and outside reorg reach).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common import perfstats
from ..common.errors import BlockchainError
from ..obs import trace
from .block import Block
from .chain import DEFAULT_GAS_LIMIT, Blockchain
from .contract import Contract
from .mempool import DEFAULT_GAS_PRICE, Mempool, PendingCall
from .transaction import Receipt

#: Journal depth: reorgs deeper than this are clamped (older blocks' marks
#: are released).  Far above any profile's ``reorg_depth_max``.
MAX_JOURNAL = 8


@dataclass
class ExecutedCall:
    """One call a sealed block executed — enough to replay it exactly."""

    tx_id: object
    sender: bytes
    contract: Contract
    method: str
    args: tuple
    value: int
    gas_limit: int
    receipt: Receipt


@dataclass
class BlockRecord:
    """Journal entry: the undo-log mark before one block plus what it executed."""

    mark: int
    calls: list[ExecutedCall] = field(default_factory=list)
    block: Block | None = None


class BlockBuilder:
    """Packs pending calls into blocks; replays them across reorgs."""

    def __init__(
        self,
        chain: Blockchain,
        mempool: Mempool | None = None,
        fault_plan=None,
    ) -> None:
        self.chain = chain
        self.mempool = mempool if mempool is not None else Mempool(chain)
        self.fault_plan = fault_plan
        #: tx_id -> (latest receipt, block number it landed in).
        self.receipts: dict[object, tuple[Receipt, int]] = {}
        self._journal: list[BlockRecord] = []
        self._open: BlockRecord | None = None
        self.reorgs = 0
        self.orphaned = 0

    # ----------------------------------------------------------- execution

    def _ensure_open(self) -> BlockRecord:
        if self._open is None:
            if self.chain._pending_txs:
                raise BlockchainError(
                    "transactions executed outside the builder while in block mode"
                )
            self._open = BlockRecord(mark=self.chain.mark())
            self._hold()
        return self._open

    def _hold(self) -> None:
        """Hold the oldest mark a reorg may still rewind to."""
        oldest = self._journal[0] if self._journal else self._open
        self.chain.hold(None if oldest is None else oldest.mark)

    def execute_now(
        self,
        sender: bytes,
        contract: Contract,
        method: str,
        args: tuple = (),
        *,
        value: int = 0,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        tx_id: object = None,
    ) -> Receipt:
        """Immediate execution, journaled for reorg replay.

        Block mode keeps the synchronous semantics for non-settlement calls
        (escrow submission needs its query id back right away); routing them
        through the builder is what makes them replayable.
        """
        record = self._ensure_open()
        receipt = self.chain.call(
            sender, contract, method, args, value=value, gas_limit=gas_limit
        )
        record.calls.append(
            ExecutedCall(tx_id, bytes(sender), contract, method, tuple(args), value, gas_limit, receipt)
        )
        if tx_id is not None:
            self.receipts[tx_id] = (receipt, self.chain.height)
        return receipt

    def stage_settlement(
        self,
        sender: bytes,
        contract: Contract,
        method: str,
        args: tuple,
        *,
        gas_limit: int,
        gas_price: int = DEFAULT_GAS_PRICE,
        tx_id: object = None,
    ) -> PendingCall:
        """Stage one settlement call, applying the DELAY chain fault.

        A delay hit makes the call ineligible for the next ``d`` blocks —
        the settlement lands late (past ``d`` block boundaries) but is never
        lost, which the late-settlement conformance cells assert.
        """
        hold = self.fault_plan.draw_delay() if self.fault_plan is not None else 0
        if hold:
            perfstats.incr("chaos.chain.delayed")
            perfstats.incr("chaos.chain.delay_blocks", hold)
            trace.event("chain.delay", blocks=hold)
        return self.mempool.stage(
            sender,
            contract,
            method,
            args,
            gas_limit=gas_limit,
            gas_price=gas_price,
            tx_id=tx_id,
            hold_until=self.chain.height + hold,
        )

    # -------------------------------------------------------------- sealing

    def seal_block(self) -> Block:
        """Pack eligible mempool calls and seal one block; apply chain faults.

        The gas budget charges immediately-executed transactions at their
        *measured* gas (they already ran) and staged calls at their declared
        limit (the packing-time bound), so a submit and its settlement
        normally share a block exactly as in synchronous mode.
        """
        record = self._ensure_open()
        budget = self.chain.config.block_gas_limit - sum(
            c.receipt.gas_used for c in record.calls
        )
        taken = self.mempool.take(self.chain.height, max(budget, 0))
        for call in taken:
            receipt = self.chain.call(
                call.sender,
                call.contract,
                call.method,
                call.args,
                value=call.value,
                gas_limit=call.gas_limit,
            )
            record.calls.append(
                ExecutedCall(
                    call.tx_id,
                    call.sender,
                    call.contract,
                    call.method,
                    call.args,
                    call.value,
                    call.gas_limit,
                    receipt,
                )
            )
            self.receipts[call.tx_id] = (receipt, self.chain.height)
        block = self.chain.mine()
        record.block = block
        self._journal.append(record)
        del self._journal[:-MAX_JOURNAL]
        self._open = None
        self._hold()
        perfstats.incr("blocks.sealed")
        perfstats.incr("blocks.settlements", len(taken))
        if not block.transactions:
            perfstats.incr("blocks.empty")
        if self.fault_plan is not None:
            depth = min(self.fault_plan.draw_reorg(), len(self._journal))
            if depth:
                self._reorg(depth)
        return block

    # --------------------------------------------------------------- reorgs

    def _reorg(self, depth: int) -> None:
        """Orphan the last ``depth`` builder blocks and replay them.

        Pops the blocks, rewinds world state to the mark taken before the
        earliest of them, then re-executes every orphaned call in its
        original order, re-sealing at the same block boundaries.  Execution
        is deterministic, so the replayed receipts must match the orphaned
        ones exactly — a divergence means the chain simulation itself broke,
        and the builder raises rather than settle on it.
        """
        replay = self._journal[-depth:]
        del self._journal[-depth:]
        for _ in range(depth):
            self.chain.pop_block()
        self.chain.rewind(replay[0].mark)
        self.reorgs += 1
        self.orphaned += depth
        perfstats.incr("chaos.chain.reorgs")
        perfstats.incr("chaos.chain.orphaned_blocks", depth)
        trace.event("chain.reorg", depth=depth)

        for old in replay:
            fresh = BlockRecord(mark=self.chain.mark())
            for call in old.calls:
                receipt = self.chain.call(
                    call.sender,
                    call.contract,
                    call.method,
                    call.args,
                    value=call.value,
                    gas_limit=call.gas_limit,
                )
                replayed = ExecutedCall(
                    call.tx_id,
                    call.sender,
                    call.contract,
                    call.method,
                    call.args,
                    call.value,
                    call.gas_limit,
                    receipt,
                )
                self._check_replay(call.receipt, receipt)
                fresh.calls.append(replayed)
                if call.tx_id is not None:
                    self.receipts[call.tx_id] = (receipt, self.chain.height)
            fresh.block = self.chain.mine()
            self._journal.append(fresh)
        del self._journal[:-MAX_JOURNAL]
        self._hold()

    @staticmethod
    def _check_replay(old: Receipt, new: Receipt) -> None:
        if (old.status, old.gas_used, old.return_value) != (
            new.status,
            new.gas_used,
            new.return_value,
        ):
            raise BlockchainError(
                "reorg replay diverged from the orphaned execution "
                f"(status {old.status}->{new.status}, gas {old.gas_used}->{new.gas_used})"
            )
