"""The simulated blockchain: accounts, contract execution, PoA sealing.

This substitutes for the paper's Rinkeby testnet (see DESIGN.md Section 3).
It executes transactions immediately (receipts are available right away, as
on a dev chain), batches them into hash-linked blocks sealed round-robin by
a configured authority set, and meters every contract call with the EVM gas
schedule.  ``verify_integrity`` re-derives every header so tests can assert
tamper-evidence — the property the paper leans on for trusted storage of
``Ac`` and trusted execution of the verification.

Rollback is one undo log.  Every state write — a contract storage slot, a
balance, a nonce — appends ``(container, key, old value)``; :meth:`mark`
names a log position and :meth:`rewind` undoes every write after it.  A
reverted or out-of-gas call rewinds to the mark taken before its attached
value moved, and the block builder rewinds to a block's mark on a reorg.
Entries older than the oldest :meth:`hold` are dropped, so a chain with
no holder keeps the log empty between transactions.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Type, TypeVar

from ..common.errors import (
    BlockchainError,
    ContractRevert,
    InsufficientFundsError,
    OutOfGasError,
)
from .accounts import Account, address_from_label, contract_address
from .block import GENESIS_PARENT, Block, make_block
from .contract import Contract, GasMeter
from .gas import GasSchedule
from .transaction import Receipt, Transaction, encode_calldata

C = TypeVar("C", bound=Contract)

DEFAULT_GAS_LIMIT = 30_000_000


@dataclass
class ChainConfig:
    gas_schedule: GasSchedule = field(default_factory=GasSchedule)
    sealers: tuple[str, ...] = ("sealer-0", "sealer-1", "sealer-2")
    block_gas_limit: int = DEFAULT_GAS_LIMIT


class Blockchain:
    """An in-process Ethereum-like chain with immediate execution."""

    def __init__(self, config: ChainConfig | None = None) -> None:
        self.config = config or ChainConfig()
        self.accounts: dict[bytes, Account] = {}
        self.contracts: dict[bytes, Contract] = {}
        self.blocks: list[Block] = []
        self._pending_txs: list[Transaction] = []
        self._pending_receipts: list[Receipt] = []
        self._sealer_addresses = [address_from_label(s) for s in self.config.sealers]
        self._clock = 0
        #: ``(container, key, old value)`` per state write, oldest first.
        self._undo: list[tuple[object, object, object]] = []
        #: Log position of ``_undo[0]`` (entries before it were trimmed).
        self._undo_base = 0
        #: The oldest mark a holder may still rewind to, or None.
        self._held: int | None = None

    # ------------------------------------------------------------ accounts

    def create_account(self, label: str, balance: int = 0) -> bytes:
        address = address_from_label(label)
        if address in self.accounts:
            raise BlockchainError(f"account {label!r} already exists")
        self.accounts[address] = Account(balance=balance)
        return address

    def _account(self, address: bytes) -> Account:
        if address not in self.accounts:
            raise BlockchainError(f"unknown account 0x{address.hex()}")
        return self.accounts[address]

    def balance(self, address: bytes) -> int:
        return self._account(address).balance

    # ------------------------------------------------------------- txs

    def deploy(
        self,
        sender: bytes,
        contract_cls: Type[C],
        args: tuple = (),
        config: dict | None = None,
        value: int = 0,
        gas_limit: int = DEFAULT_GAS_LIMIT,
    ) -> tuple[C, Receipt]:
        """Create a contract instance on chain; charges create + code deposit.

        ``config`` entries become contract attributes *before* the
        constructor runs.  They model constants compiled into the bytecode
        (already paid for through the code-deposit charge) rather than
        constructor calldata — protocol parameters travel this way.
        """
        account = self._account(sender)
        address = contract_address(sender, account.nonce)
        contract = contract_cls()
        contract.address = address
        # Weak back-pointer: the chain owns its contracts, so a dropped
        # deployment is freed by refcount instead of waiting for the cycle GC.
        contract.chain = weakref.proxy(self)
        for key, value_ in (config or {}).items():
            setattr(contract, key, value_)

        data = encode_calldata("constructor", args)
        tx = Transaction(sender, None, value, data, gas_limit, account.nonce)
        schedule = self.config.gas_schedule
        meter = GasMeter(gas_limit, schedule)

        receipt = self._execute(
            tx,
            contract,
            meter,
            intrinsic=schedule.tx_base
            + schedule.tx_create
            + schedule.calldata_gas(data)
            + schedule.code_deposit_per_byte * contract_cls.CODE_SIZE,
            run=lambda: contract.init(*args),
            mark=self.mark(),
        )
        receipt.contract_address = address
        if receipt.status:
            self.contracts[address] = contract
            self.accounts[address] = Account(balance=0)
            if value:
                self._move_value(sender, address, value)
        self._end_tx(account)
        return contract, receipt

    def call(
        self,
        sender: bytes,
        contract: Contract | bytes,
        method: str,
        args: tuple = (),
        value: int = 0,
        gas_limit: int = DEFAULT_GAS_LIMIT,
    ) -> Receipt:
        """Invoke a contract method as a transaction."""
        if isinstance(contract, (bytes, bytearray)):
            target = self.contracts.get(bytes(contract))
            if target is None:
                raise BlockchainError(f"no contract at 0x{bytes(contract).hex()}")
        else:
            target = contract
        if method.startswith("_") or not hasattr(target, method):
            raise BlockchainError(f"contract has no public method {method!r}")

        account = self._account(sender)
        data = encode_calldata(method, args)
        tx = Transaction(sender, target.address, value, data, gas_limit, account.nonce)
        schedule = self.config.gas_schedule
        meter = GasMeter(gas_limit, schedule)

        # The mark precedes the attached value, so a failed call's rewind
        # refunds it along with every write the call made.
        mark = self.mark()
        if value:
            self._move_value(sender, target.address, value)

        def run() -> object:
            return getattr(target, method)(*args)

        receipt = self._execute(
            tx,
            target,
            meter,
            intrinsic=schedule.tx_base + schedule.calldata_gas(data),
            run=run,
            mark=mark,
        )
        self._end_tx(account)
        return receipt

    def _execute(
        self, tx, contract: Contract, meter: GasMeter, intrinsic: int, run, mark: int
    ) -> Receipt:
        contract._begin_call(meter, tx.sender, tx.value)
        receipt = Receipt(tx_hash=tx.hash(), status=True, gas_used=0)
        try:
            meter.charge(intrinsic, "intrinsic")
            receipt.return_value = run()
        except Exception as fault:  # noqa: BLE001 - EVM semantics: any fault reverts
            # A real VM turns malformed input / internal faults into a revert
            # (invalid opcode); the chain must never crash on bad calldata.
            self.rewind(mark)
            receipt.status = False
            if isinstance(fault, ContractRevert):
                receipt.revert_reason = fault.reason
            elif isinstance(fault, OutOfGasError):
                receipt.revert_reason = str(fault)
                meter.used = meter.limit
            else:
                receipt.revert_reason = f"execution fault: {type(fault).__name__}: {fault}"
        finally:
            receipt.logs = contract._end_call() if receipt.status else []
            receipt.gas_used = meter.used
            receipt.gas_breakdown = dict(meter.breakdown)
            self._pending_txs.append(tx)
            self._pending_receipts.append(receipt)
        return receipt

    def _move_value(self, sender: bytes, to: bytes, amount: int) -> None:
        if amount < 0:
            raise InsufficientFundsError("negative value transfer")
        source, dest = self._account(sender), self._account(to)
        undo = [(source, "balance", source.balance), (dest, "balance", dest.balance)]
        source.debit(amount)  # raises before writing when short
        dest.credit(amount)
        self._undo += undo

    def _end_tx(self, account: Account) -> None:
        """Bump the sender's nonce; the transaction's writes leave the log
        unless a holder keeps them."""
        self._undo.append((account, "nonce", account.nonce))
        account.nonce += 1
        self._trim()

    def _contract_transfer(self, contract_addr: bytes, to: bytes, amount: int) -> None:
        """Value transfer initiated by contract code (escrow payouts)."""
        self._move_value(contract_addr, to, amount)

    # ------------------------------------------------------------- undo log

    def _record(self, storage: dict, slot: bytes, old: bytes | None) -> None:
        """Journal one contract storage write; ``old`` None: slot was absent."""
        self._undo.append((storage, slot, old))

    def mark(self) -> int:
        """The current undo-log position: :meth:`rewind` returns to it."""
        return self._undo_base + len(self._undo)

    def rewind(self, mark: int) -> None:
        """Undo every state write made after ``mark``, newest first.

        Accounts and contracts created after the mark stay in place
        (account creation is off-chain in this simulation).  The block
        clock is not state: timestamps stay monotonic across reorgs, which
        is what gives replacement blocks distinct hashes.
        """
        if mark < self._undo_base:
            raise BlockchainError(f"undo log no longer reaches mark {mark}")
        undo = self._undo
        while len(undo) > mark - self._undo_base:
            container, key, old = undo.pop()
            if not isinstance(container, dict):
                setattr(container, key, old)
            elif old is None:
                # The slot was absent: delete it rather than leave b"", so
                # storage holds exactly what it held at the mark.
                del container[key]
            else:
                container[key] = old

    def hold(self, mark: int | None) -> None:
        """Keep writes after ``mark`` rewindable (None: keep none); trim the rest.

        One holder at a time: the block builder holds its oldest journaled
        block's mark so a reorg can rewind to it.
        """
        self._held = mark
        self._trim()

    def _trim(self) -> None:
        keep_from = self.mark() if self._held is None else self._held
        drop = keep_from - self._undo_base
        if drop > 0:
            del self._undo[:drop]
            self._undo_base = keep_from

    def pop_block(self) -> Block:
        """Orphan the tip block (reorg primitive). State is NOT rewound —
        pair with :meth:`rewind` and re-execution."""
        if not self.blocks:
            raise BlockchainError("cannot pop the genesis boundary: chain is empty")
        if self._pending_txs:
            raise BlockchainError("cannot pop a block with transactions pending")
        return self.blocks.pop()

    # ------------------------------------------------------------- sealing

    def mine(self) -> Block:
        """Seal pending transactions into a block (round-robin PoA)."""
        number = len(self.blocks)
        parent = self.blocks[-1].hash() if self.blocks else GENESIS_PARENT
        sealer = self._sealer_addresses[number % len(self._sealer_addresses)]
        self._clock += 1
        block = make_block(
            number, parent, self._pending_txs, self._pending_receipts, sealer, self._clock
        )
        self.blocks.append(block)
        self._pending_txs = []
        self._pending_receipts = []
        return block

    def verify_integrity(self) -> bool:
        """Recompute every header link — the chain's tamper evidence."""
        parent = GENESIS_PARENT
        for i, block in enumerate(self.blocks):
            header = block.header
            if header.number != i or header.parent_hash != parent:
                return False
            expected = make_block(
                header.number,
                header.parent_hash,
                block.transactions,
                block.receipts,
                header.sealer,
                header.timestamp,
            )
            if expected.hash() != block.hash():
                return False
            if header.sealer != self._sealer_addresses[i % len(self._sealer_addresses)]:
                return False
            parent = block.hash()
        return True

    @property
    def height(self) -> int:
        return len(self.blocks)
