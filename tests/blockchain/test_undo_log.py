"""The chain's undo log: call reverts and reorg rewinds unwind one journal."""

import pytest

from repro.blockchain.block_builder import MAX_JOURNAL, BlockBuilder
from repro.blockchain.chain import Blockchain
from repro.blockchain.contract import Contract
from repro.blockchain.gas import GasSchedule
from repro.blockchain.mempool import Mempool
from repro.common.errors import BlockchainError, InsufficientFundsError


class Ledger(Contract):
    """Escrow-shaped contract: value in, payouts out, fresh slots per call."""

    CODE_SIZE = 150

    def init(self) -> None:
        self._sstore_int("count", 0, 8)

    def deposit(self) -> int:
        count = self._sload_int("count") + 1
        self._sstore_int("count", count, 8)
        self._sstore_int(f"paid:{count}", self.call_value, 8)
        return count

    def pay(self, to: bytes, amount: int) -> None:
        self._transfer(to, amount)

    def write(self, n: int) -> None:
        self._sstore(f"slot:{n}", b"\x01")

    def write_then_fail(self, n: int) -> None:
        self._sstore(f"slot:{n}", b"\x01")
        self._require(False, "undo me")


@pytest.fixture()
def world():
    chain = Blockchain()
    alice = chain.create_account("alice", 10**9)
    bob = chain.create_account("bob", 0)
    ledger, _ = chain.deploy(alice, Ledger)
    chain.mine()
    return chain, alice, bob, ledger


def sstore_set() -> int:
    return GasSchedule().sstore_set  # one word: every value written here is short


class TestSyncLog:
    def test_log_empty_after_each_call(self, world):
        chain, alice, bob, ledger = world
        assert chain._undo == []
        chain.call(alice, ledger, "deposit", value=50)
        assert chain._undo == []
        chain.call(alice, ledger, "pay", (bob, 20))
        assert chain._undo == []
        assert not chain.call(alice, ledger, "write_then_fail", (1,)).status
        assert chain._undo == []
        assert not chain.call(alice, ledger, "pay", (bob, 10**6)).status
        assert chain._undo == []
        with pytest.raises(InsufficientFundsError):
            chain.call(bob, ledger, "deposit", value=10**6)
        assert chain._undo == []
        chain.deploy(alice, Ledger)
        assert chain._undo == []

    def test_reverted_fresh_slot_is_set_again(self, world):
        chain, alice, _, ledger = world
        slot = ledger._slot("slot:7")
        assert not chain.call(alice, ledger, "write_then_fail", (7,)).status
        assert slot not in ledger._storage  # absent again, not b""
        receipt = chain.call(alice, ledger, "write", (7,))
        assert receipt.gas_breakdown["sstore"] == sstore_set()

    def test_rewind_past_trimmed_log_refused(self, world):
        chain, alice, _, ledger = world
        mark = chain.mark()
        chain.call(alice, ledger, "deposit", value=1)
        with pytest.raises(BlockchainError):
            chain.rewind(mark)


class TestReorgRewind:
    def test_rewound_fresh_slot_is_set_again(self, world):
        chain, alice, _, ledger = world
        mark = chain.mark()
        chain.hold(mark)  # what the block builder does for an open block
        first = chain.call(alice, ledger, "write", (7,))
        chain.mine()
        chain.pop_block()
        chain.rewind(mark)
        assert ledger._slot("slot:7") not in ledger._storage
        again = chain.call(alice, ledger, "write", (7,))
        assert again.gas_breakdown["sstore"] == first.gas_breakdown["sstore"] == sstore_set()
        assert chain.accounts[alice].nonce == 2  # deploy + one surviving write

    def test_builder_reorg_replays_fresh_slot_as_set(self, world):
        chain, alice, _, ledger = world
        builder = BlockBuilder(chain, Mempool(chain))
        builder.execute_now(alice, ledger, "write", (7,), tx_id="w")
        builder.seal_block()
        builder._reorg(1)  # replay raises if the rewound slot re-prices
        receipt, _ = builder.receipts["w"]
        assert receipt.gas_breakdown["sstore"] == sstore_set()

    def test_max_depth_reorg_matches_twin_chain(self):
        """A reorg at the journal's full depth rewinds balances, nonces and
        every contract's storage to exactly what a reorg-free twin holds."""

        def run(reorg: bool):
            chain = Blockchain()
            alice = chain.create_account("alice", 10**9)
            bob = chain.create_account("bob", 0)
            ledgers = [chain.deploy(alice, Ledger)[0] for _ in range(2)]
            chain.mine()
            builder = BlockBuilder(chain, Mempool(chain))
            for block in range(MAX_JOURNAL + 2):
                for i, ledger in enumerate(ledgers):
                    builder.execute_now(alice, ledger, "deposit", value=100 + block)
                    builder.execute_now(alice, ledger, "pay", (bob, 10 * (i + 1)))
                    builder.execute_now(alice, ledger, "write", (block,))
                    builder.execute_now(alice, ledger, "write_then_fail", (1000 + block,))
                    builder.stage_settlement(
                        alice, ledger, "pay", (bob, 1), gas_limit=100_000
                    )
                builder.seal_block()
            if reorg:
                builder._reorg(MAX_JOURNAL)
                assert builder.orphaned == MAX_JOURNAL
            # The log holds at most MAX_JOURNAL blocks of writes.
            assert chain._undo_base == builder._journal[0].mark
            return (
                {a: (acct.balance, acct.nonce) for a, acct in chain.accounts.items()},
                {a: dict(c._storage) for a, c in chain.contracts.items()},
                chain.height,
            )

        assert run(reorg=True) == run(reorg=False)
