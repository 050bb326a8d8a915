"""Metered contract runtime: storage pricing, revert rollback, out-of-gas."""

import pytest

from repro.blockchain.accounts import address_from_label
from repro.blockchain.chain import Blockchain
from repro.blockchain.contract import Contract, GasMeter
from repro.blockchain.gas import GasSchedule
from repro.common.errors import ContractRevert, OutOfGasError, StateError


class Vault(Contract):
    CODE_SIZE = 200

    def init(self) -> None:
        self._sstore_int("total", 0, 8)

    def deposit(self) -> int:
        self._require(self.call_value > 0, "no value")
        total = self._sload_int("total") + self.call_value
        self._sstore_int("total", total, 8)
        self._emit("Deposited", amount=self.call_value.to_bytes(8, "big"))
        return total

    def fail_after_write(self) -> None:
        self._sstore_int("total", 999_999, 8)
        self._require(False, "deliberate revert")

    def withdraw_to(self, to: bytes, amount: int) -> None:
        self._transfer(to, amount)

    def withdraw_then_fail(self, to: bytes, amount: int) -> None:
        self._transfer(to, amount)
        self._require(False, "payout reverted")

    def burn_gas(self) -> None:
        for i in range(10_000):
            self._keccak(b"x" * 32)


@pytest.fixture()
def world():
    chain = Blockchain()
    alice = chain.create_account("alice", 10_000)
    vault, _ = chain.deploy(alice, Vault)
    return chain, alice, vault


class TestStoragePricing:
    def test_first_write_is_set(self, world):
        chain, alice, vault = world
        receipt = chain.call(alice, vault, "deposit", value=10)
        schedule = GasSchedule()
        # total slot was initialised at deploy -> this is a reset, not a set.
        assert receipt.gas_breakdown["sstore"] == schedule.sstore_reset

    def test_warm_sload_cheaper(self):
        meter = GasMeter(10**6, GasSchedule())
        c = Vault()
        c._begin_call(meter, b"\x00" * 20, 0)
        c._sstore("x", b"\x01")
        cold_before = meter.breakdown.get("sload", 0)
        c._sload("x")  # warm: written this tx
        assert meter.breakdown["sload"] - cold_before == GasSchedule().sload_warm


class TestRevertSemantics:
    def test_storage_rolled_back(self, world):
        chain, alice, vault = world
        chain.call(alice, vault, "deposit", value=10)
        receipt = chain.call(alice, vault, "fail_after_write")
        assert not receipt.status
        assert receipt.revert_reason == "deliberate revert"
        # total still 10, not 999999
        ok = chain.call(alice, vault, "deposit", value=5)
        assert ok.return_value == 15

    def test_value_refunded_on_revert(self, world):
        chain, alice, vault = world
        before = chain.balance(alice)

        class Rejecting(Vault):
            def deposit(self) -> int:
                self._require(False, "closed")
                return 0

        rej, _ = chain.deploy(alice, Rejecting)
        receipt = chain.call(alice, rej, "deposit", value=100)
        assert not receipt.status
        assert chain.balance(alice) == before  # value returned
        assert chain.balance(rej.address) == 0

    def test_payout_rolled_back_on_revert(self, world):
        chain, alice, vault = world
        bob = chain.create_account("bob", 0)
        chain.call(alice, vault, "deposit", value=100)
        receipt = chain.call(alice, vault, "withdraw_then_fail", (bob, 60))
        assert not receipt.status
        assert receipt.revert_reason == "payout reverted"
        assert chain.balance(bob) == 0
        assert chain.balance(vault.address) == 100

    def test_logs_dropped_on_revert(self, world):
        chain, alice, vault = world
        receipt = chain.call(alice, vault, "fail_after_write")
        assert receipt.logs == []

    def test_gas_still_consumed_on_revert(self, world):
        chain, alice, vault = world
        receipt = chain.call(alice, vault, "fail_after_write")
        assert receipt.gas_used > 21_000


class TestOutOfGas:
    def test_out_of_gas_reverts(self, world):
        chain, alice, vault = world
        receipt = chain.call(alice, vault, "burn_gas", gas_limit=50_000)
        assert not receipt.status
        assert receipt.gas_used == 50_000
        assert "gas limit" in receipt.revert_reason

    def test_meter_raises(self):
        meter = GasMeter(100, GasSchedule())
        with pytest.raises(OutOfGasError):
            meter.charge(101, "x")

    def test_negative_charge_rejected(self):
        meter = GasMeter(100, GasSchedule())
        with pytest.raises(StateError):
            meter.charge(-1, "x")


class TestTransfers:
    def test_contract_pays_out(self, world):
        chain, alice, vault = world
        bob = chain.create_account("bob", 0)
        chain.call(alice, vault, "deposit", value=100)
        chain.call(alice, vault, "withdraw_to", (bob, 60))
        assert chain.balance(bob) == 60
        assert chain.balance(vault.address) == 40


class TestEvents:
    def test_logs_recorded(self, world):
        chain, alice, vault = world
        receipt = chain.call(alice, vault, "deposit", value=10)
        assert len(receipt.logs) == 1
        event = receipt.logs[0]
        assert event.name == "Deposited"
        assert event.get("amount") == (10).to_bytes(8, "big")
        with pytest.raises(KeyError):
            event.get("missing")

    def test_meter_required_outside_call(self):
        with pytest.raises(StateError):
            Vault()._sload("total")
