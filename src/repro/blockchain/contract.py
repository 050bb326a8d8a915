"""Gas-metered contract runtime.

Contracts are Python classes whose public methods execute inside a metered
context: storage reads/writes, hashing, modexp and event emission all charge
an EVM-calibrated :class:`~repro.blockchain.gas.GasSchedule` through the
per-call :class:`GasMeter`.  Every storage write is journaled in the chain's
undo log, so a :class:`~repro.common.errors.ContractRevert` (or running out
of gas) rolls back state while still consuming gas — matching EVM semantics
closely enough for the paper's Table II to be reproduced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..common.errors import ContractRevert, OutOfGasError, StateError
from .gas import GasSchedule
from .transaction import LogEvent


@dataclass
class GasMeter:
    """Tracks gas for one call, with an itemised breakdown for reporting."""

    limit: int
    schedule: GasSchedule
    used: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)

    def charge(self, amount: int, label: str) -> None:
        if amount < 0:
            raise StateError("negative gas charge")
        self.used += amount
        self.breakdown[label] = self.breakdown.get(label, 0) + amount
        if self.used > self.limit:
            raise OutOfGasError(f"gas limit {self.limit} exceeded at {self.used} ({label})")


class Contract:
    """Base class for on-chain programs.

    Subclasses implement ``init(...)`` (the constructor body, already
    metered) and public methods.  Inside a method, use the ``_sload`` /
    ``_sstore`` / ``_keccak`` / ``_emit`` / ``_transfer`` / ``_require``
    helpers so every state touch is charged; pure compute charges
    :attr:`meter` itself.
    """

    #: Estimated deployed bytecode size; drives the code-deposit charge.
    CODE_SIZE = 1024

    def __init__(self) -> None:
        self.address: bytes = b""
        self.chain = None  # weak proxy set by Blockchain.deploy
        self._storage: dict[bytes, bytes] = {}
        self._meter: GasMeter | None = None
        self._warm_slots: set[bytes] = set()
        self._logs: list[LogEvent] = []
        self._caller: bytes = b""
        self._call_value: int = 0

    # ----------------------------------------------------- runtime wiring

    def _begin_call(self, meter: GasMeter, caller: bytes, value: int) -> None:
        self._meter = meter
        self._warm_slots = set()
        self._logs = []
        self._caller = caller
        self._call_value = value

    def _end_call(self) -> list[LogEvent]:
        logs, self._logs = self._logs, []
        self._meter = None
        return logs

    @property
    def meter(self) -> GasMeter:
        if self._meter is None:
            raise StateError("contract method executed outside a metered call")
        return self._meter

    @property
    def caller(self) -> bytes:
        """``msg.sender`` of the current call."""
        return self._caller

    @property
    def call_value(self) -> int:
        """``msg.value`` of the current call."""
        return self._call_value

    # --------------------------------------------------------- EVM helpers

    def _slot(self, name: str) -> bytes:
        return hashlib.sha256(b"slot:" + name.encode("utf-8")).digest()

    def _sload(self, name: str) -> bytes:
        slot = self._slot(name)
        schedule = self.meter.schedule
        words = schedule.storage_words(len(self._storage.get(slot, b"\x00")))
        if slot in self._warm_slots:
            self.meter.charge(schedule.sload_warm * words, "sload")
        else:
            self._warm_slots.add(slot)
            self.meter.charge(schedule.sload_cold * words, "sload")
        return self._storage.get(slot, b"")

    def _sstore(self, name: str, value: bytes) -> None:
        slot = self._slot(name)
        schedule = self.meter.schedule
        words = schedule.storage_words(len(value))
        previous = self._storage.get(slot)
        if slot in self._warm_slots and previous == value:
            self.meter.charge(schedule.sstore_warm * words, "sstore")
        elif previous is None or previous == b"":
            self.meter.charge(schedule.sstore_set * words, "sstore")
        else:
            self.meter.charge(schedule.sstore_reset * words, "sstore")
        self._warm_slots.add(slot)
        if self.chain is not None:
            self.chain._record(self._storage, slot, previous)
        self._storage[slot] = value

    def _sload_int(self, name: str) -> int:
        return int.from_bytes(self._sload(name), "big")

    def _sstore_int(self, name: str, value: int, width: int | None = None) -> None:
        width = width or max(1, (value.bit_length() + 7) // 8)
        self._sstore(name, value.to_bytes(width, "big"))

    def _keccak(self, data: bytes) -> bytes:
        self.meter.charge(self.meter.schedule.keccak_gas(len(data)), "keccak")
        return hashlib.sha256(data).digest()

    def _emit(self, name: str, **fields: object) -> None:
        data_bytes = sum(
            len(v) if isinstance(v, (bytes, bytearray)) else 32 for v in fields.values()
        )
        self.meter.charge(self.meter.schedule.log_gas(1, data_bytes), "log")
        self._logs.append(LogEvent(self.address, name, tuple(fields.items())))

    def _transfer(self, to: bytes, amount: int) -> None:
        """Move value from the contract's balance to ``to``."""
        if self.chain is None:
            raise StateError("contract not attached to a chain")
        self.meter.charge(self.meter.schedule.call_value_transfer, "transfer")
        self.chain._contract_transfer(self.address, to, amount)

    @staticmethod
    def _require(condition: bool, reason: str) -> None:
        if not condition:
            raise ContractRevert(reason)

    # ------------------------------------------------------------- default

    def init(self, *args: object) -> None:
        """Constructor body; subclasses override."""
