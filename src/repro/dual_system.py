"""Deletion and update via the dual-instance construction (Section V.F).

The base scheme is append-only, so Slicer follows Sophos: run **two**
protocol instances — one accumulating insertions, one accumulating
deletions — and define the final result as the set difference

    result = search(insert-instance) \\ search(delete-instance).

:class:`DualSlicerSystem` runs both as full :class:`~repro.system.
SlicerSystem` deployments on one shared chain: one contract escrows and
verifies the insert-instance search, the other the delete-instance search,
and the answer is the verified set difference.  A cheating cloud on
*either* instance forfeits that instance's payment.  An update of a record
is one deletion (of the old value) plus one insertion under a new version
ID; record IDs are single-use, matching the paper's uniqueness requirement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .blockchain.chain import Blockchain
from .common.errors import ParameterError, StateError
from .common.rng import DeterministicRNG, default_rng
from .core.params import SlicerParams
from .core.query import Query
from .core.records import Database
from .system import DEFAULT_PAYMENT, SearchOutcome, SlicerSystem


@dataclass
class DualSearchOutcome:
    """Both instances' outcomes plus the combined verified answer."""

    insert_outcome: SearchOutcome
    delete_outcome: SearchOutcome

    @property
    def verified(self) -> bool:
        return self.insert_outcome.verified and self.delete_outcome.verified

    @property
    def record_ids(self) -> set[bytes]:
        if not self.verified:
            return set()
        return self.insert_outcome.record_ids - self.delete_outcome.record_ids


class DualSlicerSystem:
    """Two SlicerSystems (insert-/delete-instance) on one shared chain."""

    def __init__(
        self,
        params: SlicerParams,
        rng: DeterministicRNG | None = None,
        shards: int = 1,
    ) -> None:
        self.params = params
        self.rng = rng or default_rng()
        self.chain = Blockchain()
        self._shards = shards
        # Distinct account labels per instance (``account_tag``) let the two
        # deployments share one chain without address collisions.
        self.insert_system = self._make_system("ins")
        self.delete_system = self._make_system("del")
        self._live: dict[bytes, int] = {}
        self._deleted: set[bytes] = set()

    def _make_system(self, tag: str) -> SlicerSystem:
        return SlicerSystem(
            params=self.params,
            chain=self.chain,
            rng=self.rng.spawn(),
            shards=self._shards,
            account_tag=tag,
        )

    # ------------------------------------------------------------ mutation

    def setup(self, database: Database) -> None:
        self.insert_system.setup(database)
        self.delete_system.setup(Database(self.params.value_bits, id_len=self.params.record_id_len))
        for record in database:
            self._live[record.record_id] = record.value

    def insert(self, record_id: bytes, value: int) -> None:
        if record_id in self._live:
            raise ParameterError("record ID already live")
        if record_id in self._deleted:
            raise ParameterError("record ID was deleted; IDs are single-use")
        batch = Database(self.params.value_bits, id_len=self.params.record_id_len)
        batch.add(record_id, value)
        self.insert_system.insert(batch)
        self._live[record_id] = value

    def delete(self, record_id: bytes) -> None:
        if record_id not in self._live:
            raise StateError("cannot delete a record that is not live")
        batch = Database(self.params.value_bits, id_len=self.params.record_id_len)
        batch.add(record_id, self._live.pop(record_id))
        self.delete_system.insert(batch)
        self._deleted.add(record_id)

    def update(self, record_id: bytes, new_value: int) -> bytes:
        """Delete + insert-under-version; returns the new physical ID."""
        self.delete(record_id)
        versioned = hashlib.sha256(b"version:" + record_id).digest()[: len(record_id)]
        self.insert(versioned, new_value)
        return versioned

    # -------------------------------------------------------------- search

    def search(self, query: Query, payment: int = DEFAULT_PAYMENT) -> DualSearchOutcome:
        """One paid, on-chain-verified search per instance; combined result."""
        return DualSearchOutcome(
            insert_outcome=self.insert_system.search(query, payment),
            delete_outcome=self.delete_system.search(query, payment),
        )

    # -------------------------------------------------------------- oracle

    def expected_ids(self, query: Query) -> set[bytes]:
        predicate = query.predicate()
        return {rid for rid, value in self._live.items() if predicate(value)}

    def balances(self) -> dict[str, dict[str, int]]:
        return {
            "insert": self.insert_system.balances(),
            "delete": self.delete_system.balances(),
        }
