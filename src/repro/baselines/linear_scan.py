"""Naive linear-scan baseline: download, decrypt, filter.

The trivially-correct, trivially-private strawman: the cloud stores opaque
AES blobs and ships *everything* on every query; the user decrypts and
filters locally.  Zero server leakage, zero server compute — but bandwidth
and client time scale with the whole database, and the cloud can still
silently drop records (no verifiability).  It doubles as the ground-truth
oracle in integration tests.
"""

from __future__ import annotations

from ..common.encoding import decode_parts, encode_parts, encode_uint, decode_uint
from ..common.rng import DeterministicRNG, default_rng
from ..crypto.symmetric import SymmetricCipher
from ..core.query import Query


class LinearScanStore:
    """Encrypted blob store with client-side filtering."""

    def __init__(self, rng: DeterministicRNG | None = None) -> None:
        self.rng = rng or default_rng()
        self.cipher = SymmetricCipher.generate(self.rng)
        self._blobs: list[bytes] = []

    def insert(self, record_id: bytes, value: int) -> None:
        plaintext = encode_parts(record_id, encode_uint(value))
        self._blobs.append(self.cipher.encrypt(plaintext))

    def insert_many(self, records: list[tuple[bytes, int]]) -> None:
        for record_id, value in records:
            self.insert(record_id, value)

    def download_all(self) -> list[bytes]:
        """What the server ships per query: the entire store."""
        return list(self._blobs)

    def query(self, query: Query) -> set[bytes]:
        """Client-side: decrypt everything, apply the predicate."""
        predicate = query.predicate()
        out: set[bytes] = set()
        for plaintext in self.cipher.decrypt_many(self.download_all()):
            record_id, value_bytes = decode_parts(plaintext)
            if predicate(decode_uint(value_bytes)):
                out.add(record_id)
        return out

    @property
    def transfer_bytes(self) -> int:
        """Bandwidth cost of one query = size of the whole store."""
        return sum(len(b) for b in self._blobs)

    def __len__(self) -> int:
        return len(self._blobs)
