"""Forward-secure keyword-file SSE baseline (Sophos-style, Bost CCS 2016).

This is what "most existing SSE designs" in the paper's introduction can do:
exact keyword lookups with forward security, **no numeric comparison**.  The
only way it can answer a range query is to enumerate every value in the
range and run one keyword search each — the strawman the paper calls
"totally infeasible".  The ablation benchmark quantifies exactly that: token
count and work scale with the *range width* here versus the *bit width*
under SORE.

The index machinery intentionally mirrors the Slicer core (PRF labels,
trapdoor-permutation epochs) minus SORE slices and minus the ADS, so the
comparison isolates the cost of numeric search support.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.bitstring import xor_bytes
from ..common.encoding import encode_uint
from ..common.rng import DeterministicRNG, default_rng
from ..crypto.prf import PRF, derive_key
from ..crypto.symmetric import SymmetricCipher
from ..crypto.trapdoor import TrapdoorKeyPair


@dataclass(frozen=True)
class KeywordToken:
    trapdoor: bytes
    epoch: int
    g1: bytes
    g2: bytes


class KeywordSse:
    """Single-party façade: owner-side state plus the server index.

    Kept single-object (rather than the full four-party split) because the
    baseline exists purely for cost comparison.
    """

    def __init__(self, rng: DeterministicRNG | None = None, trapdoor_bits: int = 1024) -> None:
        self.rng = rng or default_rng()
        self.master_key = self.rng.token_bytes(16)
        self.cipher = SymmetricCipher(self.rng.token_bytes(16), self.rng)
        self.trapdoor_keys = TrapdoorKeyPair.generate(trapdoor_bits, self.rng)
        self._state: dict[bytes, tuple[bytes, int]] = {}
        self._server_index: dict[bytes, bytes] = {}

    # ------------------------------------------------------------- updates

    def insert(self, keyword: bytes, document_ids: list[bytes]) -> int:
        """Add documents under a keyword; returns new index entries written."""
        g1 = derive_key(self.master_key, keyword, b"1")
        g2 = derive_key(self.master_key, keyword, b"2")
        entry = self._state.get(keyword)
        if entry is None:
            trapdoor, epoch = self.trapdoor_keys.sample_trapdoor(self.rng), 0
        else:
            trapdoor, epoch = entry
            trapdoor = self.trapdoor_keys.invert(trapdoor)
            epoch += 1
        self._state[keyword] = (trapdoor, epoch)

        label_prf = PRF(g1)
        pad_prf = PRF(g2)
        for counter, doc_id in enumerate(document_ids):
            blob = self.cipher.encrypt(doc_id)
            label = label_prf.eval(trapdoor, encode_uint(counter))
            self._server_index[label] = xor_bytes(
                pad_prf.eval_stream(len(blob), trapdoor, encode_uint(counter)), blob
            )
        return len(document_ids)

    # -------------------------------------------------------------- search

    def token(self, keyword: bytes) -> KeywordToken | None:
        entry = self._state.get(keyword)
        if entry is None:
            return None
        return KeywordToken(
            entry[0],
            entry[1],
            derive_key(self.master_key, keyword, b"1"),
            derive_key(self.master_key, keyword, b"2"),
        )

    def server_search(self, token: KeywordToken) -> list[bytes]:
        """Server-side trapdoor walk; returns encrypted document IDs."""
        label_prf = PRF(token.g1)
        pad_prf = PRF(token.g2)
        results = []
        trapdoor = token.trapdoor
        for _ in range(token.epoch, -1, -1):
            counter = 0
            while True:
                label = label_prf.eval(trapdoor, encode_uint(counter))
                payload = self._server_index.get(label)
                if payload is None:
                    break
                results.append(
                    xor_bytes(
                        pad_prf.eval_stream(len(payload), trapdoor, encode_uint(counter)),
                        payload,
                    )
                )
                counter += 1
            trapdoor = self.trapdoor_keys.public.apply(trapdoor)
        return results

    def search(self, keyword: bytes) -> set[bytes]:
        token = self.token(keyword)
        if token is None:
            return set()
        return set(self.cipher.decrypt_many(self.server_search(token)))

    # ------------------------------------------------- the range strawman

    @staticmethod
    def value_keyword(value: int) -> bytes:
        return b"value:" + encode_uint(value)

    def insert_values(self, records: list[tuple[bytes, int]]) -> None:
        """Index numeric records the only way keyword SSE can: one keyword per value."""
        by_value: dict[int, list[bytes]] = {}
        for record_id, value in records:
            by_value.setdefault(value, []).append(record_id)
        for value, ids in by_value.items():
            self.insert(self.value_keyword(value), ids)

    def range_search_by_enumeration(self, lo: int, hi: int) -> tuple[set[bytes], int]:
        """Answer ``lo <= a <= hi`` by querying every value in the range.

        Returns (result IDs, number of tokens issued) — the cost the paper's
        introduction calls infeasible for wide ranges.
        """
        results: set[bytes] = set()
        tokens_issued = 0
        for value in range(lo, hi + 1):
            token = self.token(self.value_keyword(value))
            if token is None:
                continue
            tokens_issued += 1
            results.update(self.cipher.decrypt_many(self.server_search(token)))
        return results, tokens_issued

    @property
    def index_size(self) -> int:
        return len(self._server_index)
