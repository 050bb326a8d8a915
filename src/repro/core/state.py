"""Protocol state containers: the index ``I`` and the dictionaries ``T``, ``S``.

* :class:`EncryptedIndex` (``I``) — the history-independent label->payload
  map stored at the cloud.  Lookups reveal nothing about insertion order,
  which is what erases SORE's ciphertext-side leakage (Section VI.A).
* :class:`TrapdoorState` (``T``) — per-keyword ``(trapdoor, epoch)`` pairs,
  held by the owner and mirrored to authorised users.
* :class:`SetHashState` (``S``) — per-(keyword, epoch) running multiset
  hashes, held only by the owner; feeds the prime representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.encoding import encode_parts, encode_uint
from ..common.errors import IndexCorruptionError, StateError
from ..crypto.multiset_hash import MultisetHash


class EncryptedIndex:
    """The encrypted index ``I``: an opaque dictionary of fixed-size entries."""

    def __init__(self) -> None:
        self._entries: dict[bytes, bytes] = {}

    def put(self, label: bytes, payload: bytes) -> None:
        if label in self._entries:
            raise IndexCorruptionError("index label collision (PRF labels must be unique)")
        self._entries[label] = payload

    def find(self, label: bytes) -> bytes | None:
        """``I.find``/``I.get`` fused: payload or None (the paper's ⊥)."""
        return self._entries.get(label)

    @property
    def entries(self) -> dict[bytes, bytes]:
        """Read-only view of the label->payload map (callers must not mutate it)."""
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label: bytes) -> bool:
        return label in self._entries

    @property
    def size_bytes(self) -> int:
        """Total stored bytes (labels + payloads) — drives Fig. 4a."""
        return sum(len(l) + len(d) for l, d in self._entries.items())

    def merge(self, other: "EncryptedIndex") -> None:
        """Absorb a freshly built update package (cloud side of Insert)."""
        for label, payload in other._entries.items():
            self.put(label, payload)


@dataclass(frozen=True)
class TrapdoorEntry:
    """One ``T`` entry: current trapdoor ``t`` and update epoch ``j``."""

    trapdoor: bytes
    epoch: int


class TrapdoorState:
    """The dictionary ``T``: keyword -> (trapdoor, epoch)."""

    def __init__(self) -> None:
        self._entries: dict[bytes, TrapdoorEntry] = {}

    def find(self, keyword: bytes) -> TrapdoorEntry | None:
        return self._entries.get(keyword)

    def put(self, keyword: bytes, trapdoor: bytes, epoch: int) -> None:
        self._entries[keyword] = TrapdoorEntry(trapdoor, epoch)

    def get(self, keyword: bytes) -> TrapdoorEntry:
        entry = self._entries.get(keyword)
        if entry is None:
            raise StateError("keyword has no trapdoor state")
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, keyword: bytes) -> bool:
        return keyword in self._entries

    def keywords(self) -> list[bytes]:
        return list(self._entries)

    def snapshot(self) -> "TrapdoorState":
        """An independent copy — what the owner sends to the data user."""
        copy = TrapdoorState()
        copy._entries = dict(self._entries)
        return copy


def set_hash_key(trapdoor: bytes, epoch: int, g1: bytes, g2: bytes) -> bytes:
    """The ``S`` dictionary key ``t || j || G1 || G2`` (injectively encoded)."""
    return encode_parts(trapdoor, encode_uint(epoch), g1, g2)


def prime_input(key: bytes, set_hash: MultisetHash) -> bytes:
    """The ``H_prime`` input ``t || j || G1 || G2 || h`` for :func:`set_hash_key` ``key``.

    The owner's Build/Insert, the cloud's VO and every verifier of
    Algorithm 5 derive a prime representative from exactly these bytes.
    """
    return encode_parts(key, set_hash.to_bytes())


class SetHashState:
    """The dictionary ``S``: (trapdoor, epoch, G1, G2) -> running multiset hash."""

    def __init__(self) -> None:
        self._entries: dict[bytes, MultisetHash] = {}

    def put(self, key: bytes, value: MultisetHash) -> None:
        self._entries[key] = value

    def pop(self, key: bytes) -> MultisetHash:
        if key not in self._entries:
            raise StateError("no set-hash entry for this keyword epoch")
        return self._entries.pop(key)

    def get(self, key: bytes) -> MultisetHash | None:
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> list[tuple[bytes, MultisetHash]]:
        return list(self._entries.items())


@dataclass
class CloudPackage:
    """What the owner ships to the cloud after Build or Insert.

    ``index`` carries the (new) entries, ``primes`` the (new) prime
    representatives, ``accumulation`` the fresh ``Ac`` so the cloud can sanity
    check; only ``accumulation`` goes to the blockchain.

    ``witnesses`` holds the owner-issued membership witness of every
    accumulated prime (all of ``X``, not just the delta) under
    ``accumulation``, or ``None`` when the owner has no trapdoor.  The
    install message (``state_io.dump_cloud_package``, flat or per shard)
    carries them; snapshots and segments do not.
    """

    index: EncryptedIndex
    primes: list[int] = field(default_factory=list)
    accumulation: int = 0
    witnesses: dict[int, int] | None = None

    def without_witnesses(self) -> "CloudPackage":
        """The same install without owner witnesses.

        The cloud then serves every query with the paper's live ``MemWit``
        (as after a restore or a cold segment replay) until a
        ``precompute_witnesses`` covers the primes; an install that moves
        ``Ac`` empties what it held.
        """
        return CloudPackage(self.index, self.primes, self.accumulation)

    @property
    def prime_bytes(self) -> int:
        """Serialized size of the prime list — drives Fig. 4b."""
        return sum((p.bit_length() + 7) // 8 for p in self.primes)
