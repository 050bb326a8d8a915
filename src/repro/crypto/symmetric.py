"""CPA-secure symmetric encryption (the paper's ``Enc``/``Dec``, AES-128).

Record IDs are encrypted with AES-128 in CTR mode with a random nonce when
the ``cryptography`` package is importable (it is in the reference
environment).  A pure-stdlib HMAC-keystream fallback keeps the library
dependency-free: it is a textbook PRF-based stream cipher, CPA-secure under
the same assumption the paper already makes on HMAC.

Both ciphers produce ``nonce || ciphertext`` and are deterministic given an
explicit nonce, which the protocol exploits: the multiset hash in Algorithm
1 line 15 is computed over ``Enc(K_R, R)``, so the *same* ciphertext bytes
must reach the cloud, the user and the verifying contract.

There is one keystream path.  :meth:`SymmetricCipher.encrypt_many` (the
owner's Build and Insert) and :meth:`SymmetricCipher.decrypt_many` (the
user's ``Dec`` over a search's results) build the keystream of a whole
batch in one call — one AES-ECB call over every body's CTR counter blocks
— and ``encrypt``/``decrypt`` are their one-element case.
"""

from __future__ import annotations

import hashlib
import hmac
from itertools import accumulate

from ..common.errors import KeyError_, ParameterError
from ..common.rng import DeterministicRNG, default_rng

NONCE_LEN = 16
KEY_LEN = 16
_BLOCK = 16
_COUNTER_MASK = (1 << 128) - 1

try:  # pragma: no cover - import probing
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    _HAVE_AES = True
except ImportError:  # pragma: no cover
    _HAVE_AES = False


def _hmac_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """PRF counter-mode keystream: HMAC(key, nonce || counter) blocks."""
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(
            hmac.new(key, nonce + counter.to_bytes(8, "big"), hashlib.sha256).digest()
        )
        counter += 1
    return b"".join(blocks)[:length]


class SymmetricCipher:
    """The paper's ``(KGen, Enc, Dec)`` triple for record-ID encryption."""

    def __init__(self, key: bytes, rng: DeterministicRNG | None = None) -> None:
        if len(key) != KEY_LEN:
            raise KeyError_(f"symmetric key must be {KEY_LEN} bytes, got {len(key)}")
        self._key = key
        self._rng = rng or default_rng()

    @classmethod
    def generate(cls, rng: DeterministicRNG | None = None) -> "SymmetricCipher":
        """``KGen``: sample a fresh random key."""
        rng = rng or default_rng()
        return cls(rng.token_bytes(KEY_LEN), rng)

    @property
    def key(self) -> bytes:
        return self._key

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """``Enc``: returns ``nonce || ct``; random nonce unless one is given."""
        if nonce is None:
            nonce = self._rng.token_bytes(NONCE_LEN)
        return self.encrypt_many([plaintext], [nonce])[0]

    def encrypt_many(self, plaintexts: list[bytes], nonces: list[bytes]) -> list[bytes]:
        """``Enc`` over a batch with explicit nonces: ``nonce || ct`` each,
        from one keystream call for the whole batch (:meth:`_xor_keystream`).
        :meth:`encrypt` is its one-element case."""
        if len(plaintexts) != len(nonces):
            raise ParameterError("encrypt_many needs one nonce per plaintext")
        if any(len(nonce) != NONCE_LEN for nonce in nonces):
            raise ParameterError(f"nonce must be {NONCE_LEN} bytes")
        bodies = self._xor_keystream(nonces, plaintexts)
        return [nonce + body for nonce, body in zip(nonces, bodies)]

    def decrypt(self, blob: bytes) -> bytes:
        """``Dec``: inverse of :meth:`encrypt`."""
        return self.decrypt_many([blob])[0]

    def decrypt_many(self, blobs: list[bytes]) -> list[bytes]:
        """``Dec`` over a batch of ``nonce || ct`` blobs, from one keystream
        call for the whole batch.  :meth:`decrypt` is its one-element case."""
        if any(len(blob) < NONCE_LEN for blob in blobs):
            raise ParameterError("ciphertext shorter than nonce")
        return self._xor_keystream(
            [blob[:NONCE_LEN] for blob in blobs], [blob[NONCE_LEN:] for blob in blobs]
        )

    def _xor_keystream(self, nonces: list[bytes], bodies: list[bytes]) -> list[bytes]:
        """XOR each body with its nonce's keystream: the one keystream path.

        Each body takes whole keystream blocks, and the batch's stream is
        built in one call.  With AES that is one ECB call over the
        concatenated counter blocks (nonce, nonce+1, … per body, mod 2^128
        as CTR increments), i.e. exactly AES-CTR.  The fallback joins each
        nonce's HMAC keystream, of which a shorter stream is a prefix.  The
        zero-padded bodies are then XORed with the stream as one integer.
        """
        sizes = [-(-len(body) // _BLOCK) * _BLOCK for body in bodies]
        if _HAVE_AES:
            counters = b"".join(
                nonce if i == 0 else
                ((int.from_bytes(nonce, "big") + i) & _COUNTER_MASK).to_bytes(_BLOCK, "big")
                for nonce, size in zip(nonces, sizes)
                for i in range(size // _BLOCK)
            )
            encryptor = Cipher(algorithms.AES(self._key), modes.ECB()).encryptor()
            stream = encryptor.update(counters)  # whole blocks: nothing stays buffered
        else:
            stream = b"".join(
                _hmac_keystream(self._key, nonce, size) for nonce, size in zip(nonces, sizes)
            )
        padded = b"".join(body.ljust(size, b"\0") for body, size in zip(bodies, sizes))
        xored = (int.from_bytes(padded, "big") ^ int.from_bytes(stream, "big")).to_bytes(
            len(padded), "big"
        )
        offsets = accumulate(sizes, initial=0)
        return [xored[offset:offset + len(body)] for offset, body in zip(offsets, bodies)]
