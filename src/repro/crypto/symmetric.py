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
"""

from __future__ import annotations

import hashlib
import hmac

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
        if len(nonce) != NONCE_LEN:
            raise ParameterError(f"nonce must be {NONCE_LEN} bytes")
        if _HAVE_AES:
            encryptor = Cipher(algorithms.AES(self._key), modes.CTR(nonce)).encryptor()
            body = encryptor.update(plaintext) + encryptor.finalize()
        else:
            stream = _hmac_keystream(self._key, nonce, len(plaintext))
            body = bytes(a ^ b for a, b in zip(plaintext, stream))
        return nonce + body

    def encrypt_many(self, plaintexts: list[bytes], nonces: list[bytes]) -> list[bytes]:
        """``Enc`` over a batch with explicit nonces; byte-identical to
        ``[encrypt(m, nonce) for m, nonce in zip(plaintexts, nonces)]``.

        With AES the whole batch's CTR keystream is one ECB call over the
        concatenated counter blocks (nonce, nonce+1, … per body, mod
        2^128 as CTR increments), instead of one cipher context per record.
        """
        if len(plaintexts) != len(nonces):
            raise ParameterError("encrypt_many needs one nonce per plaintext")
        if not _HAVE_AES:
            return [self.encrypt(m, nonce=n) for m, n in zip(plaintexts, nonces)]
        if any(len(nonce) != NONCE_LEN for nonce in nonces):
            raise ParameterError(f"nonce must be {NONCE_LEN} bytes")
        counters = b"".join(
            ((int.from_bytes(nonce, "big") + i) & _COUNTER_MASK).to_bytes(_BLOCK, "big")
            for m, nonce in zip(plaintexts, nonces)
            for i in range(-(-len(m) // _BLOCK))
        )
        encryptor = Cipher(algorithms.AES(self._key), modes.ECB()).encryptor()
        stream = encryptor.update(counters)
        encryptor.finalize()  # ECB over whole blocks leaves nothing buffered
        out = []
        offset = 0
        for m, nonce in zip(plaintexts, nonces):
            size = len(m)
            pad = int.from_bytes(stream[offset:offset + size], "big")
            out.append(nonce + (int.from_bytes(m, "big") ^ pad).to_bytes(size, "big"))
            offset += -(-size // _BLOCK) * _BLOCK
        return out

    def decrypt(self, blob: bytes) -> bytes:
        """``Dec``: inverse of :meth:`encrypt`."""
        if len(blob) < NONCE_LEN:
            raise ParameterError("ciphertext shorter than nonce")
        nonce, body = blob[:NONCE_LEN], blob[NONCE_LEN:]
        if _HAVE_AES:
            decryptor = Cipher(algorithms.AES(self._key), modes.CTR(nonce)).decryptor()
            return decryptor.update(body) + decryptor.finalize()
        stream = _hmac_keystream(self._key, nonce, len(body))
        return bytes(a ^ b for a, b in zip(body, stream))
