"""Record cipher: round trips, nonce handling, error paths.

The batch and single forms share one keystream path, so they cannot be each
other's oracle: the AES tests check against a test-local AES-CTR cipher (one
``cryptography`` CTR context per message), and the fallback against a
test-local HMAC counter-mode keystream.
"""

import hashlib
import hmac

import pytest

from repro.common.errors import KeyError_, ParameterError
from repro.common.rng import default_rng
from repro.crypto.symmetric import KEY_LEN, NONCE_LEN, SymmetricCipher


@pytest.fixture()
def cipher():
    return SymmetricCipher(b"k" * KEY_LEN, default_rng(3))


@pytest.fixture()
def aes_ctr():
    """``encrypt(key, nonce, m) -> nonce || AES-CTR(m)``, independent of ``SymmetricCipher``."""
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    def encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        encryptor = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
        return nonce + encryptor.update(plaintext) + encryptor.finalize()

    return encrypt


def hmac_ctr(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """The fallback's bytes: XOR with HMAC-SHA256(key, nonce || 8-byte counter) blocks."""
    stream = b"".join(
        hmac.new(key, nonce + i.to_bytes(8, "big"), hashlib.sha256).digest()
        for i in range(-(-len(plaintext) // 32))
    )
    return nonce + bytes(a ^ b for a, b in zip(plaintext, stream))


class TestRoundTrip:
    def test_basic(self, cipher):
        for msg in [b"", b"a", b"record-id", b"\x00" * 64]:
            assert cipher.decrypt(cipher.encrypt(msg)) == msg

    def test_ciphertext_layout(self, cipher):
        ct = cipher.encrypt(b"abcdefgh")
        assert len(ct) == NONCE_LEN + 8

    def test_random_nonce_randomises(self, cipher):
        assert cipher.encrypt(b"same") != cipher.encrypt(b"same")

    def test_explicit_nonce_is_deterministic(self, cipher):
        nonce = b"\x01" * NONCE_LEN
        assert cipher.encrypt(b"same", nonce) == cipher.encrypt(b"same", nonce)

    def test_wrong_key_garbles(self):
        a = SymmetricCipher(b"a" * KEY_LEN, default_rng(1))
        b = SymmetricCipher(b"b" * KEY_LEN, default_rng(1))
        assert b.decrypt(a.encrypt(b"secret!")) != b"secret!"


LENGTHS = [0, 1, 8, 15, 16, 17, 32, 33, 100]


def wraparound_batch():
    rng = default_rng(41)
    plaintexts = [rng.token_bytes(size) for size in LENGTHS]
    nonces = [rng.token_bytes(NONCE_LEN) for _ in LENGTHS]
    # Counter wrap-around: CTR increments the whole block mod 2^128.
    nonces[7] = b"\xff" * NONCE_LEN
    nonces[8] = b"\xff" * (NONCE_LEN - 1) + b"\xfe"
    return plaintexts, nonces


class TestEncryptMany:
    def test_byte_identical_to_encrypt(self, cipher):
        plaintexts, nonces = wraparound_batch()
        expected = [cipher.encrypt(m, nonce=n) for m, n in zip(plaintexts, nonces)]
        assert cipher.encrypt_many(plaintexts, nonces) == expected
        assert [cipher.decrypt(blob) for blob in expected] == plaintexts

    def test_byte_identical_on_hmac_fallback(self, cipher, monkeypatch):
        from repro.crypto import symmetric

        monkeypatch.setattr(symmetric, "_HAVE_AES", False)
        plaintexts, nonces = wraparound_batch()
        expected = [cipher.encrypt(m, nonce=n) for m, n in zip(plaintexts, nonces)]
        assert cipher.encrypt_many(plaintexts, nonces) == expected

    def test_rejects_mismatched_or_bad_nonces(self, cipher):
        with pytest.raises(ParameterError):
            cipher.encrypt_many([b"a", b"b"], [b"\x00" * NONCE_LEN])
        with pytest.raises(ParameterError):
            cipher.encrypt_many([b"a"], [b"\x00"])


class TestKeystreamOracle:
    """Every entry point against an independent reference, wrap-around included."""

    def test_aes_entry_points_match_aes_ctr(self, cipher, aes_ctr):
        plaintexts, nonces = wraparound_batch()
        expected = [aes_ctr(cipher.key, n, m) for m, n in zip(plaintexts, nonces)]
        assert [cipher.encrypt(m, nonce=n) for m, n in zip(plaintexts, nonces)] == expected
        assert cipher.encrypt_many(plaintexts, nonces) == expected
        assert [cipher.decrypt(blob) for blob in expected] == plaintexts
        assert cipher.decrypt_many(expected) == plaintexts

    def test_random_nonce_matches_aes_ctr(self, cipher, aes_ctr):
        blob = cipher.encrypt(b"record-id")
        assert blob == aes_ctr(cipher.key, blob[:NONCE_LEN], b"record-id")

    def test_hmac_fallback_matches_reference(self, cipher, monkeypatch):
        from repro.crypto import symmetric

        monkeypatch.setattr(symmetric, "_HAVE_AES", False)
        plaintexts, nonces = wraparound_batch()
        expected = [hmac_ctr(cipher.key, n, m) for m, n in zip(plaintexts, nonces)]
        assert [cipher.encrypt(m, nonce=n) for m, n in zip(plaintexts, nonces)] == expected
        assert cipher.encrypt_many(plaintexts, nonces) == expected
        assert [cipher.decrypt(blob) for blob in expected] == plaintexts
        assert cipher.decrypt_many(expected) == plaintexts

    def test_empty_batches(self, cipher):
        assert cipher.decrypt_many([]) == []
        assert cipher.encrypt_many([], []) == []

    def test_decrypt_many_rejects_any_short_blob(self, cipher):
        good = cipher.encrypt(b"record-id")
        for short in (b"", b"\x00" * (NONCE_LEN - 1)):
            with pytest.raises(ParameterError):
                cipher.decrypt_many([good, short, good])

class TestErrors:
    def test_bad_key_length(self):
        with pytest.raises(KeyError_):
            SymmetricCipher(b"short")

    def test_bad_nonce_length(self, cipher):
        with pytest.raises(ParameterError):
            cipher.encrypt(b"x", nonce=b"\x00")

    def test_truncated_ciphertext(self, cipher):
        with pytest.raises(ParameterError):
            cipher.decrypt(b"\x00" * (NONCE_LEN - 1))


def test_generate_draws_fresh_keys():
    rng = default_rng(9)
    assert SymmetricCipher.generate(rng).key != SymmetricCipher.generate(rng).key
