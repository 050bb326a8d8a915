"""Cryptographic primitives built from scratch for the Slicer reproduction.

Everything here is implemented on the standard library (``hashlib``/``hmac``
plus big-integer arithmetic); AES is used for the record cipher when the
``cryptography`` package is available, with a pure-stdlib fallback.
"""

from .accumulator import (
    Accumulator,
    AccumulatorParams,
    MembershipWitness,
    verify_membership,
)
from .hash_to_prime import DEFAULT_PRIME_BITS, HashToPrime
from .merkle import MerkleProof, MerkleTree, verify_merkle
from .multiset_hash import DEFAULT_FIELD_PRIME, MultisetHash
from .prf import PRF, derive_key, prf
from .primes import is_prime, next_prime, random_prime, random_safe_prime
from .symmetric import SymmetricCipher
from .trapdoor import TrapdoorKeyPair, TrapdoorPublicKey

__all__ = [
    "Accumulator",
    "AccumulatorParams",
    "DEFAULT_FIELD_PRIME",
    "DEFAULT_PRIME_BITS",
    "HashToPrime",
    "MembershipWitness",
    "MerkleProof",
    "MerkleTree",
    "MultisetHash",
    "PRF",
    "SymmetricCipher",
    "TrapdoorKeyPair",
    "TrapdoorPublicKey",
    "derive_key",
    "is_prime",
    "next_prime",
    "prf",
    "random_prime",
    "random_safe_prime",
    "verify_membership",
    "verify_merkle",
]
