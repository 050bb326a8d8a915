"""Protocol parameter bundles.

One :class:`SlicerParams` object fixes every size in the system — value bit
width, record-ID length, PRF label length, accumulator modulus, trapdoor
modulus, prime-representative size — so all parties derive consistent wire
formats from a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import ParameterError
from ..common.rng import DeterministicRNG, default_rng
from ..crypto import kernels
from ..crypto.accumulator import AccumulatorParams
from ..crypto.hash_to_prime import DEFAULT_PRIME_BITS, HashToPrime
from ..crypto.multiset_hash import DEFAULT_FIELD_PRIME
from ..crypto.trapdoor import TrapdoorKeyPair
from .records import RECORD_ID_LEN


@dataclass(frozen=True)
class SlicerParams:
    """Public protocol parameters shared by owner, user, cloud and chain."""

    value_bits: int = 16
    record_id_len: int = RECORD_ID_LEN
    label_len: int = 16
    prime_bits: int = DEFAULT_PRIME_BITS
    multiset_field: int = DEFAULT_FIELD_PRIME
    accumulator: AccumulatorParams = field(
        default_factory=lambda: AccumulatorParams.demo(1024)
    )

    def __post_init__(self) -> None:
        if self.value_bits <= 0:
            raise ParameterError("value_bits must be positive")
        if self.record_id_len <= 0:
            raise ParameterError("record_id_len must be positive")
        if not 8 <= self.label_len <= 32:
            raise ParameterError("label_len must be within [8, 32] bytes")

    def hash_to_prime(self) -> HashToPrime:
        """The shared ``H_prime`` instance (domain-separated per parameters).

        With the kernel layer enabled (default) this is the memoized variant
        backed by one process-wide memo per prime size, so owner, cloud,
        verifier and the gas-metering contract share hits; outputs —
        including the candidate counter the contract charges gas for — are
        identical to the cold walk.  ``REPRO_KERNELS=0`` restores the
        uncached instance.
        """
        if kernels.kernels_enabled():
            return kernels.memoized_hash_to_prime(self.prime_bits)
        return HashToPrime(self.prime_bits)

    def public(self) -> "SlicerParams":
        """Parameters with the accumulator trapdoor stripped (cloud/chain view)."""
        return SlicerParams(
            value_bits=self.value_bits,
            record_id_len=self.record_id_len,
            label_len=self.label_len,
            prime_bits=self.prime_bits,
            multiset_field=self.multiset_field,
            accumulator=self.accumulator.public(),
        )

    @classmethod
    def testing(
        cls,
        value_bits: int = 8,
        seed: int = 7,
        record_id_len: int = RECORD_ID_LEN,
    ) -> "SlicerParams":
        """Small, fast, deterministic parameters for unit tests."""
        return cls(
            value_bits=value_bits,
            record_id_len=record_id_len,
            prime_bits=64,
            accumulator=AccumulatorParams.demo(512, default_rng(seed)),
        )

    @classmethod
    def paper(cls, value_bits: int = 16) -> "SlicerParams":
        """Paper-faithful sizes: 2048-bit accumulator, 256-bit primes."""
        return cls(value_bits=value_bits, accumulator=AccumulatorParams.demo(2048))


@dataclass(frozen=True)
class KeyBundle:
    """The data owner's secret material.

    ``prf_key`` is the paper's master PRF key ``K`` (feeds ``G``), ``sore_key``
    the SORE key ``k``, ``record_key`` the symmetric key ``K_R``, and
    ``trapdoor`` the RSA trapdoor-permutation key pair ``(pk, sk)``.
    """

    prf_key: bytes
    sore_key: bytes
    record_key: bytes
    trapdoor: TrapdoorKeyPair

    @classmethod
    def generate(
        cls,
        rng: DeterministicRNG | None = None,
        trapdoor_bits: int = 1024,
    ) -> "KeyBundle":
        rng = rng or default_rng()
        return cls(
            prf_key=rng.token_bytes(16),
            sore_key=rng.token_bytes(16),
            record_key=rng.token_bytes(16),
            trapdoor=TrapdoorKeyPair.generate(trapdoor_bits, rng),
        )

    def user_view(self) -> "UserKeys":
        """What the owner hands an authorised data user (no trapdoor ``sk``)."""
        return UserKeys(
            prf_key=self.prf_key,
            sore_key=self.sore_key,
            record_key=self.record_key,
            trapdoor_public=self.trapdoor.public,
        )


@dataclass(frozen=True)
class UserKeys:
    """Secret keys shared with authorised data users (Algorithm 1 line 23)."""

    prf_key: bytes
    sore_key: bytes
    record_key: bytes
    trapdoor_public: object
