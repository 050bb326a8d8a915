"""Analytical cost model for Slicer deployments.

Closed-form predictions of the quantities the evaluation measures, as
functions of (record count, bit width, distribution).  Besides being useful
for capacity planning ("how big will the index/ADS be at 10M records?"),
the model *is* the paper's asymptotic story, so the test suite checks it
against actual builds — if the implementation ever gained a hidden
super-linear term, these tests would catch it.

All expectations assume uniformly-drawn values; the structural identities
(entries per record, bytes per entry) hold for any distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.params import SlicerParams
from ..crypto.symmetric import NONCE_LEN


def expected_index_entries(n_records: int, value_bits: int, attributes: int = 1) -> int:
    """Exact: each record contributes ``(1 + b)`` entries per attribute."""
    return n_records * (1 + value_bits) * attributes


def expected_index_bytes(n_records: int, params: SlicerParams, attributes: int = 1) -> int:
    """Exact: entries x (label + nonce + record id)."""
    entry_bytes = params.label_len + NONCE_LEN + params.record_id_len
    return expected_index_entries(n_records, params.value_bits, attributes) * entry_bytes


def _expected_distinct(domain: int, draws: int) -> float:
    """E[#occupied cells] for ``draws`` uniform balls into ``domain`` bins."""
    if domain <= 0:
        return 0.0
    return domain * (1.0 - (1.0 - 1.0 / domain) ** draws)


def expected_distinct_keywords(n_records: int, value_bits: int) -> float:
    """E[q]: distinct equality keywords + distinct SORE slices (uniform values).

    The slice at bit level ``i`` is determined by the first ``i`` bits of the
    value, so level-``i`` slices occupy a ``2^i``-bin space; equality
    keywords occupy the full ``2^b`` space.  This sum is what saturates for
    small ``b`` — the analytic form of the paper's 8-bit ADS plateau.
    """
    total = _expected_distinct(1 << value_bits, n_records)
    for level in range(1, value_bits + 1):
        total += _expected_distinct(1 << level, n_records)
    return total


def expected_ads_bytes(n_records: int, params: SlicerParams) -> float:
    """E[prime-list size]: one ``prime_bits``-bit prime per distinct keyword."""
    prime_bytes = (params.prime_bits + 7) // 8
    return expected_distinct_keywords(n_records, params.value_bits) * prime_bytes


def expected_order_tokens(n_records: int, value_bits: int) -> float:
    """E[tokens per order query] for a uniform random query value.

    The level-``i`` query slice can only be a live keyword when the query's
    bit at ``i`` points in the condition's direction (``x_i = 1`` for
    ``>``, ``x_i = 0`` for ``<``) — probability 1/2 per level for a random
    value — and then requires the specific ``i``-bit cell
    ``x_{|i-1} || !x_i`` to be occupied by some stored value, probability
    ``1 - (1 - 2^-i)^n``.
    """
    return 0.5 * sum(
        1.0 - (1.0 - 2.0**-level) ** n_records for level in range(1, value_bits + 1)
    )


def expected_equality_matches(n_records: int, value_bits: int) -> float:
    """E[results of an equality query on a stored value] (uniform values).

    Size-biased: sampling the queried value from stored records makes the
    expected bucket size ``1 + (n-1)/2^b``.
    """
    return 1.0 + (n_records - 1) / float(1 << value_bits)


@dataclass(frozen=True)
class GasEstimate:
    """Predicted gas for the three contract operations of Table II."""

    deployment: int
    insertion: int
    verification: int


def estimate_gas(
    params: SlicerParams,
    result_entries: int = 1,
    tokens: int = 1,
    hash_candidates: int = 89,
) -> GasEstimate:
    """Predict Table II from the gas schedule and the contract's op sequence.

    ``hash_candidates`` is the expected counter walk of ``H_prime``
    (~ ``ln(2^bits)/2`` for ``prime_bits``-bit outputs: ≈ 89 at 256 bits).
    """
    from ..blockchain.gas import GasSchedule
    from ..blockchain.slicer_contract import SlicerContract
    from ..core.verify import PRIMALITY_ROUNDS

    schedule = GasSchedule()
    acc = params.accumulator
    mod_len = (acc.modulus.bit_length() + 7) // 8
    prime_len = (params.prime_bits + 7) // 8

    deployment = (
        schedule.tx_base
        + schedule.tx_create
        + SlicerContract.CODE_SIZE * schedule.code_deposit_per_byte
        + 4 * schedule.sstore_set  # owner, cloud, digest, query counter
        + schedule.calldata_gas(b"\x01" * (40 + mod_len))
        + schedule.keccak_gas(mod_len)
    )

    insertion = (
        schedule.tx_base
        + schedule.calldata_gas(b"\x01" * mod_len)
        + schedule.keccak_gas(mod_len)
        + schedule.sload_cold  # owner check
        + schedule.sstore_reset  # digest
        + schedule.log_gas(1, 32)
    )

    sample_prime = (1 << (params.prime_bits - 1)) | 1
    entry_len = NONCE_LEN + params.record_id_len
    per_token = (
        result_entries * (2 * schedule.keccak_gas(entry_len) + schedule.mulmod)
        + hash_candidates * schedule.keccak_gas(200)
        + PRIMALITY_ROUNDS * schedule.modexp_gas(prime_len, sample_prime, prime_len)
        + schedule.modexp_gas(mod_len, sample_prime, mod_len)
    )
    verification = (
        schedule.tx_base
        + schedule.calldata_gas(
            b"\x01" * (mod_len + tokens * (160 + result_entries * entry_len + mod_len))
        )
        + 6 * schedule.sload_cold
        + 2 * schedule.sstore_reset
        + schedule.keccak_gas(mod_len)
        + tokens * per_token
        + schedule.call_value_transfer
        + schedule.log_gas(1, 40)
    )
    return GasEstimate(int(deployment), int(insertion), int(verification))
