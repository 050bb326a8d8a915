"""Result verification (Algorithm 5) — the one check the contract runs.

Verification is *public*: it reads only the search tokens, the encrypted
results, the VOs and the on-chain ``Ac``.  Per token, :func:`check_token`
recomputes the multiset hash of the returned ciphertexts and the prime
representative of ``t_j || j || G1 || G2 || h``, and checks the membership
witness against ``Ac``, charging a gas meter per primitive: the contract's
own meter on chain, an unlimited one in :func:`verify_response` and the
auditor.  A wrong or incomplete result changes ``h``, hence the prime, and
by strong-RSA no valid witness exists for it (Theorem 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..blockchain.contract import GasMeter
from ..blockchain.gas import GasSchedule
from ..crypto.accumulator import MembershipWitness, verify_membership
from ..crypto.multiset_hash import MultisetHash
from .cloud import SearchResponse, TokenResult
from .params import SlicerParams
from .state import prime_input, set_hash_key
from .tokens import SearchToken

#: Miller-Rabin rounds charged per prime representative, each priced as one MODEXP.
PRIMALITY_ROUNDS = 12


@dataclass(frozen=True)
class VerificationReport:
    """Per-token outcomes plus the overall verdict the escrow settles on."""

    token_results: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.token_results)

    @property
    def failed_tokens(self) -> list[int]:
        return [i for i, ok in enumerate(self.token_results) if not ok]


def check_token(
    params: SlicerParams, ads_value: int, token: SearchToken, entries, witness: int, meter: GasMeter
) -> bool:
    """Algorithm 5 for one token, charging ``meter`` the contract's gas per primitive."""
    schedule = meter.schedule
    # h <- H(er): per element, a double digest and one field multiplication.
    for entry in entries:
        meter.charge(2 * schedule.keccak_gas(len(entry)), "keccak")
        meter.charge(schedule.mulmod, "mulmod")
    result_hash = MultisetHash.of(entries, params.multiset_field)
    # x <- H_prime(t_j || j || G1 || G2 || h): one digest per walked candidate (a
    # memo hit returns the cold walk's count), then Miller-Rabin on the accepted one.
    state_key = set_hash_key(token.trapdoor, token.epoch, token.g1, token.g2)
    material = prime_input(state_key, result_hash)
    prime, candidates = params.hash_to_prime().hash_to_prime_with_counter(material)
    meter.charge(candidates * schedule.keccak_gas(len(material)), "keccak")
    prime_len = (params.prime_bits + 7) // 8
    meter.charge(PRIMALITY_ROUNDS * schedule.modexp_gas(prime_len, prime, prime_len), "primality")
    # VerifyMem: witness^x mod n == Ac, one MODEXP (n is a code constant: no SLOAD).
    witness_len = max(1, (witness.bit_length() + 7) // 8)
    modulus_len = (params.accumulator.modulus.bit_length() + 7) // 8
    meter.charge(schedule.modexp_gas(witness_len, prime, modulus_len), "modexp")
    return verify_membership(params.accumulator, ads_value, prime, MembershipWitness(witness))


def unmetered() -> GasMeter:
    """A meter with no limit: off chain, gas is reported, never enforced."""
    return GasMeter(math.inf, GasSchedule())


def verify_token_result(params: SlicerParams, ads_value: int, result: TokenResult) -> bool:
    """Algorithm 5, single token: recompute ``h`` and ``x``, check the VO."""
    witness = result.witness.value
    return check_token(params, ads_value, result.token, result.entries, witness, unmetered())


def verify_response(
    params: SlicerParams, ads_value: int, response: SearchResponse
) -> VerificationReport:
    """Algorithm 5 over the full response; vr = AND of per-token checks.

    Every witness is checked individually: a random-linear-combination batch
    of ``VerifyMem`` is unsound (negating two witnesses, ``w → n−w``, passes it).
    """
    return VerificationReport(
        tuple(verify_token_result(params, ads_value, result) for result in response.results)
    )
