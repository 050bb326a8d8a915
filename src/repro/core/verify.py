"""Result verification (Algorithm 5) — the computation the contract runs.

Verification is deliberately *public*: it touches only the search tokens,
the encrypted results, the verification objects and the on-chain ``Ac``.
No secret key, no plaintext.  Per token it

1. recomputes the multiset hash of the returned ciphertexts,
2. recomputes the prime representative from ``t_j || j || G1 || G2 || h``, and
3. checks the RSA-accumulator membership witness against ``Ac``.

Any incorrect *or incomplete* result changes the multiset hash, hence the
prime, and by strong-RSA no valid witness exists for the forged prime
(Theorem 3).  The same function backs both the smart contract and the
"local verification" mode older schemes use, so the two can be benchmarked
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.encoding import encode_parts
from ..crypto.accumulator import verify_membership
from ..crypto.multiset_hash import MultisetHash
from .cloud import SearchResponse, TokenResult
from .params import SlicerParams
from .state import set_hash_key


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


def _result_prime(params: SlicerParams, result: TokenResult) -> int:
    """Recompute the prime representative Algorithm 5 binds the VO to."""
    result_hash = MultisetHash.of(result.entries, params.multiset_field)
    state_key = set_hash_key(
        result.token.trapdoor, result.token.epoch, result.token.g1, result.token.g2
    )
    return params.hash_to_prime()(encode_parts(state_key, result_hash.to_bytes()))


def verify_token_result(
    params: SlicerParams, ads_value: int, result: TokenResult
) -> bool:
    """Algorithm 5, single token: recompute ``h`` and ``x``, check the VO."""
    prime = _result_prime(params, result)
    return verify_membership(params.accumulator, ads_value, prime, result.witness)


def verify_response(
    params: SlicerParams, ads_value: int, response: SearchResponse
) -> VerificationReport:
    """Algorithm 5 over the full response; vr = AND of per-token checks.

    Every witness is checked individually.  This path faces the
    dishonest-cloud threat model, where a random-linear-combination batch
    of ``VerifyMem`` is unsound: in ``Z_n*`` a malicious cloud can negate an
    even number of witnesses (``w → n−w``) and pass the aggregate while
    every per-token check rejects (order-2 subgroup ``{±1}``).
    """
    return VerificationReport(
        tuple(verify_token_result(params, ads_value, result) for result in response.results)
    )
