"""The Slicer verification-and-escrow smart contract.

This is the Python analogue of the paper's Solidity contract, executed on
the simulated chain with full gas metering.  Storage layout follows what the
paper's Table II implies:

* the RSA public parameters ``n`` and ``g`` are written once at deployment;
* the ADS lives on chain as a **single 32-byte digest** of the current
  accumulation value — which is why "Data insertion ... only needs to change
  a storage value" costs a near-constant ~29k gas regardless of how many
  records were inserted;
* a query escrow record binds the user's search-token digest to a payment;
* ``verify_and_settle`` re-runs Algorithm 5 (multiset hash, prime
  representative, ``VerifyMem`` via the MODEXP precompile) and either pays
  the cloud or refunds the user — the fairness mechanism.

Both settle entry points run one per-escrow body (:meth:`SlicerContract._settle`),
and its verification is :func:`repro.core.verify.check_token` — the same
per-token check ``verify_response`` and the third-party auditor run, here
charging every hash, field multiplication, primality round and modular
exponentiation to the call's gas meter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common import perfstats
from ..common.encoding import encode_parts, encode_uint
from ..core.cloud import SearchResponse
from ..core.params import SlicerParams
from ..core.tokens import SearchToken
from ..core.verify import check_token
from ..obs import metrics
from .contract import Contract


@dataclass(frozen=True)
class ChainTokenResult:
    """Calldata form of one token's result: token fields + entries + witness."""

    trapdoor: bytes
    epoch: int
    g1: bytes
    g2: bytes
    entries: tuple[bytes, ...]
    witness: int

    @classmethod
    def from_args(cls, args: list) -> "ChainTokenResult":
        """Parse one token's calldata (as :func:`response_to_chain_args` lays it out)."""
        return cls(args[0], args[1], args[2], args[3], tuple(args[4]), args[5])

    @property
    def token(self) -> SearchToken:
        return SearchToken(self.trapdoor, self.epoch, self.g1, self.g2)


def response_to_chain_args(response: SearchResponse) -> list[list]:
    """Flatten a :class:`SearchResponse` into contract calldata."""
    return [
        [r.token.trapdoor, r.token.epoch, r.token.g1, r.token.g2, list(r.entries), r.witness.value]
        for r in response.results
    ]


def tokens_digest_input(tokens: list[SearchToken]) -> bytes:
    """The byte blob whose digest binds a query to its escrow record."""
    return encode_parts(*[t.encode() for t in tokens])


class SlicerContract(Contract):
    """Deployment / ADS update / query escrow / public verification."""

    # Estimated deployed bytecode size (the RSA modulus and generator are
    # compiled in as immutables, so they count here, not as storage);
    # calibrated so deployment gas lands near the paper's 745,346
    # (see benchmarks/bench_table2_gas.py).
    CODE_SIZE = 3048

    #: Compiled-in protocol parameters; supplied via the deploy ``config``
    #: channel (they are constants baked into the bytecode, whose bytes are
    #: already paid for by the code-deposit charge).
    params: SlicerParams

    # ---------------------------------------------------------- lifecycle

    def init(self, owner: bytes, cloud: bytes, ac_value: int) -> None:
        """Constructor: pin parties and the initial ADS digest.

        The RSA modulus and generator are immutables baked into the code
        (covered by the code-deposit charge), matching how a Solidity
        contract would hold fixed public parameters.
        """
        self.params = self.params.public()
        self._sstore("owner", owner)
        self._sstore("cloud", cloud)
        self._sstore("ads_digest", self._keccak(self._ac_bytes(ac_value)))
        self._sstore_int("query_count", 0, 8)

    def _ac_bytes(self, ac_value: int) -> bytes:
        width = (self.params.accumulator.modulus.bit_length() + 7) // 8
        return ac_value.to_bytes(width, "big")

    # --------------------------------------------------------- ADS update

    def update_ads(self, new_ac: int) -> None:
        """Owner refreshes the on-chain ADS after Build or Insert.

        One digest SSTORE regardless of batch size — the paper's constant
        29,144-gas insertion.
        """
        self._require(self.caller == self._sload("owner"), "only owner may update ADS")
        digest = self._keccak(self._ac_bytes(new_ac))
        self._sstore("ads_digest", digest)
        self._emit("AdsUpdated", digest=digest)

    # ------------------------------------------------------------- escrow

    def submit_query(self, tokens_blob: bytes) -> int:
        """User posts search tokens + payment (msg.value); returns query id."""
        self._require(self.call_value > 0, "search payment required")
        query_id = self._sload_int("query_count")
        self._sstore_int("query_count", query_id + 1, 8)
        prefix = f"query:{query_id}"
        self._sstore(f"{prefix}:user", self.caller)
        self._sstore(f"{prefix}:tokens", self._keccak(tokens_blob))
        self._sstore_int(f"{prefix}:payment", self.call_value, 16)
        self._sstore_int(f"{prefix}:state", 1, 1)  # 1 = open
        self._emit("QuerySubmitted", query_id=encode_uint(query_id))
        return query_id

    # ----------------------------------------------------- verification

    def verify_and_settle(self, query_id: int, ac_value: int, response: list) -> bool:
        """Cloud submits results + VOs; the contract verifies and settles.

        Runs Algorithm 5 per token.  On success the escrowed payment is
        released to the cloud; on any failure the user is refunded.  Either
        way the query closes, so neither party can re-litigate.
        """
        self._require(self.caller == self._sload("cloud"), "only cloud may settle")
        self._require_open(query_id)
        self._require_current(ac_value)
        ok = self._settle(query_id, ac_value, response)
        self._emit("QuerySettled", query_id=encode_uint(query_id), verified=b"\x01" if ok else b"\x00")
        return ok

    def batch_verify_and_settle(
        self, query_ids: list, ac_value: int, responses: list
    ) -> list:
        """Settle several open queries in one transaction (extension).

        Amortises the 21k intrinsic transaction cost and the warm-storage
        discounts over the batch — the per-query marginal cost is just the
        cryptographic verification.  Each query still settles independently
        (one bad response refunds only its own payment).
        """
        self._require(self.caller == self._sload("cloud"), "only cloud may settle")
        self._require(len(query_ids) == len(responses), "batch length mismatch")
        self._require_current(ac_value)
        outcomes = []
        for query_id, response in zip(query_ids, responses):
            self._require_open(query_id)
            outcomes.append(self._settle(query_id, ac_value, response))
        self._emit("BatchSettled", count=encode_uint(len(outcomes)))
        return outcomes

    def _require_open(self, query_id: int) -> None:
        self._require(self._sload_int(f"query:{query_id}:state") == 1, "query not open")

    def _require_current(self, ac_value: int) -> None:
        self._require(
            self._keccak(self._ac_bytes(ac_value)) == self._sload("ads_digest"),
            "stale accumulation value",
        )

    def _settle(self, query_id: int, ac_value: int, response: list) -> bool:
        """One open escrow: bind the response to its tokens, verify, pay out.

        The open-state and ``Ac`` checks stay with each entry point, whose
        ``_require`` order fixes the gas and reason of a reverted call.
        """
        prefix = f"query:{query_id}"
        results = [ChainTokenResult.from_args(r) for r in response]
        self._require(
            self._keccak(tokens_digest_input([r.token for r in results]))
            == self._sload(f"{prefix}:tokens"),
            "response does not match the queried tokens",
        )
        ok = all(
            check_token(self.params, ac_value, r.token, r.entries, r.witness, self.meter)
            for r in results
        )
        payment = self._sload_int(f"{prefix}:payment")
        user = self._sload(f"{prefix}:user")
        self._sstore_int(f"{prefix}:state", 2 if ok else 3, 1)  # 2 settled, 3 refunded
        self._transfer(self._sload("cloud") if ok else user, payment)
        perfstats.incr("contract.settle.paid" if ok else "contract.settle.refunded")
        metrics.observe("contract.settle.entries", sum(len(r.entries) for r in results))
        return ok
