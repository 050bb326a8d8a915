"""Third-party auditing of settled searches (public verifiability, realised).

A keyless :class:`ThirdPartyAuditor` re-runs the contract's own per-token
check (:func:`~repro.core.verify.check_token`) on a settlement's calldata
against the on-chain ``Ac``, and keeps the gas it would have cost on chain:
dispute resolution, spot-checking the contract, and the Table I "public
verifiability" column as a runnable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..blockchain.slicer_contract import ChainTokenResult, response_to_chain_args
from .cloud import SearchResponse
from .params import SlicerParams
from .verify import VerificationReport, check_token, unmetered


@dataclass(frozen=True)
class AuditRecord:
    """The public facts about one settled search."""

    chain_results: tuple[ChainTokenResult, ...]
    ads_value: int

    @classmethod
    def from_chain_args(cls, args: list, ads_value: int) -> "AuditRecord":
        return cls(tuple(ChainTokenResult.from_args(r) for r in args), ads_value)

    @classmethod
    def from_response(cls, response: SearchResponse, ads_value: int) -> "AuditRecord":
        return cls.from_chain_args(response_to_chain_args(response), ads_value)


class ThirdPartyAuditor:
    """Keyless re-verification of a settled search."""

    def __init__(self, params: SlicerParams) -> None:
        # Deliberately strip any trapdoor: the auditor is a stranger.
        self.params = params.public()
        #: The last audit's meter: the gas its checks would cost on chain.
        self.meter = unmetered()

    def audit(self, record: AuditRecord) -> VerificationReport:
        """Re-run Algorithm 5 on the public record, every token."""
        self.meter = meter = unmetered()
        return VerificationReport(
            tuple(
                check_token(self.params, record.ads_value, r.token, r.entries, r.witness, meter)
                for r in record.chain_results
            )
        )

    def audit_agrees_with_settlement(self, record: AuditRecord, settled_ok: bool) -> bool:
        """Does the independent audit reach the contract's verdict?"""
        return self.audit(record).ok == settled_ok
