"""Batched verification: n queries settle in one transaction, amortising gas."""

import pytest

from repro.chaos import USER_TO_CONTRACT, ChaosTransport, FaultPlan, FaultProfile
from repro.common.errors import TransportTimeout
from repro.common.rng import default_rng
from repro.core.cloud import MaliciousCloud, Misbehavior
from repro.core.query import Query
from repro.core.records import make_database
from repro.system import DEFAULT_FUNDING, SlicerSystem

QUERIES = [Query.parse(7, "="), Query.parse(100, ">"), Query.parse(100, "<")]


@pytest.fixture()
def system(tparams):
    s = SlicerSystem(tparams, rng=default_rng(151))
    s.setup(make_database([(f"r{i}", (i * 21) % 256) for i in range(18)], bits=8))
    return s


class TestBatchSearch:
    def test_all_verified_and_correct(self, system):
        outcomes = system.batch_search(QUERIES)
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert outcome.verified
        # Results match the individual-search path.
        singles = [system.search(q) for q in QUERIES]
        for batch, single in zip(outcomes, singles):
            assert batch.record_ids == single.record_ids

    def test_batch_amortises_gas(self, system):
        outcomes = system.batch_search(QUERIES, payment=100)
        batch_settle_gas = outcomes[0].settle_receipt.gas_used
        singles = [system.search(q, payment=100) for q in QUERIES]
        individual_total = sum(o.settle_gas for o in singles)
        assert batch_settle_gas < individual_total
        # Amortisation saves at least one intrinsic tx cost.
        assert individual_total - batch_settle_gas > 21_000

    def test_payments_settle_per_query(self, system):
        cloud0 = system.chain.balance(system.cloud_address)
        system.batch_search(QUERIES, payment=500)
        assert system.chain.balance(system.cloud_address) == cloud0 + 3 * 500

    def test_malicious_cloud_refunds_whole_batch(self, tparams):
        s = SlicerSystem(tparams, rng=default_rng(152))
        s.cloud = MaliciousCloud(
            tparams, s.owner.keys.trapdoor.public, Misbehavior.TAMPER_ENTRY, default_rng(1)
        )
        s.setup(make_database([(f"r{i}", (i * 21) % 256) for i in range(18)], bits=8))
        # All three queries have non-empty result sets, so tampering hits all
        # of them (an empty-result query is answered honestly and would pay).
        with_results = [Query.parse(100, ">"), Query.parse(100, "<"), Query.parse(200, ">")]
        outcomes = s.batch_search(with_results, payment=500)
        assert all(not o.verified for o in outcomes)
        assert s.balances()["user"] == DEFAULT_FUNDING
        assert s.balances()["cloud"] == DEFAULT_FUNDING

    def test_batch_cannot_resettle(self, system):
        from repro.blockchain.slicer_contract import response_to_chain_args

        outcomes = system.batch_search(QUERIES[:1])
        again = system.chain.call(
            system.cloud_address,
            system.contract,
            "batch_verify_and_settle",
            (
                [outcomes[0].query_id],
                system.cloud.ads_value,
                [response_to_chain_args(outcomes[0].response)],
            ),
        )
        assert not again.status

    def test_length_mismatch_reverts(self, system):
        receipt = system.chain.call(
            system.cloud_address,
            system.contract,
            "batch_verify_and_settle",
            ([0, 1], system.cloud.ads_value, [[]]),
        )
        assert not receipt.status
        assert "mismatch" in receipt.revert_reason


class TestRefusedSubmit:
    """A submit the chain refuses ends the submits: the escrows already
    submitted are served and settled, and the refused query and every later
    one degrade unsubmitted, so no escrow is left locked in the contract."""

    PAYMENT = 4 * 10**8  # the funding covers two escrows, not three

    def test_unfunded_batch_settles_what_it_submitted(self, tparams):
        from repro.obs import audit as obs_audit

        s = SlicerSystem(tparams, rng=default_rng(153))
        s.setup(make_database([("r1", 10), ("r2", 20), ("r3", 30)], bits=8))
        contract0 = s.chain.balance(s.contract.address)
        total0 = s.balances()["user"] + s.balances()["cloud"] + contract0
        queries = [Query.parse(10, "="), Query.parse(20, "="), Query.parse(30, "=")]
        outcomes = s.batch_search(queries, payment=self.PAYMENT)

        assert [o.verified for o in outcomes] == [True, True, False]
        assert all(o.settled for o in outcomes[:2])
        refused = outcomes[2]
        assert refused.submit_receipt is None and refused.settle_receipt is None
        assert refused.failure.error_type == "InsufficientFundsError"
        records = obs_audit.AUDIT_LOG.records()[-3:]
        assert [r.verdict for r in records] == ["paid", "paid", "degraded"]
        assert records[2].amount == 0

        assert s.chain.balance(s.contract.address) == contract0
        assert s.balances()["cloud"] == DEFAULT_FUNDING + 2 * self.PAYMENT
        total = s.balances()["user"] + s.balances()["cloud"]
        assert total + s.chain.balance(s.contract.address) == total0

        # The same rule for a single search: degraded, never submitted.
        single = s.search(Query.parse(10, "="), payment=self.PAYMENT)
        assert single.error is not None and single.submit_receipt is None
        assert single.failure.error_type == "InsufficientFundsError"
        assert obs_audit.AUDIT_LOG.records()[-1].verdict == "degraded"
        assert s.chain.balance(s.contract.address) == contract0
        assert s.balances()["user"] == DEFAULT_FUNDING - 2 * self.PAYMENT


class MuteSubmitReplies(ChaosTransport):
    """Fault-free, except that every reply on the submit leg is lost after
    the chain ran the call."""

    def __init__(self) -> None:
        super().__init__(FaultPlan(FaultProfile.clean(), seed=3))

    def deliver(self, channel, message, handler, **leg):
        reply = super().deliver(channel, message, handler, **leg)
        if channel == USER_TO_CONTRACT:
            raise TransportTimeout(f"{channel}: reply dropped")
        return reply


class TestLostSubmitReply:
    """A submit whose chain call ran but whose every reply was lost holds an
    escrow: it is adopted, then served and settled, never left locked."""

    PAYMENT = 1000

    def test_executed_submit_is_adopted_and_settled(self, tparams):
        from repro.obs import audit as obs_audit

        s = SlicerSystem(tparams, rng=default_rng(154), transport=MuteSubmitReplies())
        s.setup(make_database([("r1", 10), ("r2", 20), ("r3", 30)], bits=8))
        contract0 = s.chain.balance(s.contract.address)
        total0 = s.balances()["user"] + s.balances()["cloud"] + contract0

        single = s.search(Query.parse(10, "="), payment=self.PAYMENT)
        batch = s.batch_search(
            [Query.parse(20, "="), Query.parse(30, "=")], payment=self.PAYMENT
        )

        for outcome in [single, *batch]:
            assert outcome.error is None and outcome.verified and outcome.settled
            assert outcome.query_id >= 0 and outcome.submit_receipt.status
            assert len(outcome.record_ids) == 1
        assert len({o.query_id for o in [single, *batch]}) == 3
        records = obs_audit.AUDIT_LOG.records()[-3:]
        assert [r.verdict for r in records] == ["paid", "paid", "paid"]

        assert s.chain.balance(s.contract.address) == contract0
        assert s.balances()["user"] == DEFAULT_FUNDING - 3 * self.PAYMENT
        assert s.balances()["cloud"] == DEFAULT_FUNDING + 3 * self.PAYMENT
        total = s.balances()["user"] + s.balances()["cloud"]
        assert total + s.chain.balance(s.contract.address) == total0
