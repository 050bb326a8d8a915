"""The Slicer contract: escrow lifecycle, access control, gas characteristics."""

import pytest

from repro.blockchain.slicer_contract import response_to_chain_args, tokens_digest_input
from repro.common.rng import default_rng
from repro.core.cloud import MaliciousCloud, Misbehavior
from repro.core.query import Query
from repro.core.records import Database, make_database
from repro.system import SlicerSystem


@pytest.fixture()
def system(tparams):
    s = SlicerSystem(tparams, rng=default_rng(81))
    s.setup(make_database([(f"r{i}", (i * 7) % 256) for i in range(15)], bits=8))
    return s


class TestEscrowLifecycle:
    def test_honest_flow_pays_cloud(self, system):
        user0 = system.chain.balance(system.user_address)
        cloud0 = system.chain.balance(system.cloud_address)
        outcome = system.search(Query.parse(50, ">"), payment=1000)
        assert outcome.verified
        assert system.chain.balance(system.user_address) == user0 - 1000
        assert system.chain.balance(system.cloud_address) == cloud0 + 1000
        assert system.chain.balance(system.contract.address) == 0

    def test_dishonest_flow_refunds_user(self, tparams):
        s = SlicerSystem(tparams, rng=default_rng(82))
        s.cloud = MaliciousCloud(
            tparams, s.owner.keys.trapdoor.public, Misbehavior.DROP_ENTRY, default_rng(1)
        )
        s.setup(make_database([(f"r{i}", i * 5 % 256) for i in range(15)], bits=8))
        user0 = s.chain.balance(s.user_address)
        cloud0 = s.chain.balance(s.cloud_address)
        outcome = s.search(Query.parse(50, ">"), payment=1000)
        assert not outcome.verified
        assert s.chain.balance(s.user_address) == user0  # refunded
        assert s.chain.balance(s.cloud_address) == cloud0

    def test_query_cannot_settle_twice(self, system):
        outcome = system.search(Query.parse(50, ">"))
        again = system.chain.call(
            system.cloud_address,
            system.contract,
            "verify_and_settle",
            (
                outcome.query_id,
                system.cloud.ads_value,
                response_to_chain_args(outcome.response),
            ),
        )
        assert not again.status
        assert "not open" in again.revert_reason

    def test_payment_required(self, system):
        receipt = system.chain.call(
            system.user_address, system.contract, "submit_query", (b"tokens",), value=0
        )
        assert not receipt.status


class TestAccessControl:
    def test_only_owner_updates_ads(self, system):
        receipt = system.chain.call(
            system.user_address, system.contract, "update_ads", (12345,)
        )
        assert not receipt.status
        assert "only owner" in receipt.revert_reason

    def test_only_cloud_settles(self, system):
        tokens = system.user.make_tokens(Query.parse(50, ">"))
        submit = system.chain.call(
            system.user_address,
            system.contract,
            "submit_query",
            (tokens_digest_input(tokens),),
            value=100,
        )
        response = system.cloud.search(tokens)
        receipt = system.chain.call(
            system.user_address,  # not the cloud!
            system.contract,
            "verify_and_settle",
            (submit.return_value, system.cloud.ads_value, response_to_chain_args(response)),
        )
        assert not receipt.status


class TestBindingAndFreshness:
    def test_response_must_match_submitted_tokens(self, system):
        q1 = system.user.make_tokens(Query.parse(50, ">"))
        q2 = system.user.make_tokens(Query.parse(7, "="))
        submit = system.chain.call(
            system.user_address,
            system.contract,
            "submit_query",
            (tokens_digest_input(q1),),
            value=100,
        )
        response = system.cloud.search(q2)  # answers the WRONG query
        receipt = system.chain.call(
            system.cloud_address,
            system.contract,
            "verify_and_settle",
            (submit.return_value, system.cloud.ads_value, response_to_chain_args(response)),
        )
        assert not receipt.status
        assert "does not match" in receipt.revert_reason

    def test_stale_ac_rejected(self, system):
        """After an insert refreshes the on-chain digest, settling against the
        old Ac value reverts — the data-freshness guarantee."""
        tokens = system.user.make_tokens(Query.parse(50, ">"))
        submit = system.chain.call(
            system.user_address,
            system.contract,
            "submit_query",
            (tokens_digest_input(tokens),),
            value=100,
        )
        old_ads = system.cloud.ads_value
        response = system.cloud.search(tokens)

        add = Database(8)
        add.add("new", 3)
        system.insert(add)  # owner pushes a new digest on chain

        receipt = system.chain.call(
            system.cloud_address,
            system.contract,
            "verify_and_settle",
            (submit.return_value, old_ads, response_to_chain_args(response)),
        )
        assert not receipt.status
        assert "stale" in receipt.revert_reason


class TestGasShape:
    def test_insert_gas_independent_of_batch_size(self, system):
        """Table II: ADS update cost does not grow with inserted records."""
        small = Database(8)
        small.add("s1", 1)
        r_small = system.insert(small)

        big = Database(8)
        for i in range(20):
            big.add(f"b{i}", (i * 3) % 256)
        r_big = system.insert(big)
        assert abs(r_small.gas_used - r_big.gas_used) < 200

    def test_cost_ordering_matches_table2(self, system):
        """deploy > verify > insert, as in the paper's Table II."""
        add = Database(8)
        add.add("x", 9)
        insert_gas = system.insert(add).gas_used
        outcome = system.search(Query.parse(7, "="))
        assert system.deploy_receipt.gas_used > outcome.settle_gas > insert_gas

    def test_gas_identical_with_memo_cold_or_warm(self, tparams):
        """The kernel H_prime memo must never change the bill: a settlement
        whose prime walks are served from a warm memo charges exactly the
        gas of a cold one (the memo stores the candidate count the contract
        meters keccak gas by)."""
        from repro.crypto import kernels

        def run_flow():
            s = SlicerSystem(tparams, rng=default_rng(84))
            s.setup(make_database([(f"r{i}", (i * 7) % 256) for i in range(10)], bits=8))
            return s.search(Query.parse(40, ">"), payment=500)

        kernels.clear_caches()
        cold = run_flow()  # every H_prime walk is a memo miss
        warm = run_flow()  # identical rng => identical bytes => memo hits
        assert cold.verified and warm.verified
        assert warm.settle_gas == cold.settle_gas
        assert warm.settle_receipt.gas_breakdown == cold.settle_receipt.gas_breakdown

    def test_out_of_gas_inside_second_token_pins_partial_bill(self, system):
        """A settle that runs out of gas mid-Algorithm 5 reverts with the
        partial bill of every primitive charged so far, in the contract's
        order: per entry two hashes then a field multiplication, then the
        ``H_prime`` walk, the primality rounds and the ``VerifyMem`` modexp.
        The limit cuts the second token's entry loop at its fourth
        ``mulmod``; the values were recorded before the check was shared
        with the off-chain verifier, and must not move."""
        tokens = system.user.make_tokens(Query.parse(50, ">"))
        submit = system.chain.call(
            system.user_address,
            system.contract,
            "submit_query",
            (tokens_digest_input(tokens),),
            value=1000,
        )
        response = system.cloud.search(tokens)
        assert [len(r.entries) for r in response.results] == [1, 5, 2]
        receipt = system.chain.call(
            system.cloud_address,
            system.contract,
            "verify_and_settle",
            (submit.return_value, system.cloud.ads_value, response_to_chain_args(response)),
            gas_limit=49_976,
        )
        assert not receipt.status
        assert receipt.gas_used == 49_976
        assert receipt.revert_reason == "gas limit 49976 exceeded at 49980 (mulmod)"
        assert receipt.gas_breakdown == {
            "intrinsic": 37_184,
            "sload": 8_400,
            "keccak": 612,
            "mulmod": 40,
            "primality": 2_400,
            "modexp": 1_344,
        }
        # The escrow stays open and funded: nothing was paid out.
        assert system.chain.balance(system.contract.address) == 1000

    def test_modexp_dominates_verification_at_paper_scale(self):
        """With the paper's 2048-bit modulus the MODEXP precompile is the
        dominant verification cost (the O(λ) term the paper highlights)."""
        from repro.core.params import SlicerParams

        params = SlicerParams.paper(value_bits=8)
        s = SlicerSystem(params, rng=default_rng(83))
        s.setup(make_database([("a", 7), ("b", 9)], bits=8))
        outcome = s.search(Query.parse(7, "="))
        assert outcome.verified
        breakdown = outcome.settle_receipt.gas_breakdown
        assert breakdown["modexp"] > breakdown.get("sstore", 0)
        assert breakdown["modexp"] > breakdown.get("keccak", 0)
