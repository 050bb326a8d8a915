"""Full-system integration: the Fig. 1 workflow against the plaintext oracle."""

import pytest

from repro.common.rng import default_rng
from repro.core.query import Query, Range
from repro.core.records import Database, make_database
from repro.system import SlicerSystem
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec


@pytest.fixture(scope="module")
def system(tparams):
    s = SlicerSystem(tparams, rng=default_rng(111))
    gen = WorkloadGenerator(default_rng(7))
    db = gen.database(WorkloadSpec(60, 8))
    s.setup(db)
    s._oracle = db  # stashed for assertions
    return s


class TestSearchMatchesOracle:
    @pytest.mark.parametrize(
        "value,symbol",
        [(100, ">"), (100, "<"), (0, "<"), (255, ">"), (17, "="), (0, "=")],
    )
    def test_queries(self, system, value, symbol):
        query = Query.parse(value, symbol)
        outcome = system.search(query)
        assert outcome.verified
        assert outcome.record_ids == system._oracle.ids_matching(query.predicate())

    def test_range_search(self, system):
        outcome = system.search_plan(Range(60, 180))
        assert outcome.verified
        assert outcome.record_ids == system._oracle.ids_matching(lambda v: 60 <= v <= 180)


class TestLifecycle:
    def test_insert_then_search(self, tparams):
        s = SlicerSystem(tparams, rng=default_rng(112))
        db = make_database([("a", 10), ("b", 200)], bits=8)
        s.setup(db)
        add = Database(8)
        add.add("c", 15)
        add.add("d", 10)
        s.insert(add)
        outcome = s.search(Query.parse(20, ">"))
        assert outcome.verified
        from repro.core.records import encode_record_id

        assert outcome.record_ids == {
            encode_record_id(x) for x in ["a", "c", "d"]
        }

    def test_chain_height_grows(self, system):
        before = system.chain.height
        system.search(Query.parse(42, "="))
        assert system.chain.height == before + 1
        assert system.chain.verify_integrity()

    def test_setup_required(self, tparams):
        from repro.common.errors import StateError

        s = SlicerSystem(tparams, rng=default_rng(113))
        with pytest.raises(StateError):
            s.search(Query.parse(1, "="))

    def test_balances_conserved(self, system):
        """Every search settles fully: no value stuck in the contract."""
        system.search(Query.parse(77, ">"))
        balances = system.balances()
        total = sum(balances.values()) + system.chain.balance(system.contract.address)
        assert system.chain.balance(system.contract.address) == 0
        assert total == 3 * 10**9
