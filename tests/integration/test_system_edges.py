"""SlicerSystem edge paths not covered by the happy-flow suites."""

import pytest

from repro.common.errors import StateError
from repro.common.rng import default_rng
from repro.core.query import Query
from repro.core.records import Database, make_database
from repro.core.query import Range
from repro.planner import compile_plan
from repro.system import PlanOutcome, SlicerSystem


class TestLifecycleGuards:
    def test_insert_before_setup_rejected(self, tparams):
        system = SlicerSystem(tparams, rng=default_rng(231))
        add = Database(8)
        add.add("a", 1)
        with pytest.raises(StateError):
            system.insert(add)

    def test_double_setup_rejected(self, tparams):
        system = SlicerSystem(tparams, rng=default_rng(232))
        db = make_database([("a", 1)], bits=8)
        system.setup(db)
        with pytest.raises(StateError):
            system.setup(db)


class TestRangeOutcome:
    def test_empty_outcome(self):
        outcome = PlanOutcome(compile_plan(Range(5, 9), 8), [])
        assert outcome.verified
        assert outcome.record_ids == set()

    def test_point_range_on_chain(self, tparams):
        system = SlicerSystem(tparams, rng=default_rng(233))
        system.setup(make_database([("a", 7), ("b", 9)], bits=8))
        outcome = system.search_plan(Range(7, 7))
        assert outcome.verified
        assert len(outcome.record_ids) == 1

    def test_edge_touching_range(self, tparams):
        system = SlicerSystem(tparams, rng=default_rng(234))
        system.setup(make_database([("a", 0), ("b", 9), ("c", 255)], bits=8))
        low = system.search_plan(Range(0, 10))
        assert low.verified and len(low.record_ids) == 2
        high = system.search_plan(Range(100, 255))
        assert high.verified and len(high.record_ids) == 1


class TestEmptyResultSearch:
    def test_no_match_query_settles_and_pays(self, tparams):
        """An honestly-empty answer is still a paid, verified service."""
        system = SlicerSystem(tparams, rng=default_rng(235))
        system.setup(make_database([("a", 7)], bits=8))
        cloud0 = system.chain.balance(system.cloud_address)
        outcome = system.search(Query.parse(200, "="), payment=50)
        assert outcome.verified
        assert outcome.record_ids == set()
        assert system.chain.balance(system.cloud_address) == cloud0 + 50

    def test_search_on_empty_database(self, tparams):
        system = SlicerSystem(tparams, rng=default_rng(236))
        system.setup(Database(8))
        outcome = system.search(Query.parse(100, ">"))
        assert outcome.verified
        assert outcome.record_ids == set()


class TestDeploymentLifetime:
    def test_dropped_deployment_freed_without_cycle_collector(self, tparams):
        """The contract points back at its chain weakly, so dropping the last
        reference to a deployment frees it by refcount alone."""
        import gc
        import weakref

        system = SlicerSystem(tparams, rng=default_rng(236))
        system.setup(make_database([("a", 7), ("b", 9)], bits=8))
        assert system.search(Query.parse(7, "="), payment=50).verified  # pays via _transfer
        refs = {
            "chain": weakref.ref(system.chain),
            "contract": weakref.ref(system.contract),
            "cloud": weakref.ref(system.cloud),
            "system": weakref.ref(system),
        }
        gc.disable()
        try:
            del system
            alive = sorted(name for name, ref in refs.items() if ref() is not None)
        finally:
            gc.enable()
        assert alive == []
