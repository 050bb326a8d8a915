"""Dual-instance deletion/update (Section V.F), searched and settled on chain."""

import pytest

from repro.common.errors import ParameterError, StateError
from repro.common.rng import default_rng
from repro.core.query import Query
from repro.core.records import encode_record_id, make_database
from repro.dual_system import DualSlicerSystem


@pytest.fixture()
def dual(tparams):
    d = DualSlicerSystem(tparams, default_rng(61))
    d.setup(make_database([("a", 10), ("b", 20), ("c", 30), ("d", 20)], bits=8))
    return d


class TestDeletion:
    def test_deleted_record_disappears(self, dual):
        q = Query.parse(25, ">")
        before = dual.search(q)
        assert before.record_ids == dual.expected_ids(q)
        assert encode_record_id("b") in before.record_ids

        dual.delete(encode_record_id("b"))
        after = dual.search(q)
        assert encode_record_id("b") not in after.record_ids
        assert after.record_ids == dual.expected_ids(q)
        assert after.verified

    def test_delete_requires_live_record(self, dual):
        with pytest.raises(StateError):
            dual.delete(encode_record_id("zz"))

    def test_double_delete_rejected(self, dual):
        dual.delete(encode_record_id("b"))
        with pytest.raises(StateError):
            dual.delete(encode_record_id("b"))

    def test_reinsert_deleted_id_rejected(self, dual):
        dual.delete(encode_record_id("b"))
        with pytest.raises(ParameterError):
            dual.insert(encode_record_id("b"), 42)

    def test_both_instances_verified(self, dual):
        dual.delete(encode_record_id("b"))
        result = dual.search(Query.parse(25, ">"))
        assert result.insert_outcome.verified and result.delete_outcome.verified


class TestInsertion:
    def test_insert_appears(self, dual):
        dual.insert(encode_record_id("e"), 22)
        q = Query.parse(25, ">")
        assert encode_record_id("e") in dual.search(q).record_ids

    def test_duplicate_live_id_rejected(self, dual):
        with pytest.raises(ParameterError):
            dual.insert(encode_record_id("a"), 99)


class TestUpdate:
    def test_update_changes_matching(self, dual):
        q_low = Query.parse(15, ">")  # values below 15
        assert encode_record_id("a") in dual.search(q_low).record_ids

        dual.update(encode_record_id("a"), 200)
        after_low = dual.search(q_low)
        assert encode_record_id("a") not in after_low.record_ids
        assert after_low.record_ids == dual.expected_ids(q_low)

        q_high = Query.parse(150, "<")  # values above 150
        high = dual.search(q_high)
        assert len(high.record_ids) == 1  # the updated record under its new version ID
        assert high.verified

    def test_search_before_build_rejected(self, tparams):
        d = DualSlicerSystem(tparams, default_rng(1))
        with pytest.raises(StateError):
            d.search(Query.parse(1, "="))


class TestOracleConsistency:
    @pytest.mark.parametrize("symbol,value", [(">", 25), ("<", 15), ("=", 20)])
    def test_search_matches_oracle_after_churn(self, dual, symbol, value):
        dual.insert(encode_record_id("e"), 18)
        dual.delete(encode_record_id("d"))
        dual.insert(encode_record_id("f"), 20)
        q = Query.parse(value, symbol)
        result = dual.search(q)
        assert result.record_ids == dual.expected_ids(q)
        assert result.verified
