"""Query semantics: v mc a, predicates, range decomposition."""

import pytest

from repro.common.errors import ParameterError
from repro.core.query import MatchCondition, Query, Range


class TestMatchCondition:
    def test_from_symbol(self):
        assert MatchCondition.from_symbol("=") is MatchCondition.EQUAL
        assert MatchCondition.from_symbol(">") is MatchCondition.GREATER
        assert MatchCondition.from_symbol("<") is MatchCondition.LESS

    def test_unknown_symbol(self):
        with pytest.raises(ParameterError):
            MatchCondition.from_symbol(">=")

    def test_is_order(self):
        assert not MatchCondition.EQUAL.is_order
        assert MatchCondition.GREATER.is_order

    def test_equality_has_no_order_condition(self):
        with pytest.raises(ParameterError):
            MatchCondition.EQUAL.order_condition()


class TestQueryPredicate:
    def test_greater_means_value_below_v(self):
        """The paper's convention: Query(6, '>') selects a with 6 > a."""
        p = Query.parse(6, ">").predicate()
        assert p(5) and not p(6) and not p(7)

    def test_less_means_value_above_v(self):
        p = Query.parse(6, "<").predicate()
        assert p(7) and not p(6) and not p(5)

    def test_equality(self):
        p = Query.parse(6, "=").predicate()
        assert p(6) and not p(5)

    def test_validate_domain(self):
        with pytest.raises(ParameterError):
            Query.parse(256, "=").validate(8)

    def test_describe(self):
        assert Query.parse(6, ">", "age").describe() == "age 6 > a"


class TestRangeQuery:
    def test_interior_range_two_sides(self):
        queries = Range(10, 20).to_queries(8)
        assert len(queries) == 2
        preds = [q.predicate() for q in queries]
        for a in range(0, 256, 7):
            assert all(p(a) for p in preds) == (10 <= a <= 20)

    def test_touching_zero_drops_lower_side(self):
        queries = Range(0, 20).to_queries(8)
        assert len(queries) == 1
        assert queries[0].condition is MatchCondition.GREATER

    def test_touching_max_drops_upper_side(self):
        queries = Range(10, 255).to_queries(8)
        assert len(queries) == 1
        assert queries[0].condition is MatchCondition.LESS

    def test_point_range_is_equality(self):
        queries = Range(7, 7).to_queries(8)
        assert len(queries) == 1
        assert queries[0].condition is MatchCondition.EQUAL

    def test_full_domain_rejected(self):
        with pytest.raises(ParameterError):
            Range(0, 255).to_queries(8)

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            Range(20, 10).to_queries(8)

    def test_out_of_domain_rejected(self):
        with pytest.raises(ParameterError):
            Range(0, 256).to_queries(8)
