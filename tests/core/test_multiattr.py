"""Multi-attribute extension (Section V.F): per-attribute search isolation."""

import pytest

from repro.common.errors import ParameterError
from repro.common.rng import default_rng
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.query import Query, Range
from repro.core.records import AttributedDatabase, encode_record_id
from repro.core.user import DataUser
from repro.core.verify import verify_response


@pytest.fixture()
def world(tparams, owner_factory):
    owner = owner_factory(tparams, seed=71)
    db = AttributedDatabase(8)
    db.add("p1", {"age": 30, "score": 90})
    db.add("p2", {"age": 60, "score": 40})
    db.add("p3", {"age": 30, "score": 40})
    db.add("p4", {"age": 45, "score": 70})
    out = owner.build(db)
    cloud = CloudServer(tparams, owner.keys.trapdoor.public)
    cloud.install(out.cloud_package)
    user = DataUser(tparams, out.user_package, default_rng(9))
    return owner, cloud, user, db


def run(cloud, user, query):
    response = cloud.search(user.make_tokens(query))
    return user.decrypt_results(response), response


class TestAttributeIsolation:
    def test_equality_scoped_to_attribute(self, world):
        _, cloud, user, db = world
        ids, _ = run(cloud, user, Query(30, Query.parse(0, "=").condition, "age"))
        assert ids == db.ids_matching("age", lambda v: v == 30)

    def test_same_value_different_attribute_disjoint(self, world):
        _, cloud, user, db = world
        age_ids, _ = run(cloud, user, Query.parse(40, "=", "age"))
        score_ids, _ = run(cloud, user, Query.parse(40, "=", "score"))
        assert age_ids == set()
        assert score_ids == {encode_record_id("p2"), encode_record_id("p3")}

    def test_order_query_scoped(self, world):
        _, cloud, user, db = world
        ids, response = run(cloud, user, Query.parse(50, ">", "age"))
        assert ids == db.ids_matching("age", lambda v: v < 50)

    def test_unscoped_query_rejected_before_paying(self, world):
        """Records were indexed only under named attributes, so a bare
        ``attribute=""`` query could only ever verify an empty result.
        The user package now carries the index's attribute set and the
        user refuses to mint tokens for it instead of paying to search
        a nonexistent attribute."""
        _, cloud, user, _ = world
        with pytest.raises(ParameterError, match="multi-attribute"):
            user.make_tokens(Query.parse(30, "="))


class TestMultiAttrVerification:
    def test_order_search_verifies(self, world, tparams):
        _, cloud, user, _ = world
        _, response = run(cloud, user, Query.parse(50, ">", "score"))
        assert verify_response(tparams, cloud.ads_value, response).ok

    def test_range_per_attribute(self, world):
        _, cloud, user, db = world
        sides = [
            user.decrypt_results(cloud.search(user.make_tokens(q)))
            for q in Range(35, 75, attribute="score").to_queries(8)
        ]
        combined = set.intersection(*sides)
        assert combined == db.ids_matching("score", lambda v: 35 <= v <= 75)

    def test_insert_multiattr(self, world, tparams):
        owner, cloud, user, db = world
        add = AttributedDatabase(8)
        add.add("p5", {"age": 30, "score": 55})
        out = owner.insert(add)
        cloud.install(out.cloud_package)
        user.refresh(out.user_package)
        ids, response = run(cloud, user, Query.parse(30, "=", "age"))
        assert encode_record_id("p5") in ids
        assert verify_response(tparams, cloud.ads_value, response).ok
