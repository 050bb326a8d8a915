"""Data user: decryption, state refresh, range composition."""

import pytest

from repro.common.errors import StateError
from repro.common.rng import default_rng
from repro.core.cloud import CloudServer
from repro.core.query import Query, Range
from repro.core.records import Database, encode_record_id, make_database
from repro.core.user import DataUser
from repro.core.verify import verify_response
from repro.planner import compile_plan
from repro.system import PlanOutcome


@pytest.fixture()
def world(tparams, owner_factory):
    owner = owner_factory(tparams, seed=51)
    db = make_database([(f"r{i}", (i * 11) % 256) for i in range(40)], bits=8)
    out = owner.build(db)
    cloud = CloudServer(tparams, owner.keys.trapdoor.public)
    cloud.install(out.cloud_package)
    user = DataUser(tparams, out.user_package, default_rng(8))
    return owner, cloud, user, db


class TestDecryption:
    def test_round_trip_ids(self, world):
        _, cloud, user, db = world
        query = Query.parse(11, "=")
        ids = user.decrypt_results(cloud.search(user.make_tokens(query)))
        assert ids == db.ids_matching(query.predicate())

    def test_garbage_entry_raises(self, world, tparams):
        from repro.common.errors import ReproError

        _, cloud, user, _ = world
        response = cloud.search(user.make_tokens(Query.parse(11, "=")))
        # Too short to even contain a nonce -> ParameterError from the cipher.
        response.results[0].entries[0] = b"\x00" * 10
        with pytest.raises(ReproError):
            user.decrypt_results(response)

    def test_wrong_length_plaintext_raises(self, world, tparams):
        _, cloud, user, _ = world
        response = cloud.search(user.make_tokens(Query.parse(11, "=")))
        # Valid-looking ciphertext with an over-long body -> StateError.
        response.results[0].entries[0] = b"\x00" * (16 + tparams.record_id_len + 4)
        with pytest.raises(StateError):
            user.decrypt_results(response)

    def test_local_verification_mode(self, world, tparams):
        _, cloud, user, _ = world
        response = cloud.search(user.make_tokens(Query.parse(11, "=")))
        assert verify_response(tparams, user.ads_value, response).ok


class TestRefresh:
    def test_refresh_tracks_inserts(self, world, tparams):
        owner, cloud, user, _ = world
        add = Database(8)
        add.add("fresh", 11)
        out = owner.insert(add)
        cloud.install(out.cloud_package)

        # Before refresh the user holds a stale trapdoor: finds only old records.
        stale_ids = user.decrypt_results(cloud.search(user.make_tokens(Query.parse(11, "="))))
        assert encode_record_id("fresh") not in stale_ids

        user.refresh(out.user_package)
        fresh_ids = user.decrypt_results(cloud.search(user.make_tokens(Query.parse(11, "="))))
        assert encode_record_id("fresh") in fresh_ids
        assert user.ads_value == out.chain_ads


class TestRangeComposition:
    def test_two_sided_range(self, world):
        _, cloud, user, db = world
        sides = [
            user.decrypt_results(cloud.search(user.make_tokens(q)))
            for q in Range(50, 120).to_queries(8)
        ]
        assert len(sides) == 2
        combined = set.intersection(*sides)
        assert combined == db.ids_matching(lambda v: 50 <= v <= 120)

    def test_point_range(self, world):
        _, cloud, user, db = world
        sides = [
            user.decrypt_results(cloud.search(user.make_tokens(q)))
            for q in Range(11, 11).to_queries(8)
        ]
        assert set.intersection(*sides) == db.ids_matching(lambda v: v == 11)

    def test_empty_sides(self):
        # A plan with no executed legs answers nothing.
        assert PlanOutcome(compile_plan(Range(3, 9), 8), []).record_ids == set()
