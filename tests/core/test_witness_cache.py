"""The cloud's one witness map: identical outputs, valid for exactly one ``Ac``.

Packages are installed without owner-issued witnesses, so every witness
here comes from the cloud's own ``MemWit`` path (paper Fig. 5): live per
query, or from one :meth:`~repro.core.cloud.CloudServer.precompute_witnesses`
batch until ``Ac`` moves.
"""

import pytest

from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.query import Query
from repro.core.records import Database, make_database
from repro.core.user import DataUser
from repro.core.verify import verify_response


@pytest.fixture()
def world(tparams, owner_factory):
    owner = owner_factory(tparams, seed=211)
    db = make_database([(f"r{i}", (i * 13) % 256) for i in range(20)], bits=8)
    out = owner.build(db)
    cloud = CloudServer(tparams, owner.keys.trapdoor.public)
    cloud.install(out.cloud_package.without_witnesses())
    user = DataUser(tparams, out.user_package, default_rng(5))
    return owner, cloud, user, db


def insert_without_witnesses(owner, cloud, user):
    add = Database(8)
    add.add("new", 13)
    out = owner.insert(add)
    cloud.install(out.cloud_package.without_witnesses())
    user.refresh(out.user_package)


class TestCache:
    def test_cached_witnesses_identical_to_live(self, world, tparams):
        owner, cloud, user, _ = world
        tokens = user.make_tokens(Query.parse(100, ">"))
        live = cloud.search(tokens)
        cached_count = cloud.precompute_witnesses()
        assert cached_count == cloud.prime_count
        cached = cloud.search(tokens)
        for a, b in zip(live.results, cached.results):
            assert a.witness.value == b.witness.value
        assert verify_response(tparams, cloud.ads_value, cached).ok

    def test_cached_vo_generation_is_faster(self, world):
        from repro.common.timing import time_call

        _, cloud, user, _ = world
        tokens = user.make_tokens(Query.parse(100, ">"))
        live_s = min(time_call(lambda: cloud.search(tokens))[0] for _ in range(3))
        cloud.precompute_witnesses()
        cached_s = min(time_call(lambda: cloud.search(tokens))[0] for _ in range(3))
        assert cached_s < live_s

    def test_cold_path_and_hit_path_identical(self, world, tparams):
        """Same witnesses whether served live (root-factor per query) or
        precomputed: the VO is a deterministic function of the prime set."""
        owner, cloud, user, _ = world
        tokens = user.make_tokens(Query.parse(60, "<"))
        cold = cloud.search(tokens)
        cloud.precompute_witnesses()
        warm = cloud.search(tokens)
        assert [r.witness.value for r in cold.results] == [
            r.witness.value for r in warm.results
        ]
        assert verify_response(tparams, cloud.ads_value, warm).ok

    def test_witness_less_repeat_query_runs_live_memwit(self, world, tparams, witness_work):
        """No memo between queries: a repeated witness-less query does the
        paper's cloud-side ``MemWit`` again, and answers byte-identically."""
        _, cloud, user, _ = world
        tokens = user.make_tokens(Query.parse(100, ">"))
        first = cloud.search(tokens)
        assert witness_work.memwit == 1
        second = cloud.search(tokens)
        assert witness_work.memwit == 2
        assert wire.dump_response(second) == wire.dump_response(first)
        assert verify_response(tparams, cloud.ads_value, second).ok

    def test_ac_moving_install_serves_no_stale_witness(self, world, tparams, witness_work):
        """An insert without witnesses empties the map: every witness served
        afterwards is computed against the new ``Ac``, none is left over."""
        owner, cloud, user, _ = world
        tokens = user.make_tokens(Query.parse(100, ">"))
        cloud.precompute_witnesses()
        before = {r.witness.value for r in cloud.search(tokens).results}
        insert_without_witnesses(owner, cloud, user)
        memwit = witness_work.memwit
        response = cloud.search(user.make_tokens(Query.parse(100, ">")))
        assert witness_work.memwit == memwit + 1  # live, nothing precomputed
        assert before.isdisjoint(r.witness.value for r in response.results)
        assert verify_response(tparams, cloud.ads_value, response).ok

    def test_recompute_after_update_verifies(self, world, tparams, witness_work):
        owner, cloud, user, _ = world
        insert_without_witnesses(owner, cloud, user)
        cloud.precompute_witnesses()
        memwit = witness_work.memwit
        response = cloud.search(user.make_tokens(Query.parse(13, "=")))
        assert witness_work.memwit == memwit  # the precompute covered it
        assert verify_response(tparams, cloud.ads_value, response).ok

    def test_precomputed_witnesses_checked_on_first_serve(self, world, tparams):
        """Precomputed witnesses take the per-item ``VerifyMem`` owner
        witnesses take: none at precompute, one per witness on its first
        serve, none on a repeat, and again after an ``Ac``-moving insert
        and the precompute that follows it."""
        owner, cloud, user, _ = world
        perfstats.reset("cloud.witness.")
        cloud.precompute_witnesses()
        assert perfstats.get("cloud.witness.checked") == 0  # no eager check
        tokens = user.make_tokens(Query.parse(100, ">"))
        first = cloud.search(tokens)
        served = len({r.witness.value for r in first.results})
        assert perfstats.get("cloud.witness.checked") == served
        cloud.search(tokens)
        assert perfstats.get("cloud.witness.checked") == served  # once per Ac
        insert_without_witnesses(owner, cloud, user)
        cloud.precompute_witnesses()
        response = cloud.search(user.make_tokens(Query.parse(100, ">")))
        assert perfstats.get("cloud.witness.checked") == served + len(
            {r.witness.value for r in response.results}
        )
        assert perfstats.get("cloud.witness.rejected") == 0
        assert verify_response(tparams, cloud.ads_value, response).ok

    def test_negated_precompute_pair_never_served(
        self, world, tparams, result_prime, monkeypatch
    ):
        """A corrupt precompute batch that negates two witnesses
        (``w → n−w``, which a random-linear-combination fold accepts) is
        rejected per item on first serve: both primes are served live
        ``MemWit`` instead, and the response verifies."""
        _, cloud, user, _ = world
        tokens = user.make_tokens(Query.parse(100, ">"))
        honest = cloud.search(tokens)
        victims = sorted({result_prime(tparams, r) for r in honest.results})[:2]
        assert len(victims) == 2
        n = tparams.accumulator.modulus
        root_witnesses = CloudServer._root_witnesses

        def corrupt(self, subset):
            return {
                p: n - w if p in victims else w
                for p, w in root_witnesses(self, subset).items()
            }

        monkeypatch.setattr(CloudServer, "_root_witnesses", corrupt)
        cloud.precompute_witnesses()
        monkeypatch.undo()
        perfstats.reset("cloud.witness.")
        response = cloud.search(tokens)
        assert perfstats.get("cloud.witness.rejected") == 2
        assert wire.dump_response(response) == wire.dump_response(honest)
        assert verify_response(tparams, cloud.ads_value, response).ok

    def test_cache_miss_produces_invalid_witness(self, world, tparams):
        """A lazy cloud with a cache still cannot fake unknown primes."""
        owner, cloud, user, _ = world
        cloud.precompute_witnesses()
        add = Database(8)
        add.add("new", 13)
        out = owner.insert(add)
        # The cloud deliberately does NOT install the update, so its cache
        # (and index) are stale relative to the fresh token below.
        user.refresh(out.user_package)
        response = cloud.search(user.make_tokens(Query.parse(13, "=")))
        report = verify_response(tparams, owner.accumulator.value, response)
        assert not report.ok
