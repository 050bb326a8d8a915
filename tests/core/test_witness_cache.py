"""Cloud-side precomputed witness cache: identical outputs, kept across installs.

Packages are installed without owner-issued witnesses, so every witness
here comes from the cloud's own ``MemWit`` path (paper Fig. 5).
"""

import pytest

from repro.common import perfstats
from repro.common.errors import AccumulatorError
from repro.common.rng import default_rng
from repro.crypto import kernels
from repro.core.cloud import CloudServer
from repro.core.query import Query
from repro.core.records import Database, make_database
from repro.core.user import DataUser
from repro.core.verify import verify_response
from repro.crypto.accumulator import MembershipWitness, verify_membership


@pytest.fixture()
def world(tparams, owner_factory):
    owner = owner_factory(tparams, seed=211)
    db = make_database([(f"r{i}", (i * 13) % 256) for i in range(20)], bits=8)
    out = owner.build(db)
    cloud = CloudServer(tparams, owner.keys.trapdoor.public)
    cloud.install(out.cloud_package.without_witnesses())
    user = DataUser(tparams, out.user_package, default_rng(5))
    return owner, cloud, user, db


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

        def live_once():
            # The kernel repeat-query memo would serve runs 2-3 from cache;
            # clear it so "live" means deriving the witnesses per query.
            cloud._repeat_witness_cache.clear()
            return cloud.search(tokens)

        live_s = min(time_call(live_once)[0] for _ in range(3))
        cloud.precompute_witnesses()
        cached_s = min(time_call(lambda: cloud.search(tokens))[0] for _ in range(3))
        assert cached_s < live_s

    def test_cold_path_and_hit_path_identical(self, world, tparams):
        """Same witnesses whether the cache is cold (live root-factor per
        query) or warm (precomputed): the VO is a deterministic function of
        the prime set."""
        owner, cloud, user, _ = world
        tokens = user.make_tokens(Query.parse(60, "<"))
        cold = cloud.search(tokens)
        cloud.precompute_witnesses()
        warm = cloud.search(tokens)
        assert [r.witness.value for r in cold.results] == [
            r.witness.value for r in warm.results
        ]
        assert verify_response(tparams, cloud.ads_value, warm).ok

    def test_install_keeps_cache_covering_delta(self, world, tparams):
        """An insert does not drop the precompute: the cache is refilled
        for the new prime set, delta included, identical to a rebuild."""
        owner, cloud, user, _ = world
        cloud.precompute_witnesses()
        add = Database(8)
        add.add("new", 13)
        out = owner.insert(add)
        cloud.install(out.cloud_package.without_witnesses())
        refilled = dict(cloud._witness_cache)
        assert len(refilled) == cloud.prime_count  # survived, covers delta
        rebuilt_count = cloud.precompute_witnesses()
        assert rebuilt_count == len(refilled)
        assert cloud._witness_cache == refilled
        # Every refilled witness verifies against the on-chain
        # accumulation value.
        acc = tparams.accumulator
        for prime, witness_value in refilled.items():
            assert verify_membership(
                acc, cloud.ads_value, prime, MembershipWitness(witness_value)
            )
        user.refresh(out.user_package)
        response = cloud.search(user.make_tokens(Query.parse(13, "=")))
        assert verify_response(tparams, cloud.ads_value, response).ok

    def test_recompute_after_update_verifies(self, world, tparams):
        owner, cloud, user, _ = world
        add = Database(8)
        add.add("new", 13)
        out = owner.insert(add)
        cloud.install(out.cloud_package.without_witnesses())
        cloud.precompute_witnesses()
        user.refresh(out.user_package)
        response = cloud.search(user.make_tokens(Query.parse(13, "=")))
        assert verify_response(tparams, cloud.ads_value, response).ok

    @pytest.mark.skipif(
        not kernels.kernels_enabled(), reason="self-check rides the kernel layer"
    )
    def test_selfcheck_runs_on_precompute_and_refresh(self, world):
        """The trusted-batch self-check covers both cache-creation paths —
        its inputs are the cloud's own witnesses, the one place the batch
        kernel's trusted-input precondition holds."""
        owner, cloud, _, _ = world
        perfstats.reset("cloud.witness_cache.")
        cloud.precompute_witnesses()
        assert perfstats.get("cloud.witness_cache.selfcheck") == 1
        add = Database(8)
        add.add("new", 13)
        cloud.install(owner.insert(add).cloud_package.without_witnesses())
        assert perfstats.get("cloud.witness_cache.selfcheck") == 2

    @pytest.mark.skipif(
        not kernels.kernels_enabled(), reason="self-check rides the kernel layer"
    )
    def test_selfcheck_catches_corrupt_cache(self, world):
        _, cloud, _, _ = world
        cloud.precompute_witnesses()
        prime = next(iter(cloud._witness_cache))
        cloud._witness_cache[prime] = 4  # not a witness for anything here
        with pytest.raises(AccumulatorError):
            cloud._check_witness_cache()

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
