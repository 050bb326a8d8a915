"""Cloud.Search (Algorithm 4): correctness of result collection across epochs."""

import pytest

from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.query import Query
from repro.core.records import Database, encode_record_id, make_database
from repro.core.user import DataUser
from repro.common.rng import default_rng


@pytest.fixture()
def deployment(tparams, owner_factory, small_db):
    owner = owner_factory(tparams)
    out = owner.build(small_db)
    cloud = CloudServer(tparams, owner.keys.trapdoor.public)
    cloud.install(out.cloud_package)
    user = DataUser(tparams, out.user_package, default_rng(42))
    return owner, cloud, user


def run_query(cloud, user, query):
    tokens = user.make_tokens(query)
    response = cloud.search(tokens)
    return user.decrypt_results(response), response


class TestEqualitySearch:
    def test_duplicate_values_all_returned(self, deployment, small_db):
        _, cloud, user = deployment
        ids, _ = run_query(cloud, user, Query.parse(7, "="))
        assert ids == small_db.ids_matching(lambda v: v == 7)
        assert len(ids) == 2

    def test_absent_value_empty(self, deployment):
        _, cloud, user = deployment
        ids, response = run_query(cloud, user, Query.parse(99, "="))
        assert ids == set()
        assert response.results == []  # no token was even issued


class TestOrderSearch:
    @pytest.mark.parametrize("value,symbol", [(50, ">"), (50, "<"), (0, "<"), (255, ">")])
    def test_matches_oracle(self, deployment, small_db, value, symbol):
        _, cloud, user = deployment
        query = Query.parse(value, symbol)
        ids, _ = run_query(cloud, user, query)
        assert ids == small_db.ids_matching(query.predicate())

    def test_no_duplicate_entries_across_tokens(self, deployment):
        """Theorem 1: each matching record appears under exactly one slice."""
        _, cloud, user = deployment
        tokens = user.make_tokens(Query.parse(200, ">"))
        response = cloud.search(tokens)
        entries = response.all_entries()
        decrypted = [user._cipher.decrypt(e) for e in entries]
        assert len(decrypted) == len(set(decrypted))


class TestMultiEpochSearch:
    def test_walks_all_epochs(self, tparams, owner_factory):
        owner = owner_factory(tparams, seed=17)
        cloud = CloudServer(tparams, owner.keys.trapdoor.public)
        out = owner.build(make_database([("a", 7)], bits=8))
        cloud.install(out.cloud_package)

        # Three insert batches touching the same value 7 -> epochs advance.
        for i in range(3):
            add = Database(8)
            add.add(f"n{i}", 7)
            out = owner.insert(add)
            cloud.install(out.cloud_package)

        user = DataUser(tparams, out.user_package, default_rng(1))
        ids, response = run_query(cloud, user, Query.parse(7, "="))
        assert ids == {encode_record_id(x) for x in ["a", "n0", "n1", "n2"]}
        assert response.results[0].token.epoch == 3

    def test_epoch_walk_uses_chain_cache(self, tparams, owner_factory, monkeypatch):
        """The multi-epoch walk pays one ``π_pk`` step per older epoch on
        the cold path (an *empty* entry cache is still a cache — regression:
        truthiness of the cache object once made the cold path skip it
        silently), and a repeat search must not walk at all: the
        epoch-suffix entry cache's node links are the cached chain, and it
        serves the whole result from its head node."""
        from repro.common import perfstats
        from repro.crypto import kernels

        monkeypatch.setenv(kernels.KERNELS_ENV, "1")
        owner = owner_factory(tparams, seed=19)
        cloud = CloudServer(tparams, owner.keys.trapdoor.public)
        out = owner.build(make_database([("a", 7)], bits=8))
        cloud.install(out.cloud_package)
        for i in range(3):
            add = Database(8)
            add.add(f"n{i}", 7)
            out = owner.insert(add)
            cloud.install(out.cloud_package)
        user = DataUser(tparams, out.user_package, default_rng(1))
        tokens = user.make_tokens(Query.parse(7, "="))
        assert tokens[0].epoch == 3

        kernels.clear_caches()
        perfstats.reset("cloud.collect.")
        perfstats.reset("cloud.entry_cache.")
        first = cloud.search(tokens)
        assert perfstats.get("cloud.collect.pi_steps") == 3  # one modexp per step
        assert perfstats.get("cloud.entry_cache.miss") == 1
        again = cloud.search(tokens)
        # The repeat walk terminates at the cached head node: zero π_pk
        # steps and every entry spliced.
        assert perfstats.get("cloud.collect.pi_steps") == 3
        assert perfstats.get("cloud.entry_cache.hit") == 1
        assert perfstats.get("cloud.entry_cache.spliced_entries") == 4
        assert [r.entries for r in again.results] == [r.entries for r in first.results]

    def test_epoch_counters_reset(self, tparams, owner_factory):
        """Counters restart at 0 in each epoch; all entries must still be found."""
        owner = owner_factory(tparams, seed=18)
        cloud = CloudServer(tparams, owner.keys.trapdoor.public)
        db = make_database([("a", 9), ("b", 9), ("c", 9)], bits=8)
        out = owner.build(db)
        cloud.install(out.cloud_package)
        add = Database(8)
        add.add("d", 9)
        add.add("e", 9)
        out = owner.insert(add)
        cloud.install(out.cloud_package)

        user = DataUser(tparams, out.user_package, default_rng(1))
        ids, _ = run_query(cloud, user, Query.parse(9, "="))
        assert len(ids) == 5


class TestResponseShape:
    def test_witness_constant_size(self, deployment, tparams):
        _, cloud, user = deployment
        _, response = run_query(cloud, user, Query.parse(100, ">"))
        width = (tparams.accumulator.modulus.bit_length() + 7) // 8
        for result in response.results:
            assert result.witness_bytes <= width

    def test_entry_sizes_uniform(self, deployment, tparams):
        _, cloud, user = deployment
        _, response = run_query(cloud, user, Query.parse(100, ">"))
        for entry in response.all_entries():
            assert len(entry) == 16 + tparams.record_id_len

    def test_size_accounting(self, deployment):
        _, cloud, user = deployment
        _, response = run_query(cloud, user, Query.parse(100, ">"))
        assert response.encrypted_result_bytes == sum(
            len(e) for e in response.all_entries()
        )
