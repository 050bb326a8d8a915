"""Epoch-suffix entry cache: lifecycle and incremental fold."""

import pytest

from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.entry_cache import CacheNode, EntryCache
from repro.core.query import Query
from repro.core.records import Database, make_database
from repro.core.user import DataUser
from repro.crypto import kernels
from repro.crypto.multiset_hash import MultisetHash


def node(tag: bytes, value: int = 7) -> CacheNode:
    return CacheNode((tag,), value, None)


class TestCacheLifecycle:
    def test_install_first_write_wins(self):
        cache = EntryCache(max_nodes=4)
        cache.install(b"k", node(b"first"))
        cache.install(b"k", node(b"second"))
        assert cache.get(b"k").entries == (b"first",)
        assert len(cache) == 1

    def test_fifo_eviction_counts(self):
        perfstats.reset("cloud.entry_cache.")
        cache = EntryCache(max_nodes=2)
        cache.install(b"a", node(b"a"))
        cache.install(b"b", node(b"b"))
        cache.install(b"c", node(b"c"))
        assert len(cache) == 2
        assert cache.get(b"a") is None  # oldest evicted first
        assert cache.get(b"b") is not None
        assert cache.get(b"c") is not None
        assert perfstats.get("cloud.entry_cache.evicted") == 1

    def test_clear_caches_reaches_live_caches(self):
        cache = EntryCache()
        cache.install(b"a", node(b"a"))
        assert kernels.cache_sizes()["entry_cache"] >= 1
        kernels.clear_caches()
        assert len(cache) == 0


@pytest.fixture()
def multi_epoch(tparams, owner_factory, monkeypatch):
    """A 4-epoch deployment for value 7 with kernels pinned on."""
    monkeypatch.setenv(kernels.KERNELS_ENV, "1")
    owner = owner_factory(tparams, seed=23)
    cloud = CloudServer(tparams, owner.keys.trapdoor.public)
    out = owner.build(make_database([("a", 7), ("b", 9)], bits=8))
    cloud.install(out.cloud_package)
    for i in range(3):
        add = Database(8)
        add.add(f"n{i}", 7)
        out = owner.insert(add)
        cloud.install(out.cloud_package)
    user = DataUser(tparams, out.user_package, default_rng(1))
    return owner, cloud, user


class TestCollectFold:
    def test_incremental_fold_matches_scratch_hash(self, multi_epoch, tparams):
        _, cloud, user = multi_epoch
        token = user.make_tokens(Query.parse(7, "="))[0]
        for _ in range(2):  # cold walk, then fully-warm walk
            collected = cloud._collect(token)
            assert collected.hash_value is not None
            scratch = MultisetHash.of(collected.entries, tparams.multiset_field)
            assert collected.hash_value == scratch.value

    def test_truncated_walk_bypasses_cache(self, multi_epoch):
        _, cloud, user = multi_epoch
        token = user.make_tokens(Query.parse(7, "="))[0]
        before = len(cloud._entry_cache)
        collected = cloud._collect(token, max_epochs=1)
        assert collected.hash_value is None
        assert collected.spliced == 0
        assert len(cloud._entry_cache) == before  # nothing installed

    def test_kernels_off_bypasses_cache(self, multi_epoch, monkeypatch):
        _, cloud, user = multi_epoch
        monkeypatch.setenv(kernels.KERNELS_ENV, "0")
        token = user.make_tokens(Query.parse(7, "="))[0]
        collected = cloud._collect(token)
        assert collected.hash_value is None
        assert len(cloud._entry_cache) == 0

    def test_install_and_own_snapshot_restore_keep_cache(self, multi_epoch, tparams):
        owner, cloud, user = multi_epoch
        tokens = user.make_tokens(Query.parse(7, "="))
        cloud.search(tokens)
        cached = len(cloud._entry_cache)
        assert cached > 0

        add = Database(8)
        add.add("later", 9)  # untouched keyword: epoch for 7 unchanged
        out = owner.insert(add)
        cloud.install(out.cloud_package)
        assert len(cloud._entry_cache) == cached  # install leaves it intact
        # Post-insert reference: the insert changed Ac, hence the witnesses.
        reference = cloud.search(tokens)

        # Restoring state identical to the live state keeps the cache (the
        # nodes still describe the stored epochs); restoring *older* state
        # drops it — see test_crash_recovery's stale-restore case.
        cloud.restore(cloud.snapshot())
        assert len(cloud._entry_cache) >= cached
        again = cloud.search(tokens)
        assert wire.dump_response(again) == wire.dump_response(reference)

    def test_hole_repair_after_eviction(self, multi_epoch):
        """Evicting deep-suffix nodes leaves a hole the walk re-probes; the
        repaired walk still returns the full identical response."""
        _, cloud, user = multi_epoch
        tokens = user.make_tokens(Query.parse(7, "="))
        first = cloud.search(tokens)
        # Evict the oldest (deepest-epoch) node only.
        nodes = cloud._entry_cache.nodes
        del nodes[next(iter(nodes))]
        perfstats.reset("cloud.entry_cache.")
        repaired = cloud.search(tokens)
        assert wire.dump_response(repaired) == wire.dump_response(first)
        assert perfstats.get("cloud.entry_cache.hit") == 1  # head still cached
