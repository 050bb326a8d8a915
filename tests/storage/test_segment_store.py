"""The durable epoch-segment store: append, reopen, torn tails, warm restarts.

Store-level tests exercise the commit protocol directly (manifest as commit
point, torn-tail truncation, interior-corruption refusal); cloud-level tests
assert the contract the bench measures — a reopened cloud serves byte-identical
responses, and a warm checkpoint brings its caches back.
"""

import pytest

from repro.common import perfstats
from repro.common.errors import StateError
from repro.common.encoding import decode_parts, encode_parts
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.query import Query
from repro.core.records import make_database
from repro.core.user import DataUser
from repro.core.verify import verify_response
from repro.storage import SegmentStore
from repro.system import DEFAULT_PAYMENT, SlicerSystem
from repro.storage.segment_store import (
    MANIFEST_NAME,
    WARM_NAME,
    index_digest,
    pack_warm_state,
    primes_digest,
    unpack_warm_state,
)


@pytest.fixture()
def world(tparams, owner_factory):
    owner = owner_factory(tparams, seed=201)
    db = make_database([(f"r{i}", (i * 23) % 256) for i in range(15)], bits=8)
    out = owner.build(db)
    return owner, out, db


def served_witnesses(response) -> int:
    """Distinct witnesses in a response: one per-item check each."""
    return len({result.witness.value for result in response.results})


def sample_segments():
    return [
        ({b"label-a": b"payload-a", b"label-b": b"payload-b"}, [3, 5, 7], 11),
        ({b"label-c": b"payload-c"}, [13], 17),
        ({}, [], 17),
    ]


class TestStoreChain:
    def test_append_replay_round_trip(self, tmp_path):
        store = SegmentStore.create(tmp_path / "store")
        for entries, primes, ads in sample_segments():
            store.append(entries, primes, ads)
        reopened = SegmentStore.open(tmp_path / "store")
        assert reopened.ads_value == 17
        assert reopened.segment_count == 3
        replayed = list(reopened.replay())
        assert replayed == [
            (seq, *segment) for seq, segment in enumerate(sample_segments())
        ]

    def test_create_refuses_existing_store(self, tmp_path):
        SegmentStore.create(tmp_path / "store")
        with pytest.raises(StateError, match="already exists"):
            SegmentStore.create(tmp_path / "store")

    def test_open_missing_store_raises(self, tmp_path):
        with pytest.raises(StateError, match="no segment store"):
            SegmentStore.open(tmp_path / "nowhere")

    def test_plan_mismatch_refused(self, tmp_path):
        SegmentStore.create(tmp_path / "store", plan=b"shard-plan-A")
        with pytest.raises(StateError, match="plan mismatch"):
            SegmentStore.open(tmp_path / "store", plan=b"shard-plan-B")
        # The recorded plan still opens (and None skips the check).
        SegmentStore.open(tmp_path / "store", plan=b"shard-plan-A")
        SegmentStore.open(tmp_path / "store")


class TestTornTail:
    def test_orphan_segment_is_truncated(self, tmp_path):
        """A crash between segment write and manifest swap: the orphan file
        is deleted on open and the store continues from the committed tip."""
        store = SegmentStore.create(tmp_path / "store")
        store.append({b"a": b"1"}, [3], 5)
        # Simulate the torn write: the next segment landed, the manifest
        # swap never did.
        torn = tmp_path / "store" / "seg-00001.slcr"
        torn.write_bytes(b"partially written segment that never committed")
        reopened = SegmentStore.open(tmp_path / "store")
        assert not torn.exists()
        assert reopened.segment_count == 1
        assert perfstats.get("segstore.tail_truncated") >= 1
        # The re-sent install reuses the freed sequence number.
        assert reopened.append({b"b": b"2"}, [7], 35) == 1
        assert [s.entries for s in reopened.replay()] == [{b"a": b"1"}, {b"b": b"2"}]

    def test_interior_corruption_is_refused(self, tmp_path):
        store = SegmentStore.create(tmp_path / "store")
        store.append({b"a": b"1"}, [3], 5)
        store.append({b"b": b"2"}, [7], 35)
        target = tmp_path / "store" / "seg-00000.slcr"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        target.write_bytes(bytes(blob))
        reopened = SegmentStore.open(tmp_path / "store")  # open is lazy
        with pytest.raises(StateError, match="interior corruption"):
            list(reopened.replay())

    def test_missing_listed_segment_is_refused(self, tmp_path):
        store = SegmentStore.create(tmp_path / "store")
        store.append({b"a": b"1"}, [3], 5)
        (tmp_path / "store" / "seg-00000.slcr").unlink()
        reopened = SegmentStore.open(tmp_path / "store")
        with pytest.raises(StateError, match="file is missing"):
            list(reopened.replay())

    def test_corrupt_manifest_is_refused(self, tmp_path):
        SegmentStore.create(tmp_path / "store")
        manifest = tmp_path / "store" / MANIFEST_NAME
        blob = bytearray(manifest.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        manifest.write_bytes(bytes(blob))
        with pytest.raises(StateError, match="corrupt segment manifest"):
            SegmentStore.open(tmp_path / "store")


class TestWarmCheckpoint:
    def test_warm_round_trip(self, tmp_path):
        store = SegmentStore.create(tmp_path / "store")
        store.write_warm(b"warm payload")
        assert SegmentStore.open(tmp_path / "store").read_warm() == b"warm payload"

    def test_corrupt_warm_degrades_to_none(self, tmp_path):
        """The checkpoint is an accelerator: corruption means a cold
        rebuild, never a refusal and never wrong caches."""
        store = SegmentStore.create(tmp_path / "store")
        store.write_warm(b"warm payload")
        warm_path = tmp_path / "store" / WARM_NAME
        warm_path.write_bytes(warm_path.read_bytes()[:-2])
        assert SegmentStore.open(tmp_path / "store").read_warm() is None
        assert perfstats.get("segstore.warm.invalid") >= 1

    def test_orphan_warm_file_is_removed(self, tmp_path):
        SegmentStore.create(tmp_path / "store")
        orphan = tmp_path / "store" / WARM_NAME
        orphan.write_bytes(b"checkpoint the manifest never recorded")
        SegmentStore.open(tmp_path / "store")
        assert not orphan.exists()

    def test_warm_state_payload_round_trip(self):
        packed = pack_warm_state(
            42,
            primes_digest([3, 5, 7]),
            index_digest({b"a": b"1"}),
            [(b"node-key", ((b"e1", b"e2"), 12345, b"next-t")),
             (b"other-key", ((), 0, None))],
            {3: 99, 5: 101},
            [(b"data", (1009, 4))],
        )
        warm = unpack_warm_state(packed)
        assert warm.ads_value == 42
        assert warm.primes_digest == primes_digest([7, 5, 3])
        assert warm.entry_nodes == [
            (b"node-key", ((b"e1", b"e2"), 12345, b"next-t")),
            (b"other-key", ((), 0, None)),
        ]
        assert warm.witnesses == {3: 99, 5: 101}
        assert warm.hash_items == [(b"data", (1009, 4))]
        empty = pack_warm_state(0, b"\x00" * 32, b"\x01" * 32, [], {}, [])
        assert unpack_warm_state(empty).witnesses == {}


class TestCloudReopen:
    def make_cloud(self, tparams, owner, store_dir=None):
        cloud = CloudServer(tparams, owner.keys.trapdoor.public)
        if store_dir is not None:
            cloud.attach_store(store_dir)
        return cloud

    def test_reopen_serves_byte_identical_state(self, world, tparams, tmp_path):
        owner, out, db = world
        cloud = self.make_cloud(tparams, owner, tmp_path / "store")
        cloud.install(out.cloud_package)
        delta = owner.insert(make_database([("w0", 8), ("w1", 199)], bits=8))
        cloud.install(delta.cloud_package)
        before = cloud.snapshot()

        resumed = self.make_cloud(tparams, owner)
        resumed.reopen(tmp_path / "store")
        assert resumed.snapshot() == before  # snapshot() hydrates first

        user = DataUser(tparams, delta.user_package, default_rng(9))
        query = Query.parse(100, ">")
        response = resumed.search(user.make_tokens(query))
        assert verify_response(tparams, resumed.ads_value, response).ok

    def test_reopen_is_lazy(self, world, tparams, tmp_path):
        owner, out, _ = world
        cloud = self.make_cloud(tparams, owner, tmp_path / "store")
        cloud.install(out.cloud_package)
        resumed = self.make_cloud(tparams, owner)
        base = perfstats.snapshot()
        resumed.reopen(tmp_path / "store")
        # Ac serves straight from the manifest; no segment was read yet.
        assert resumed.ads_value == cloud.ads_value
        assert perfstats.delta_since(base).get("segstore.segments_replayed", 0) == 0
        assert resumed.prime_count == cloud.prime_count  # first state access
        assert perfstats.delta_since(base)["segstore.segments_replayed"] == 1

    def test_warm_reopen_rehydrates_caches(self, world, tparams, tmp_path, witness_work):
        owner, out, _ = world
        cloud = self.make_cloud(tparams, owner, tmp_path / "store")
        cloud.install(out.cloud_package)
        user = DataUser(tparams, out.user_package, default_rng(9))
        tokens = user.make_tokens(Query.parse(100, ">"))
        cloud.precompute_witnesses()
        warm_response = cloud.search(tokens)
        cloud.checkpoint()
        node_keys = list(cloud._entry_cache.nodes)

        resumed = self.make_cloud(tparams, owner)
        resumed.reopen(tmp_path / "store")
        # Replay + warm load happen here, outside the measured leg.
        assert resumed.prime_count == cloud.prime_count
        base = perfstats.snapshot()
        memwit, checks = witness_work.memwit, witness_work.checks
        response = resumed.search(tokens)
        delta = perfstats.delta_since(base)
        assert response == warm_response
        assert delta.get("cloud.collect.index_probes", 0) == 0
        assert delta.get("cloud.collect.prf_evals", 0) == 0
        assert witness_work.memwit == memwit
        # Checkpointed witnesses are checked once each on first serve.
        assert witness_work.checks == checks + served_witnesses(response)
        assert list(resumed._entry_cache.nodes) == node_keys

    def test_warm_reopen_keeps_owner_witness_coverage(
        self, world, tparams, tmp_path, witness_work
    ):
        """Owner witnesses are checked and checkpointed, so the first (never
        before served) query after reopen needs no MemWit, only the per-item
        check of each witness it serves."""
        owner, out, _ = world
        cloud = self.make_cloud(tparams, owner, tmp_path / "store")
        cloud.install(out.cloud_package)
        assert cloud.precompute_witnesses() == cloud.prime_count
        assert witness_work.memwit == 0  # the owner covered every prime
        cloud.checkpoint()
        user = DataUser(tparams, out.user_package, default_rng(9))
        tokens = user.make_tokens(Query.parse(100, ">"))
        expected = cloud.search(tokens)

        resumed = self.make_cloud(tparams, owner)
        resumed.reopen(tmp_path / "store")
        assert resumed.prime_count == cloud.prime_count
        memwit, checks = witness_work.memwit, witness_work.checks
        response = resumed.search(tokens)
        assert witness_work.memwit == memwit
        assert witness_work.checks == checks + served_witnesses(response)
        assert response == expected

    def test_warm_checkpoint_round_trips_computed_witnesses(
        self, world, tparams, tmp_path, witness_work
    ):
        """A witness-less cloud's precomputed map survives the checkpoint:
        the reopened cloud's first covered query runs no MemWit."""
        owner, out, _ = world
        cloud = self.make_cloud(tparams, owner, tmp_path / "store")
        cloud.install(out.cloud_package.without_witnesses())
        cloud.precompute_witnesses()
        cloud.checkpoint()
        user = DataUser(tparams, out.user_package, default_rng(9))
        tokens = user.make_tokens(Query.parse(60, "<"))
        expected = cloud.search(tokens)

        resumed = self.make_cloud(tparams, owner)
        resumed.reopen(tmp_path / "store")
        base = perfstats.snapshot()
        assert resumed.prime_count == cloud.prime_count
        assert perfstats.delta_since(base)["segstore.warm.loaded"] == 1
        memwit, checks = witness_work.memwit, witness_work.checks
        response = resumed.search(tokens)
        assert witness_work.memwit == memwit
        assert witness_work.checks == checks + served_witnesses(response)
        assert response == expected
        assert verify_response(tparams, resumed.ads_value, response).ok

    def test_stale_checkpoint_degrades_to_cold(self, world, tparams, tmp_path, witness_work):
        """A checkpoint taken before a later install fails its stamps: the
        reopened cloud rebuilds cold but still answers correctly."""
        owner, out, _ = world
        cloud = self.make_cloud(tparams, owner, tmp_path / "store")
        cloud.install(out.cloud_package)
        cloud.precompute_witnesses()
        cloud.checkpoint()  # stamps the pre-insert state
        delta = owner.insert(make_database([("s0", 64)], bits=8))
        cloud.install(delta.cloud_package)

        resumed = self.make_cloud(tparams, owner)
        resumed.reopen(tmp_path / "store")
        user = DataUser(tparams, delta.user_package, default_rng(9))
        query = Query.parse(100, ">")
        memwit = witness_work.memwit
        response = resumed.search(user.make_tokens(query))
        assert witness_work.memwit == memwit + 1  # stale witnesses ignored
        assert perfstats.get("segstore.warm.stale") >= 1
        assert verify_response(tparams, resumed.ads_value, response).ok

    def test_attach_store_bootstraps_existing_state(self, world, tparams, tmp_path):
        owner, out, _ = world
        cloud = self.make_cloud(tparams, owner)
        cloud.install(out.cloud_package)
        cloud.attach_store(tmp_path / "store")  # after the fact
        resumed = self.make_cloud(tparams, owner)
        resumed.reopen(tmp_path / "store")
        assert resumed.prime_count == cloud.prime_count
        assert resumed.ads_value == cloud.ads_value

    def test_attach_twice_refused(self, world, tparams, tmp_path):
        owner, _, _ = world
        cloud = self.make_cloud(tparams, owner, tmp_path / "store")
        with pytest.raises(StateError, match="already attached"):
            cloud.attach_store(tmp_path / "other")

    def test_restore_refused_with_store_attached(self, world, tparams, tmp_path):
        """Snapshot restore would fork the store's history — loud refusal."""
        owner, out, _ = world
        cloud = self.make_cloud(tparams, owner, tmp_path / "store")
        cloud.install(out.cloud_package)
        snapshot = cloud.snapshot()
        with pytest.raises(StateError, match="use reopen"):
            cloud.restore(snapshot)


class TestCheckpointWitnessesCheckedPerItem:
    """Checkpoint bytes are untrusted input: every stored witness they carry
    takes the per-item ``VerifyMem`` on first serve, so a corrupt one is
    dropped for live ``MemWit`` instead of crashing or costing the fee."""

    QUERY = Query.parse(100, ">")

    @pytest.fixture()
    def checkpointed(self, tparams, owner_factory, result_prime, tmp_path):
        system = SlicerSystem(
            tparams,
            rng=default_rng(3),
            owner=owner_factory(tparams, seed=205),
            store_dir=tmp_path / "store",
        )
        system.setup(make_database([(f"r{i}", (i * 37) % 256) for i in range(30)], bits=8))
        first = system.search(self.QUERY)
        assert first.verified
        system.cloud.checkpoint()
        primes = [result_prime(tparams, result) for result in first.response.results]
        return system, first, primes, tmp_path / "store"

    @staticmethod
    def rewrite_warm(store_dir, edit) -> None:
        """Re-pack the committed checkpoint with ``edit`` applied to its
        witness map; the manifest records the new digest, so the reopening
        cloud loads it as a well-formed checkpoint."""
        store = SegmentStore.open(store_dir)
        warm = unpack_warm_state(store.read_warm())
        store.write_warm(
            pack_warm_state(
                warm.ads_value,
                warm.primes_digest,
                warm.index_digest,
                warm.entry_nodes,
                edit(dict(warm.witnesses)),
                warm.hash_items,
            )
        )

    def reopen_and_search(self, system):
        system.cloud.reopen()
        base = perfstats.snapshot()
        cloud_before = system.balances()["cloud"]
        outcome = system.search(self.QUERY)
        paid = system.balances()["cloud"] - cloud_before
        return outcome, paid, perfstats.delta_since(base)

    @staticmethod
    def assert_same_bytes(system, first) -> None:
        """The reopened cloud answers the first search's tokens byte for byte."""
        again = system.cloud.search(first.tokens)
        assert wire.dump_response(again) == wire.dump_response(first.response)

    def test_one_tampered_witness_is_rejected_and_the_search_pays(self, checkpointed, tparams):
        system, first, primes, store_dir = checkpointed
        n = tparams.accumulator.modulus

        def tamper(witnesses):
            witnesses[primes[0]] = witnesses[primes[0]] * 2 % n
            return witnesses

        self.rewrite_warm(store_dir, tamper)
        outcome, paid, delta = self.reopen_and_search(system)
        assert delta["segstore.warm.loaded"] == 1
        assert delta["cloud.witness.rejected"] == 1
        assert outcome.verified and paid == DEFAULT_PAYMENT
        assert outcome.record_ids == first.record_ids
        self.assert_same_bytes(system, first)

    def test_negated_witness_pair_is_rejected_and_the_search_pays(self, checkpointed, tparams):
        """``w → n−w`` on two witnesses passes a random-linear-combination
        fold; the per-item check rejects both."""
        system, first, primes, store_dir = checkpointed
        assert len(set(primes)) >= 2
        n = tparams.accumulator.modulus
        victims = sorted(set(primes))[:2]

        def negate(witnesses):
            for prime in victims:
                witnesses[prime] = n - witnesses[prime]
            return witnesses

        self.rewrite_warm(store_dir, negate)
        outcome, paid, delta = self.reopen_and_search(system)
        assert delta["cloud.witness.rejected"] == 2
        assert outcome.verified and paid == DEFAULT_PAYMENT
        assert outcome.record_ids == first.record_ids
        self.assert_same_bytes(system, first)

    def test_old_seven_part_checkpoint_reopens_cold(self, checkpointed):
        """The checkpoint before the trapdoor-chain part was dropped had a
        sixth part for it; such a file is malformed now, and the cloud
        reopens cold with byte-identical answers."""
        system, first, _, store_dir = checkpointed
        store = SegmentStore.open(store_dir)
        parts = decode_parts(store.read_warm())
        assert len(parts) == 6
        store.write_warm(encode_parts(*parts[:5], encode_parts(), parts[5]))
        outcome, paid, delta = self.reopen_and_search(system)
        assert delta["segstore.warm.invalid"] == 1
        assert "segstore.warm.loaded" not in delta
        assert outcome.verified and paid == DEFAULT_PAYMENT
        assert outcome.record_ids == first.record_ids
        self.assert_same_bytes(system, first)
