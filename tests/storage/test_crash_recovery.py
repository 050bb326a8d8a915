"""Crash recovery: torn, truncated or bit-rotted snapshots never load.

The chaos layer's crash-restart path restores a cloud from its
``dump_cloud_state`` snapshot, so state loading has a hard contract
(see :mod:`repro.storage.state_io`): every ``load_*`` either returns fully
decoded state or raises :class:`StateError` — a corrupted file must never
produce a silently partial object — and :func:`save` is atomic, so a crash
mid-write leaves the previous snapshot intact.
"""

import os

import pytest

from repro.common import perfstats
from repro.common.errors import StateError
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.query import Query
from repro.core.records import make_database
from repro.core.user import DataUser
from repro.core.verify import verify_response
from repro.storage import (
    dump_cloud_state,
    dump_index,
    load,
    load_cloud_state,
    load_index,
    load_primes,
    load_trapdoor_state,
    save,
)


@pytest.fixture()
def world(tparams, owner_factory):
    owner = owner_factory(tparams, seed=201)
    db = make_database([(f"r{i}", (i * 23) % 256) for i in range(15)], bits=8)
    out = owner.build(db)
    cloud = CloudServer(tparams, owner.keys.trapdoor.public)
    cloud.install(out.cloud_package)
    return owner, cloud, out, db


def bit_flipped(blob: bytes, position: int) -> bytes:
    out = bytearray(blob)
    out[position // 8] ^= 1 << (position % 8)
    return bytes(out)


class TestCorruptionIsLoud:
    """The satellite bug: a partial read must raise, never half-load."""

    def test_truncation_raises_state_error(self, world):
        _, cloud, _, _ = world
        blob = dump_index(cloud.index)
        for keep in (0, 1, len(blob) // 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(StateError, match="cannot load encrypted index"):
                load_index(blob[:keep])

    def test_interior_bit_flip_raises_state_error(self, world):
        """Bit rot *inside* the mapping body — beyond the header checks that
        caught truncation — trips the codec's content digest."""
        _, cloud, _, _ = world
        blob = dump_index(cloud.index)
        for position in (len(blob) * 4, len(blob) * 6, len(blob) * 8 - 3):
            with pytest.raises(StateError):
                load_index(bit_flipped(blob, position))

    def test_every_loader_rejects_garbage(self, world, tparams):
        _, cloud, _, _ = world
        for loader in (load_index, load_primes, load_trapdoor_state, load_cloud_state):
            with pytest.raises(StateError):
                loader(b"not a state blob at all")
            with pytest.raises(StateError):
                loader(b"")

    def test_wrong_kind_rejected(self, world):
        """A primes blob fed to the index loader is corruption, not data."""
        _, cloud, _, _ = world
        from repro.storage import dump_primes

        with pytest.raises(StateError, match="cannot load encrypted index"):
            load_index(dump_primes(sorted(cloud._primes)))


class TestCloudSnapshotRoundTrip:
    def test_round_trip_preserves_state(self, world):
        _, cloud, _, _ = world
        blob = dump_cloud_state(cloud.index, sorted(cloud._primes), cloud.ads_value)
        index, primes, ads_value = load_cloud_state(blob)
        assert len(index) == len(cloud.index)
        assert primes == sorted(cloud._primes)
        assert ads_value == cloud.ads_value

    def test_restored_cloud_serves_verifiable_searches(self, world, tparams):
        owner, cloud, out, db = world
        resumed = CloudServer(tparams, owner.keys.trapdoor.public)
        resumed.restore(cloud.snapshot())
        user = DataUser(tparams, out.user_package, default_rng(9))
        query = Query.parse(100, ">")
        response = resumed.search(user.make_tokens(query))
        assert verify_response(tparams, resumed.ads_value, response).ok
        assert user.decrypt_results(response) == db.ids_matching(query.predicate())

    def test_failed_restore_leaves_current_state_intact(self, world, tparams):
        """Integrity is checked before mutation: a corrupt snapshot raises
        and the running cloud keeps serving from its live state."""
        owner, cloud, out, _ = world
        before = (len(cloud.index), cloud.prime_count, cloud.ads_value)
        snapshot = cloud.snapshot()
        with pytest.raises(StateError):
            cloud.restore(bit_flipped(snapshot, len(snapshot) * 5))
        assert (len(cloud.index), cloud.prime_count, cloud.ads_value) == before
        user = DataUser(tparams, out.user_package, default_rng(9))
        response = cloud.search(user.make_tokens(Query.parse(100, ">")))
        assert verify_response(tparams, cloud.ads_value, response).ok

    def test_restore_from_own_snapshot_keeps_caches(self, world, tparams, witness_work):
        """The cache-amnesia fix: witnesses are a pure function of
        ``(X, Ac)``, so restoring state identical to the live state must not
        throw away a provably-still-exact witness map or entry cache."""
        _, cloud, out, _ = world
        user = DataUser(tparams, out.user_package, default_rng(9))
        tokens = user.make_tokens(Query.parse(100, ">"))
        before = cloud.search(tokens)  # checks the owner witnesses it serves
        entry_cache = cloud._entry_cache
        cloud.restore(cloud.snapshot())
        work = witness_work.total
        after = cloud.search(tokens)
        assert witness_work.total == work  # no MemWit, no re-check
        assert wire.dump_response(after) == wire.dump_response(before)
        assert cloud._entry_cache is entry_cache

    def test_restore_of_stale_state_drops_witness_cache(self, world, tparams, witness_work):
        """Restoring *older* state (different primes/Ac) models rollback: the
        witnesses would be stale for the restored prime set, so they are
        dropped and the restored cloud serves live ``MemWit`` again."""
        owner, cloud, out, _ = world
        old_snapshot = cloud.snapshot()
        delta = owner.insert(make_database([("z0", 13), ("z1", 77)], bits=8))
        cloud.install(delta.cloud_package)
        cloud.precompute_witnesses()
        dropped = perfstats.get("cloud.restore.caches_dropped")
        cloud.restore(old_snapshot)
        assert perfstats.get("cloud.restore.caches_dropped") == dropped + 1
        user = DataUser(tparams, out.user_package, default_rng(9))
        memwit = witness_work.memwit
        response = cloud.search(user.make_tokens(Query.parse(100, ">")))
        assert witness_work.memwit == memwit + 1
        assert verify_response(tparams, cloud.ads_value, response).ok
        assert cloud.precompute_witnesses() == cloud.prime_count


class TestAtomicSave:
    def test_save_then_load_round_trips(self, world, tmp_path):
        _, cloud, _, _ = world
        path = tmp_path / "cloud.slcr"
        blob = cloud.snapshot()
        save(path, blob)
        assert load(path) == blob
        assert not path.with_name(path.name + ".tmp").exists()

    def test_crash_mid_write_preserves_previous_snapshot(
        self, world, tmp_path, monkeypatch
    ):
        """Kill the writer before the rename: the old file must survive and
        still load — the property the chaos crash-restart path depends on."""
        _, cloud, _, _ = world
        path = tmp_path / "cloud.slcr"
        old_blob = cloud.snapshot()
        save(path, old_blob)

        def crash(src, dst):
            raise OSError("simulated power loss before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated power loss"):
            save(path, b"newer snapshot that never lands")
        monkeypatch.undo()

        assert load(path) == old_blob
        load_cloud_state(load(path))  # still a valid snapshot

    def test_save_fsyncs_parent_directory(self, world, tmp_path, monkeypatch):
        """The durability half of the satellite fix: ``os.replace`` alone
        leaves the new directory entry in the page cache, so ``save`` must
        fsync the parent directory after the rename or a post-rename crash
        can resurrect the old snapshot."""
        from repro.storage import state_io

        synced: list[object] = []
        real = state_io.fsync_dir

        def recording(path):
            synced.append(os.fspath(path))
            real(path)

        monkeypatch.setattr(state_io, "fsync_dir", recording)
        path = tmp_path / "cloud.slcr"
        save(path, world[1].snapshot())
        assert os.fspath(tmp_path) in synced

    def test_torn_file_on_disk_is_rejected_at_load(self, world, tmp_path):
        """If a non-atomic writer DID tear the file, loading it is loud."""
        _, cloud, _, _ = world
        path = tmp_path / "cloud.slcr"
        blob = cloud.snapshot()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(StateError, match="cannot load cloud state"):
            load_cloud_state(load(path))
