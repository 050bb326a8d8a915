"""Scatter/gather frontend unit tests against a single-cloud reference."""

import dataclasses
import hashlib

import pytest

from repro.chaos import ChaosTransport, FaultPlan, profile_named
from repro.common import perfstats
from repro.common.encoding import encode_parts, encode_uint
from repro.common.errors import ParameterError, StateError
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.query import Query
from repro.core.records import make_database
from repro.core.user import DataUser
from repro.core.verify import verify_response
from repro.sharding import HashShardPlan, ShardedCloudFrontend
from repro.storage import codec, state_io
from repro.storage.segment_store import MANIFEST_NAME, SegmentStore
from repro.system import SlicerSystem

VALUES = [7, 7, 9, 40, 41, 64, 3, 200]
QUERIES = [Query.parse(7, "="), Query.parse(40, ">"), Query.parse(64, "<")]


def database(values, start=0):
    return make_database(
        [(f"rec-{start + i}", v) for i, v in enumerate(values)], bits=8
    )


@pytest.fixture()
def deployment(tparams, owner_factory, session_keys):
    plan = HashShardPlan(4)
    owner = owner_factory(tparams)
    owner.shard_plan = plan
    out = owner.build(database(VALUES))
    frontend = ShardedCloudFrontend(tparams, session_keys.trapdoor.public, plan)
    frontend.install_shards(out.shard_packages)
    reference = CloudServer(tparams, session_keys.trapdoor.public)
    reference.install(out.cloud_package)
    user = DataUser(tparams, out.user_package, default_rng(3))
    return owner, frontend, reference, user


class TestMergeIdentity:
    def test_search_byte_identical_to_single_cloud(self, deployment):
        _, frontend, reference, user = deployment
        assert frontend.ads_value == reference.ads_value
        assert frontend.prime_count == reference.prime_count
        for query in QUERIES:
            tokens = user.make_tokens(query)
            assert wire.dump_response(frontend.search(tokens)) == wire.dump_response(
                reference.search(tokens)
            )

    def test_search_many_matches_sequential(self, deployment):
        _, frontend, reference, user = deployment
        token_lists = [user.make_tokens(q) for q in QUERIES]
        batched = frontend.search_many(token_lists)
        assert [wire.dump_response(r) for r in batched] == [
            wire.dump_response(reference.search(t)) for t in token_lists
        ]

    def test_insert_delta_keeps_identity(self, deployment, tparams, session_keys):
        owner, frontend, reference, user = deployment
        out = owner.insert(database([7, 130], start=100))
        frontend.install_shards(out.shard_packages)
        reference.install(out.cloud_package)
        user.refresh(out.user_package)
        for query in QUERIES:
            tokens = user.make_tokens(query)
            assert wire.dump_response(frontend.search(tokens)) == wire.dump_response(
                reference.search(tokens)
            )


class TestTierWitnesses:
    def test_witnessless_tier_matches_single_cloud(
        self, tparams, owner_factory, session_keys, witness_work
    ):
        # Installs without owner witnesses: the paper's cloud-side MemWit.
        plan = HashShardPlan(4)
        owner = owner_factory(tparams)
        owner.shard_plan = plan
        out = owner.build(database(VALUES))
        frontend = ShardedCloudFrontend(tparams, session_keys.trapdoor.public, plan)
        frontend.install_shards([pkg.without_witnesses() for pkg in out.shard_packages])
        reference = CloudServer(tparams, session_keys.trapdoor.public)
        reference.install(out.cloud_package.without_witnesses())
        user = DataUser(tparams, out.user_package, default_rng(3))
        for query in QUERIES:
            tokens = user.make_tokens(query)
            work = witness_work.memwit
            merged = frontend.search(tokens)
            assert witness_work.memwit > work  # live MemWit on the tier
            work = witness_work.memwit
            assert wire.dump_response(merged) == wire.dump_response(
                reference.search(tokens)
            )
            assert witness_work.memwit > work  # and on the single cloud
            assert verify_response(tparams, frontend.ads_value, merged).ok

    def test_owner_witnesses_leave_no_witness_work(self, deployment, witness_work):
        _, frontend, reference, user = deployment
        for query in QUERIES:
            tokens = user.make_tokens(query)
            assert wire.dump_response(frontend.search(tokens)) == wire.dump_response(
                reference.search(tokens)
            )
        assert witness_work.memwit == 0


class TestDegradedShards:
    def test_killed_shard_serves_detectable_failures(self, deployment, tparams):
        _, frontend, _, user = deployment
        tokens = user.make_tokens(Query.parse(10, "<"))
        shards = frontend.shards_for_tokens(tokens)
        assert len(shards) >= 2, "order query must fan out for this test"
        frontend.kill_shard(shards[0])
        response = frontend.search(tokens)
        report = verify_response(tparams, frontend.ads_value, response)
        assert not report.ok, "dead-shard witnesses must fail verification"
        dead_results = [r for r in response.results if r.witness.value == 1]
        assert dead_results and all(r.entries == [] for r in dead_results)

    def test_restore_revives_a_killed_shard(self, deployment, tparams):
        _, frontend, _, user = deployment
        tokens = user.make_tokens(Query.parse(7, "="))
        reference = wire.dump_response(frontend.search(tokens))
        (victim,) = frontend.shards_for_tokens(tokens)
        snap = frontend.snapshot_shard(victim)
        frontend.kill_shard(victim)
        assert not verify_response(
            tparams, frontend.ads_value, frontend.search(tokens)
        ).ok
        frontend.restore_shard(victim, snap)
        assert wire.dump_response(frontend.search(tokens)) == reference


class TestTierSnapshot:
    def test_roundtrip(self, deployment):
        _, frontend, _, user = deployment
        tokens = user.make_tokens(Query.parse(64, "<"))
        reference = wire.dump_response(frontend.search(tokens))
        frontend.restore(frontend.snapshot())
        assert wire.dump_response(frontend.search(tokens)) == reference

    def test_shape_mismatch_rejected(self, deployment, tparams, session_keys):
        _, frontend, _, _ = deployment
        other = ShardedCloudFrontend(
            tparams, session_keys.trapdoor.public, HashShardPlan(2)
        )
        with pytest.raises(ParameterError):
            other.restore(frontend.snapshot())


class TestStoreFingerprint:
    def test_manifests_pin_the_plan_bytes(self, deployment, tmp_path):
        # These bytes are on disk in every shard store written so far; a
        # change here would stop existing stores from reopening.
        _, frontend, _, _ = deployment
        frontend.attach_store(tmp_path)
        for k in range(4):
            store = SegmentStore.open(tmp_path / f"shard-{k}")
            assert store.plan == encode_parts(
                b"HashShardPlan", encode_uint(4), encode_uint(k)
            )

    def test_reopen_under_another_width_refused(
        self, deployment, tparams, session_keys, tmp_path
    ):
        _, frontend, _, _ = deployment
        frontend.attach_store(tmp_path)
        narrower = ShardedCloudFrontend(
            tparams, session_keys.trapdoor.public, HashShardPlan(2)
        )
        with pytest.raises(StateError, match="plan mismatch"):
            narrower.reopen(tmp_path)


class TestOldShardStores:
    """Shard stores written while segments still listed shard-local primes."""

    @staticmethod
    def _write_old_store(path, plan_tag, deltas):
        """Hand-pack a store the old way: a local-prime list as the fifth part."""
        path.mkdir()
        records = []
        for seq, (package, local) in enumerate(deltas):
            blob = codec.pack(
                b"epoch-segment",
                codec.encode_int(seq),
                codec.encode_mapping(dict(package.index.entries)),
                codec.encode_parts(*[codec.encode_int(p) for p in package.primes]),
                codec.encode_int(package.accumulation),
                b"\x01" + codec.encode_parts(*[codec.encode_int(p) for p in local]),
            )
            name = f"seg-{seq:05d}.slcr"
            (path / name).write_bytes(blob)
            records.append(
                codec.encode_parts(
                    name.encode(), codec.encode_int(len(blob)), hashlib.sha256(blob).digest()
                )
            )
        ads = codec.encode_int(deltas[-1][0].accumulation)
        (path / MANIFEST_NAME).write_bytes(
            codec.pack(b"segment-manifest", plan_tag, ads, b"", *records)
        )

    def test_old_segments_reopen_byte_identical(
        self, tparams, owner_factory, session_keys, tmp_path
    ):
        plan = HashShardPlan(4)
        owner = owner_factory(tparams)
        owner.shard_plan = plan
        outs = [owner.build(database(VALUES)), owner.insert(database([7, 130], start=100))]
        reference = CloudServer(tparams, session_keys.trapdoor.public)
        for out in outs:
            reference.install(out.cloud_package)
        frontend = ShardedCloudFrontend(tparams, session_keys.trapdoor.public, plan)
        for sid in range(plan.shards):
            deltas = []
            for out in outs:
                pkg = out.shard_packages[sid]
                local = [p for p in pkg.primes if plan.shard_of(owner._prime_g1[p]) == sid]
                deltas.append((pkg, local))
            assert any(local for _, local in deltas)
            self._write_old_store(tmp_path / f"shard-{sid}", frontend._shard_plan_tag(sid), deltas)
        frontend.reopen(tmp_path)
        user = DataUser(tparams, outs[-1].user_package, default_rng(3))
        for query in QUERIES:
            tokens = user.make_tokens(query)
            assert wire.dump_response(frontend.search(tokens)) == wire.dump_response(
                reference.search(tokens)
            )


class TestInstallValidation:
    def test_wrong_package_count_rejected(self, tparams, owner_factory, session_keys):
        owner = owner_factory(tparams)
        owner.shard_plan = HashShardPlan(2)
        out = owner.build(database(VALUES))
        frontend = ShardedCloudFrontend(
            tparams, session_keys.trapdoor.public, HashShardPlan(4)
        )
        with pytest.raises(ParameterError):
            frontend.install_shards(out.shard_packages)

    @pytest.mark.parametrize("bad", ["zero", "modulus"])
    def test_witness_outside_modulus_refused(self, tparams, owner_factory, session_keys, bad):
        """A witness congruent mod n to a valid one would pass VerifyMem."""
        plan = HashShardPlan(4)
        owner = owner_factory(tparams)
        owner.shard_plan = plan
        pkg = owner.build(database(VALUES)).shard_packages[0]
        prime, witness = next(iter(pkg.witnesses.items()))
        forged = 0 if bad == "zero" else witness + tparams.accumulator.modulus
        package = dataclasses.replace(pkg, witnesses={prime: forged})
        frontend = ShardedCloudFrontend(tparams, session_keys.trapdoor.public, plan)
        with pytest.raises(StateError):
            frontend.install_shard(0, package)


class TestShardPackageWitnesses:
    """Chaos-wire shard installs (every insert) carry the owner's witnesses."""

    @staticmethod
    def _system(tparams, owner_factory):
        system = SlicerSystem(
            tparams,
            rng=default_rng(5),
            owner=owner_factory(tparams),
            shards=4,
            transport=ChaosTransport(FaultPlan(profile_named("clean"), seed=1)),
        )
        system.setup(database(VALUES))
        system.insert(database([7, 130], start=100))  # moves Ac: a full re-issue
        return system

    def test_wire_install_serves_owner_witnesses(self, tparams, owner_factory, witness_work):
        system = self._system(tparams, owner_factory)
        checked = perfstats.get("cloud.witness.checked")
        outcome = system.search(QUERIES[0])
        assert outcome.verified
        assert perfstats.get("cloud.witness.checked") > checked
        assert witness_work.memwit == 0  # no live MemWit

    def test_tampered_witness_rejected_then_search_pays(
        self, tparams, owner_factory, result_prime, monkeypatch
    ):
        # The honest twin names the prime the query's first token binds to.
        twin = self._system(tparams, owner_factory)
        target = result_prime(tparams, twin.search(QUERIES[0]).response.results[0])
        modulus = tparams.accumulator.modulus
        real_dump = state_io.dump_cloud_package

        def tampering_dump(pkg):
            witnesses = pkg.witnesses
            if target in witnesses:  # negate: still in [1, n), fails VerifyMem
                witnesses = {**witnesses, target: modulus - witnesses[target]}
            return real_dump(dataclasses.replace(pkg, witnesses=witnesses))

        monkeypatch.setattr(state_io, "dump_cloud_package", tampering_dump)
        system = self._system(tparams, owner_factory)
        rejected = perfstats.get("cloud.witness.rejected")
        outcome = system.search(QUERIES[0])
        assert perfstats.get("cloud.witness.rejected") == rejected + 1
        assert outcome.verified and outcome.settle_receipt.return_value is True
        assert system.balances() == twin.balances()
