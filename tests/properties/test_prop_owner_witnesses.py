"""Owner-issued witnesses are the cloud's ``MemWit`` values, served only checked.

* **equality** — after Build and after every Insert, the witnesses the
  owner ships (``g^(prod(X)·x⁻¹ mod φ)``) equal the trapdoor-free
  root-factor witnesses ``g^(prod(X)/x)`` for every accumulated prime, in
  the flat package, across a shard split and in the dual (deletion)
  instance;
* **never served unchecked** — a corrupted owner witness fails the cloud's
  per-item check, is counted, and the query is answered from the
  cloud-side path: it still verifies and pays;
* **carried over the wire** — a chaos-delivered install hands the cloud
  the owner's witnesses, so the next search does no live ``MemWit``;
* **not persisted** — ``snapshot()`` bytes do not depend on whether the
  installs carried witnesses.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosTransport, FaultPlan, profile_named
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core.cloud import CloudServer
from repro.core.query import Query
from repro.core.records import make_database
from repro.crypto.accumulator import root_factor
from repro.dual_system import DualSlicerSystem
from repro.sharding import HashShardPlan
from repro.system import DEFAULT_FUNDING, SlicerSystem

values = st.lists(st.integers(0, 255), min_size=1, max_size=10)


def database(vals, start=0):
    return make_database([(f"rec-{start + i}", v) for i, v in enumerate(vals)], bits=8)


def memwit(params, primes):
    acc = params.accumulator
    return root_factor(acc.generator % acc.modulus, list(primes), acc.modulus)


class TestOwnerWitnessesEqualMemWit:
    @given(base=values, inserts=st.lists(values, max_size=3), shards=st.sampled_from([1, 3]))
    @settings(max_examples=12, deadline=None)
    def test_build_inserts_and_shard_split(self, tparams, owner_factory, base, inserts, shards):
        owner = owner_factory(tparams, seed=71)
        owner.shard_plan = HashShardPlan(shards)
        accumulated: dict[int, None] = {}
        outputs = [owner.build(database(base))]
        outputs += [
            owner.insert(database(vals, start=100 * (i + 1))) for i, vals in enumerate(inserts)
        ]
        for out in outputs:
            accumulated.update(dict.fromkeys(out.cloud_package.primes))
            expected = memwit(tparams, accumulated)
            assert out.cloud_package.witnesses == expected
            # Each prime's witness goes to exactly one shard, its home.
            merged: dict[int, int] = {}
            for sid, pkg in enumerate(out.shard_packages):
                shard_witnesses = pkg.witnesses
                assert all(
                    owner.shard_plan.shard_of(owner._prime_g1[p]) == sid
                    for p in shard_witnesses
                )
                assert not set(shard_witnesses) & set(merged)
                merged.update(shard_witnesses)
            assert merged == expected

    def test_dual_instance(self, tparams):
        dual = DualSlicerSystem(tparams, default_rng(5))
        dual.setup(database([3, 9, 9, 200]))
        dual.insert(b"rec-new1", 9)
        dual.delete(b"\x00\x00\x00rec-1")
        for system in (dual.insert_system, dual.delete_system):
            cloud = system.cloud
            assert cloud._witnesses == memwit(tparams, cloud._primes)
        result = dual.search(Query.parse(9, "="))
        assert result.verified
        assert result.record_ids == {b"\x00\x00\x00rec-2", b"rec-new1"}


class TestCorruptOwnerWitness:
    def test_never_served_and_query_still_pays(self, tparams):
        s = SlicerSystem(tparams, rng=default_rng(120))
        s.setup(database([(i * 19) % 256 for i in range(20)]))
        query = Query.parse(130, ">")
        cloud = s.cloud
        token = s.user.make_tokens(query)[0]
        victim = cloud._token_prime(token, cloud._collect(token))
        honest = cloud._witnesses[victim]
        n = tparams.accumulator.modulus
        cloud._witnesses[victim] = honest * tparams.accumulator.generator % n

        perfstats.reset("cloud.witness.")
        outcome = s.search(query, payment=5000)
        assert perfstats.get("cloud.witness.rejected") == 1
        assert outcome.verified
        assert outcome.response.results[0].witness.value == honest
        assert s.balances()["user"] == DEFAULT_FUNDING - 5000
        assert s.balances()["cloud"] == DEFAULT_FUNDING + 5000


class TestNotPersisted:
    def test_snapshot_bytes_independent_of_witnesses(self, tparams, owner_factory, session_keys):
        owner = owner_factory(tparams, seed=29)
        outs = [owner.build(database([1, 5, 5, 77])), owner.insert(database([5, 90], start=50))]
        with_w = CloudServer(tparams, session_keys.trapdoor.public)
        without = CloudServer(tparams, session_keys.trapdoor.public)
        for out in outs:
            assert out.cloud_package.witnesses
            with_w.install(out.cloud_package)
            without.install(out.cloud_package.without_witnesses())
        assert with_w._witnesses and not without._witnesses
        assert with_w.snapshot() == without.snapshot()


class TestInstallWithoutWitnesses:
    def test_stale_witnesses_dropped_and_responses_identical(
        self, tparams, owner_factory, session_keys
    ):
        from repro.core import wire
        from repro.core.user import DataUser
        from repro.core.verify import verify_response

        owner = owner_factory(tparams, seed=31)
        build = owner.build(database([2, 8, 8, 64, 200]))
        lookup = CloudServer(tparams, session_keys.trapdoor.public)
        memwit_cloud = CloudServer(tparams, session_keys.trapdoor.public)
        lookup.install(build.cloud_package)
        memwit_cloud.install(build.cloud_package.without_witnesses())
        user = DataUser(tparams, build.user_package, default_rng(4))
        queries = [Query.parse(8, "="), Query.parse(60, ">"), Query.parse(100, "<")]
        for query in queries:
            tokens = user.make_tokens(query)
            assert wire.dump_response(lookup.search(tokens)) == wire.dump_response(
                memwit_cloud.search(tokens)
            )

        # An install that moves Ac without witnesses must not
        # leave the previous Ac's witnesses behind.
        delta = owner.insert(database([8, 99], start=40))
        lookup.install(delta.cloud_package.without_witnesses())
        assert lookup._witnesses == {}
        user.refresh(delta.user_package)
        for query in queries:
            response = lookup.search(user.make_tokens(query))
            assert verify_response(tparams, delta.chain_ads, response).ok


class TestWireInstall:
    def test_flat_chaos_insert_serves_owner_witnesses(self, tparams, owner_factory, witness_work):
        s = SlicerSystem(
            tparams,
            rng=default_rng(5),
            owner=owner_factory(tparams, seed=41),
            transport=ChaosTransport(FaultPlan(profile_named("clean"), seed=1)),
        )
        s.setup(database([3, 9, 9, 200, 64]))
        s.insert(database([9, 130], start=100))  # moves Ac: a full re-issue, over the wire
        checked = perfstats.get("cloud.witness.checked")
        outcome = s.search(Query.parse(9, "="))
        assert outcome.verified
        assert perfstats.get("cloud.witness.checked") > checked
        assert witness_work.memwit == 0  # no live MemWit
