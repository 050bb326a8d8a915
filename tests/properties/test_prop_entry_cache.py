"""Warm ≡ cold: the epoch-suffix result cache is an execution knob, never a
protocol input.  For any database, insert sequence and query, a repeat
search served from the cache must be byte-identical (full wire
``SearchResponse``, witnesses included) to a cold search, to a fresh-cloud
cold oracle, and to the plain ``REPRO_KERNELS=0`` loop — and the batched
``search_many`` must reproduce per-query ``search`` exactly."""

import os
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.query import MatchCondition, Query
from repro.core.records import Database
from repro.core.user import DataUser
from repro.crypto import kernels

PARAMS = SlicerParams.testing(value_bits=8)
KEYS = KeyBundle.generate(default_rng(778), trapdoor_bits=512)

value_lists = st.lists(st.integers(0, 255), min_size=1, max_size=8)
insert_batches = st.lists(
    st.lists(st.integers(0, 255), min_size=1, max_size=3), min_size=1, max_size=3
)
queries = st.tuples(
    st.integers(0, 255),
    st.sampled_from([MatchCondition.EQUAL, MatchCondition.GREATER, MatchCondition.LESS]),
)


@contextmanager
def kernels_set(enabled: bool):
    old = os.environ.get(kernels.KERNELS_ENV)
    os.environ[kernels.KERNELS_ENV] = "1" if enabled else "0"
    try:
        yield
    finally:
        if old is None:
            del os.environ[kernels.KERNELS_ENV]
        else:
            os.environ[kernels.KERNELS_ENV] = old


def deploy(values, batches, seed):
    """Build + the insert sequence; returns (owner, cloud, last output)."""
    owner = DataOwner(PARAMS, keys=KEYS, rng=default_rng(seed))
    db = Database(8)
    for i, v in enumerate(values):
        db.add(i, v)
    out = owner.build(db)
    cloud = CloudServer(PARAMS, KEYS.trapdoor.public)
    cloud.install(out.cloud_package)
    for b, extra in enumerate(batches):
        add = Database(8)
        for i, v in enumerate(extra):
            add.add(f"x{b}-{i}", v)
        out = owner.insert(add)
        cloud.install(out.cloud_package)
    return owner, cloud, out


class TestWarmColdEquivalence:
    @given(values=value_lists, batches=insert_batches, q=queries)
    @settings(max_examples=8, deadline=None)
    def test_warm_cold_plain_byte_identical(self, values, batches, q):
        seed = hash((tuple(values), tuple(map(tuple, batches)))) & 0xFFFF
        with kernels_set(True):
            kernels.clear_caches()
            _, cloud, out = deploy(values, batches, seed)
            user = DataUser(PARAMS, out.user_package, default_rng(3))
            tokens = user.make_tokens(Query(*q))
            cold = wire.dump_response(cloud.search(tokens))
            warm = wire.dump_response(cloud.search(tokens))
            warm2 = wire.dump_response(cloud.search(tokens))
        with kernels_set(False):
            _, plain_cloud, _ = deploy(values, batches, seed)
            plain = wire.dump_response(plain_cloud.search(tokens))
        assert cold == plain
        assert warm == plain
        assert warm2 == plain

    @given(values=value_lists, extra=st.lists(st.integers(0, 255), min_size=1, max_size=3))
    @settings(max_examples=6, deadline=None)
    def test_insert_then_research_matches_fresh_cold_oracle(self, values, extra):
        """The suffix splice after an insert: search (cache warms), insert
        into the same keyword, search again — only the new epoch is fresh,
        the rest is spliced, and the result must equal a never-cached cloud
        restored from the same state."""
        seed = (hash(tuple(values)) ^ hash(tuple(extra))) & 0xFFFF
        with kernels_set(True):
            kernels.clear_caches()
            owner, cloud, out = deploy(values, [], seed)
            user = DataUser(PARAMS, out.user_package, default_rng(3))
            # Warm the suffix the post-insert walk will splice.
            cloud.search(user.make_tokens(Query.parse(values[0], "=")))

            add = Database(8)
            add.add("fresh", values[0])  # same keyword: its epoch advances
            for i, v in enumerate(extra):
                add.add(f"y{i}", v)
            out = owner.insert(add)
            cloud.install(out.cloud_package)
            user.refresh(out.user_package)

            tokens = user.make_tokens(Query.parse(values[0], "="))
            warm = wire.dump_response(cloud.search(tokens))
            oracle = CloudServer(PARAMS, KEYS.trapdoor.public)
            oracle.restore(cloud.snapshot())
            cold = wire.dump_response(oracle.search(tokens))
        assert warm == cold

    @given(values=value_lists, q=queries)
    @settings(max_examples=6, deadline=None)
    def test_decrypted_ids_stable_warm(self, values, q):
        seed = hash(tuple(values)) & 0xFFFF
        with kernels_set(True):
            kernels.clear_caches()
            _, cloud, out = deploy(values, [], seed)
            user = DataUser(PARAMS, out.user_package, default_rng(5))
            tokens = user.make_tokens(Query(*q))
            ids_cold = user.decrypt_results(cloud.search(tokens))
            ids_warm = user.decrypt_results(cloud.search(tokens))
        assert ids_warm == ids_cold


class TestBatchEquivalence:
    @given(
        values=value_lists,
        qs=st.lists(queries, min_size=1, max_size=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_search_many_matches_per_query_search(self, values, qs):
        seed = hash(tuple(values)) & 0xFFFF
        with kernels_set(True):
            kernels.clear_caches()
            _, cloud, out = deploy(values, [], seed)
            user = DataUser(PARAMS, out.user_package, default_rng(3))
            # Duplicate the first query so cross-query dedup always engages.
            token_lists = [user.make_tokens(Query(*q)) for q in qs]
            token_lists.append(token_lists[0])
            batched = cloud.search_many(token_lists)
            singles = [cloud.search(tokens) for tokens in token_lists]
        assert [wire.dump_response(r) for r in batched] == [
            wire.dump_response(r) for r in singles
        ]

    @given(values=value_lists, qs=st.lists(queries, min_size=1, max_size=2))
    @settings(max_examples=5, deadline=None)
    def test_search_many_matches_kernels_off(self, values, qs):
        seed = hash(tuple(values)) & 0xFFFF
        with kernels_set(True):
            kernels.clear_caches()
            _, cloud, out = deploy(values, [], seed)
            user = DataUser(PARAMS, out.user_package, default_rng(3))
            token_lists = [user.make_tokens(Query(*q)) for q in qs]
            batched = [wire.dump_response(r) for r in cloud.search_many(token_lists)]
        with kernels_set(False):
            _, plain_cloud, _ = deploy(values, [], seed)
            plain = [
                wire.dump_response(plain_cloud.search(tokens))
                for tokens in token_lists
            ]
        assert batched == plain


class TestChaosParity:
    def test_fixed_seed_chaos_outcomes_cache_on_vs_off(self):
        """The same chaos seed replays the same fault schedule, outcomes and
        chaos/retry counters whether the entry cache is active or absent —
        repeated queries inside the scenario hit the cache when it's on."""
        from repro.chaos import ChaosTransport, FaultPlan, profile_named
        from repro.common import perfstats
        from repro.system import SlicerSystem

        scenario_queries = [
            Query.parse(7, "="),
            Query.parse(41, "<"),
            Query.parse(7, "="),  # repeat: warm when the cache is on
        ]

        def run(enabled: bool):
            with kernels_set(enabled):
                kernels.clear_caches()
                perfstats.reset()
                owner = DataOwner(PARAMS, keys=KEYS, rng=default_rng(7))
                transport = ChaosTransport(FaultPlan(profile_named("lossy"), seed=13))
                system = SlicerSystem(
                    PARAMS, rng=default_rng(5), owner=owner, transport=transport
                )
                db = Database(8)
                for i, v in enumerate([7, 7, 9, 41, 200]):
                    db.add(i, v)
                system.setup(db)
                outcomes = [system.search(q) for q in scenario_queries]
                add = Database(8)
                add.add("x", 7)
                system.insert(add)
                outcomes += [system.search(q) for q in scenario_queries]
                fingerprints = [
                    (
                        o.verified,
                        o.error,
                        sorted(o.record_ids),
                        None if o.response is None else wire.dump_response(o.response),
                    )
                    for o in outcomes
                ]
                chaos_counters = {
                    k: v
                    for k, v in perfstats.snapshot().items()
                    if k.startswith(("chaos.", "retry."))
                }
                return fingerprints, chaos_counters, list(transport.plan.history)

        assert run(True) == run(False)
