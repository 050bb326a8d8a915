"""Kernels ≡ no kernels: the memo/precompute layer is an execution knob,
never a protocol input.  For any database, insert sequence and query, a
deployment with ``REPRO_KERNELS=1`` (warm or cold caches) must produce byte-identical indexes, primes, accumulation values,
witnesses and search results to one with the layer disabled."""

import os
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.common.rng import default_rng
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.query import MatchCondition, Query
from repro.core.records import Database
from repro.core.user import DataUser
from repro.core.verify import verify_response
from repro.crypto import kernels

PARAMS = SlicerParams.testing(value_bits=8)
KEYS = KeyBundle.generate(default_rng(777), trapdoor_bits=512)

value_lists = st.lists(st.integers(0, 255), min_size=1, max_size=10)
queries = st.tuples(
    st.integers(0, 255),
    st.sampled_from([MatchCondition.EQUAL, MatchCondition.GREATER, MatchCondition.LESS]),
)


@contextmanager
def kernels_off():
    """Disable the kernel layer for the duration (hypothesis-safe: no
    function-scoped monkeypatch fixture inside @given)."""
    old = os.environ.get(kernels.KERNELS_ENV)
    os.environ[kernels.KERNELS_ENV] = "0"
    try:
        yield
    finally:
        if old is None:
            del os.environ[kernels.KERNELS_ENV]
        else:
            os.environ[kernels.KERNELS_ENV] = old


def deploy(values: list[int], seed: int):
    owner = DataOwner(PARAMS, keys=KEYS, rng=default_rng(seed))
    db = Database(8)
    for i, v in enumerate(values):
        db.add(i, v)
    out = owner.build(db)
    cloud = CloudServer(PARAMS, KEYS.trapdoor.public)
    cloud.install(out.cloud_package)
    return owner, cloud, out


def assert_same_package(a, b) -> None:
    assert a.cloud_package.index.entries == b.cloud_package.index.entries
    assert a.cloud_package.primes == b.cloud_package.primes
    assert a.cloud_package.accumulation == b.cloud_package.accumulation
    assert a.chain_ads == b.chain_ads


class TestBuildEquivalence:
    @given(values=value_lists)
    @settings(max_examples=8, deadline=None)
    def test_build_byte_identical(self, values):
        seed = hash(tuple(values)) & 0xFFFF
        with kernels_off():
            _, _, plain = deploy(values, seed)
        kernels.clear_caches()
        _, _, cold = deploy(values, seed)  # kernels on, cold caches
        _, _, warm = deploy(values, seed)  # kernels on, warm caches
        assert_same_package(plain, cold)
        assert_same_package(plain, warm)


class TestInsertEquivalence:
    @given(
        values=value_lists,
        extra=st.lists(st.integers(0, 255), min_size=1, max_size=5),
    )
    @settings(max_examples=6, deadline=None)
    def test_insert_byte_identical(self, values, extra):
        seed = (hash(tuple(values)) ^ hash(tuple(extra))) & 0xFFFF
        add = Database(8)
        for i, v in enumerate(extra):
            add.add(f"x{i}", v)
        with kernels_off():
            owner_plain, cloud_plain, _ = deploy(values, seed)
            out_plain = owner_plain.insert(add)
            cloud_plain.install(out_plain.cloud_package)
        owner_k, cloud_k, _ = deploy(values, seed)
        out_k = owner_k.insert(add)
        cloud_k.install(out_k.cloud_package)
        assert_same_package(out_plain, out_k)
        assert cloud_plain.ads_value == cloud_k.ads_value
        assert sorted(cloud_plain._primes) == sorted(cloud_k._primes)


class TestSearchEquivalence:
    @given(values=value_lists, q=queries)
    @settings(max_examples=8, deadline=None)
    def test_search_results_and_witnesses_byte_identical(self, values, q):
        seed = hash(tuple(values)) & 0xFFFF
        with kernels_off():
            _, cloud_plain, out_plain = deploy(values, seed)
            user = DataUser(PARAMS, out_plain.user_package, default_rng(3))
            tokens = user.make_tokens(Query(*q))
            resp_plain = cloud_plain.search(tokens)
        kernels.clear_caches()
        _, cloud_k, _ = deploy(values, seed)
        resp_cold = cloud_k.search(tokens)  # cold kernel caches
        resp_warm = cloud_k.search(tokens)  # repeat query: warm trapdoor
        # chain, H_prime memo and repeat-witness cache all hit
        for resp in (resp_cold, resp_warm):
            assert len(resp.results) == len(resp_plain.results)
            for a, b in zip(resp_plain.results, resp.results):
                assert a.entries == b.entries
                assert a.witness.value == b.witness.value
        report = verify_response(PARAMS, cloud_k.ads_value, resp_warm)
        assert report.ok

    @given(values=value_lists, q=queries)
    @settings(max_examples=6, deadline=None)
    def test_decrypted_result_sets_identical(self, values, q):
        seed = hash(tuple(values)) & 0xFFFF
        with kernels_off():
            _, cloud_plain, out = deploy(values, seed)
            user = DataUser(PARAMS, out.user_package, default_rng(5))
            tokens = user.make_tokens(Query(*q))
            ids_plain = user.decrypt_results(cloud_plain.search(tokens))
        kernels.clear_caches()
        _, cloud_k, _ = deploy(values, seed)
        assert user.decrypt_results(cloud_k.search(tokens)) == ids_plain


class TestPrimeAndCounterEquivalence:
    @given(values=value_lists)
    @settings(max_examples=6, deadline=None)
    def test_contract_gas_material_identical(self, values):
        """The (prime, candidate-count) pairs the contract charges gas for
        are identical with the memo cold, warm, or absent."""
        seed = hash(tuple(values)) & 0xFFFF
        _, _, out = deploy(values, seed)
        payloads = [p.to_bytes(64, "big") for p in out.cloud_package.primes[:6]]
        with kernels_off():
            plain = [
                PARAMS.hash_to_prime().hash_to_prime_with_counter(d) for d in payloads
            ]
        kernels.clear_caches()
        cold = [PARAMS.hash_to_prime().hash_to_prime_with_counter(d) for d in payloads]
        warm = [PARAMS.hash_to_prime().hash_to_prime_with_counter(d) for d in payloads]
        assert cold == plain
        assert warm == plain
