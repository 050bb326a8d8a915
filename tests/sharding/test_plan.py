"""Routing plan unit tests: determinism, range, splitting, wire roundtrip."""

import pytest

from repro.common.encoding import encode_parts
from repro.common.errors import ParameterError, StateError
from repro.common.rng import default_rng
from repro.core.keywords import equality_keyword
from repro.core.query import Query
from repro.core.state import CloudPackage, EncryptedIndex
from repro.core.cloud import SearchResponse, TokenResult
from repro.core.tokens import SearchToken, derive_g1_g2
from repro.crypto.accumulator import MembershipWitness
from repro.sharding.plan import (
    HashShardPlan,
    equality_route,
    merge_responses,
    route_tokens,
    split_package,
)
from repro.storage import codec
from repro.storage.state_io import dump_cloud_package, load_cloud_package

RNG = default_rng(404)


class TestHashShardPlan:
    def test_in_range_and_deterministic(self):
        plan = HashShardPlan(5)
        for _ in range(200):
            g1 = RNG.token_bytes(16)
            sid = plan.shard_of(g1)
            assert 0 <= sid < 5
            assert plan.shard_of(g1) == sid

    def test_single_shard_routes_everything_to_zero(self):
        plan = HashShardPlan(1)
        assert all(plan.shard_of(RNG.token_bytes(16)) == 0 for _ in range(50))

    def test_spreads_across_shards(self):
        plan = HashShardPlan(4)
        hit = {plan.shard_of(RNG.token_bytes(16)) for _ in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_invalid_shard_count(self):
        with pytest.raises(ParameterError):
            HashShardPlan(0)

    def test_route_is_independent_of_plan_instance(self):
        g1 = b"\x01" * 16
        assert HashShardPlan(7).shard_of(g1) == HashShardPlan(7).shard_of(g1)


def _tokens(n):
    return [SearchToken(b"t%d" % i, i, RNG.token_bytes(16), b"g2") for i in range(n)]


def _serve(tokens):
    """A stand-in shard: one result per token, tagged by its epoch."""
    return SearchResponse(
        [TokenResult(t, [bytes([t.epoch])], MembershipWitness(1)) for t in tokens]
    )


class TestRouteAndMerge:
    def test_slices_partition_tokens_in_shard_then_token_order(self):
        plan = HashShardPlan(3)
        tokens = _tokens(30)
        route, slices = route_tokens(plan, tokens)
        assert route == [plan.shard_of(t.g1) for t in tokens]
        assert list(slices) == sorted(set(route))
        for sid, shard_tokens in slices.items():
            assert shard_tokens == [t for t, r in zip(tokens, route) if r == sid]

    def test_merge_restores_token_order(self):
        tokens = _tokens(30)
        route, slices = route_tokens(HashShardPlan(4), tokens)
        merged = merge_responses(route, {sid: _serve(ts) for sid, ts in slices.items()})
        assert [r.token for r in merged.results] == tokens
        assert merged.results == _serve(tokens).results

    def test_short_partial_refused(self):
        tokens = _tokens(12)
        route, slices = route_tokens(HashShardPlan(2), tokens)
        partials = {sid: _serve(ts) for sid, ts in slices.items()}
        victim = next(iter(partials))
        partials[victim].results.pop()
        with pytest.raises(StateError, match=f"shard {victim} answered"):
            merge_responses(route, partials)


class TestSplitPackage:
    def _routed(self, plan, n_jobs):
        routed = []
        for j in range(n_jobs):
            g1 = RNG.token_bytes(16)
            entries = [
                (bytes([j, k]) + b"label", bytes([j, k]) + b"payload")
                for k in range(3)
            ]
            routed.append((plan.shard_of(g1), entries))
        return routed

    def test_slices_union_to_flat_index(self):
        plan = HashShardPlan(3)
        routed = self._routed(plan, 12)
        all_primes = [1000 + j for j in range(12)]
        packages = split_package(plan, routed, all_primes, accumulation=42)
        assert len(packages) == 3
        merged = {}
        for pkg in packages:
            assert pkg.primes == all_primes  # replicated, every shard
            assert pkg.accumulation == 42
            merged.update(pkg.index.entries)
        flat = {label: payload for _, entries in routed for label, payload in entries}
        assert merged == flat

    def test_entries_land_on_their_keyword_shard(self):
        plan = HashShardPlan(4)
        routed = self._routed(plan, 8)
        packages = split_package(plan, routed, [1000 + j for j in range(8)], accumulation=1)
        for sid, entries in routed:
            for label, payload in entries:
                assert packages[sid].index.entries[label] == payload


class TestShardPackageWire:
    """A shard's package crosses the wire as the one cloud install message."""

    @staticmethod
    def _shard_package(witnesses=None) -> CloudPackage:
        plan = HashShardPlan(3)
        sid = plan.shard_of(b"g1")
        routed = [(sid, [(b"label-a", b"payload-a"), (b"label-b", b"payload-b")])]
        per_shard = None if witnesses is None else [witnesses] * 3
        return split_package(plan, routed, [101, 103], 7, per_shard)[sid]

    def test_dump_load_roundtrip(self):
        pkg = self._shard_package()
        loaded = load_cloud_package(dump_cloud_package(pkg))
        assert loaded.index.entries == {b"label-a": b"payload-a", b"label-b": b"payload-b"}
        assert loaded.primes == [101, 103]
        assert loaded.accumulation == 7

    def test_roundtrip_keeps_owner_witnesses(self):
        pkg = self._shard_package({101: 5, 103: 2**70})
        assert load_cloud_package(dump_cloud_package(pkg)).witnesses == {101: 5, 103: 2**70}

    def test_roundtrip_without_witnesses(self):
        assert load_cloud_package(dump_cloud_package(self._shard_package())).witnesses is None

    def test_malformed_sections_raise_state_error(self):
        good = dump_cloud_package(CloudPackage(EncryptedIndex(), [101], 7, {101: 5}))
        state, witnesses = codec.unpack(good, b"cloud-install")
        odd_mapping = encode_parts(b"\x65")  # a key with no witness
        for blob in (
            codec.pack(b"cloud-install", state),  # no witness section
            codec.pack(b"cloud-install", state, odd_mapping),
            codec.pack(b"cloud-install", state, b"\xff"),  # not a part list
            codec.pack(b"cloud-install", b"junk", witnesses),
            good[:-3],  # truncated
        ):
            with pytest.raises(StateError):
                load_cloud_package(blob)


class TestEqualityRoute:
    def test_agrees_with_token_routing(self):
        """The query-side router must predict where real tokens land."""
        plan = HashShardPlan(4)
        prf_key = b"\x05" * 16
        route = equality_route(prf_key, 8, plan)
        for value in [0, 7, 41, 200, 255]:
            query = Query.parse(value, "=")
            keyword = equality_keyword(value, 8, "")
            g1, _ = derive_g1_g2(prf_key, keyword)
            assert route(query) == plan.shard_of(g1)
