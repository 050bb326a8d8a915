"""Crypto kernels: every memoized/precomputed path is byte-identical to the
primitive it replaces, caches report hits honestly, and the env knob works."""

import pytest

from repro.common import perfstats
from repro.common.rng import default_rng
from repro.crypto import kernels
from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.hash_to_prime import HashToPrime
from repro.crypto.kernels import (
    FIXED_BASE_MIN_EXP_BITS,
    FixedBaseComb,
    FixedBaseExp,
    MemoizedHashToPrime,
    comb_pows,
    fixed_base_pow,
    memoized_hash_to_prime,
)


@pytest.fixture(scope="module")
def acc_params():
    return AccumulatorParams.demo(512)


class TestMemoizedHashToPrime:
    def test_matches_cold_walk(self):
        cold = HashToPrime(64)
        warm = MemoizedHashToPrime(64)
        for i in range(30):
            data = i.to_bytes(4, "big")
            assert warm.hash_to_prime_with_counter(data) == cold.hash_to_prime_with_counter(data)

    def test_hit_returns_same_pair(self):
        warm = MemoizedHashToPrime(64)
        first = warm.hash_to_prime_with_counter(b"repeat")
        perfstats.reset("hash_to_prime.")
        assert warm.hash_to_prime_with_counter(b"repeat") == first
        assert perfstats.get("hash_to_prime.hit") == 1
        assert perfstats.get("hash_to_prime.miss") == 0

    def test_miss_counts_candidates(self):
        warm = MemoizedHashToPrime(64)
        perfstats.reset("hash_to_prime.")
        _, counter = warm.hash_to_prime_with_counter(b"cold input")
        assert perfstats.get("hash_to_prime.miss") == 1
        assert perfstats.get("hash_to_prime.candidates") == counter

    def test_shared_memo_across_instances(self):
        memo: dict = {}
        a = MemoizedHashToPrime(64, memo=memo)
        b = MemoizedHashToPrime(64, memo=memo)
        a(b"shared")
        perfstats.reset("hash_to_prime.")
        b(b"shared")
        assert perfstats.get("hash_to_prime.hit") == 1

    def test_factory_shares_per_bits_and_domain(self):
        kernels.clear_caches()
        memoized_hash_to_prime(64)(b"payload")
        perfstats.reset("hash_to_prime.")
        memoized_hash_to_prime(64)(b"payload")  # fresh instance, same memo
        assert perfstats.get("hash_to_prime.hit") == 1
        memoized_hash_to_prime(64, domain=b"other")(b"payload")  # separate memo
        assert perfstats.get("hash_to_prime.miss") == 1

    def test_eviction_keeps_results_correct(self, monkeypatch):
        monkeypatch.setattr(kernels, "HASH_MEMO_MAX", 4)
        warm = MemoizedHashToPrime(64)
        cold = HashToPrime(64)
        inputs = [i.to_bytes(4, "big") for i in range(12)]
        for data in inputs + inputs:  # second pass re-derives evicted entries
            assert warm(data) == cold(data)
        assert len(warm._memo) <= 4


class TestFixedBaseExp:
    def test_small_exponents_match_pow(self, acc_params):
        kernel = FixedBaseExp(acc_params.generator, acc_params.modulus)
        for exp in [0, 1, 2, 3, 17, 1 << 64, (1 << 512) - 1]:
            assert kernel.pow(exp) == pow(acc_params.generator, exp, acc_params.modulus)

    @pytest.mark.parametrize(
        "bits",
        [
            FIXED_BASE_MIN_EXP_BITS - 1,  # last builtin-pow exponent
            FIXED_BASE_MIN_EXP_BITS,  # first table exponent (window 4)
            8192,  # window-8 regime
        ],
    )
    def test_table_path_matches_pow_across_threshold(self, acc_params, bits):
        rng = default_rng(bits)
        kernel = FixedBaseExp(acc_params.generator, acc_params.modulus)
        for _ in range(3):
            exp = (1 << (bits - 1)) | rng.randbits(bits - 1)
            assert exp.bit_length() == bits
            assert kernel.pow(exp) == pow(acc_params.generator, exp, acc_params.modulus)

    def test_table_reused_and_extended(self, acc_params):
        kernel = FixedBaseExp(acc_params.generator, acc_params.modulus)
        perfstats.reset("fixed_base.")
        kernel.pow(1 << FIXED_BASE_MIN_EXP_BITS)
        first_extensions = perfstats.get("fixed_base.table_extensions")
        assert first_extensions > 0
        kernel.pow(1 << FIXED_BASE_MIN_EXP_BITS)  # same size: table fully reused
        assert perfstats.get("fixed_base.table_extensions") == first_extensions
        kernel.pow(1 << (2 * FIXED_BASE_MIN_EXP_BITS))  # larger: extend, don't rebuild
        assert perfstats.get("fixed_base.table_extensions") > first_extensions
        assert perfstats.get("fixed_base.table_pow") == 3

    def test_negative_exponent_rejected(self, acc_params):
        kernel = FixedBaseExp(acc_params.generator, acc_params.modulus)
        with pytest.raises(ValueError):
            kernel.pow(-1)

    def test_module_cache_and_disable_knob(self, acc_params, monkeypatch):
        g, n = acc_params.generator, acc_params.modulus
        exp = 3 << FIXED_BASE_MIN_EXP_BITS
        expected = pow(g, exp, n)
        monkeypatch.setenv(kernels.KERNELS_ENV, "1")
        kernels.clear_caches()
        assert fixed_base_pow(g, n, exp) == expected
        assert kernels.cache_sizes()["fixed_base_tables"] > 0
        monkeypatch.setenv(kernels.KERNELS_ENV, "0")
        kernels.clear_caches()
        assert fixed_base_pow(g, n, exp) == expected  # plain pow fallback
        assert kernels.cache_sizes()["fixed_base_tables"] == 0


class TestFixedBaseComb:
    def test_matches_builtin_pow(self, acc_params):
        p = acc_params.p
        base = acc_params.generator % p
        comb = FixedBaseComb(base, p)
        rng = default_rng(12)
        exponents = [0, 1, 255, 256, p - 2] + [rng.randrange(0, p - 1) for _ in range(20)]
        assert [comb.pow(e) for e in exponents] == [pow(base, e, p) for e in exponents]

    def test_comb_pows_cached_and_cleared(self, acc_params):
        p = acc_params.p
        kernels.clear_caches()
        assert comb_pows(5, p, [3, 7]) == [pow(5, 3, p), pow(5, 7, p)]
        rows = (p.bit_length() + 7) // 8 if kernels.kernels_enabled() else 0
        assert kernels.cache_sizes()["comb_tables"] == 256 * rows
        kernels.clear_caches()
        assert kernels.cache_sizes()["comb_tables"] == 0


class TestLifecycle:
    def test_clear_caches_empties_everything(self, acc_params):
        certified = memoized_hash_to_prime(64)(b"fill")
        fixed_base_pow(acc_params.generator, acc_params.modulus, 1 << FIXED_BASE_MIN_EXP_BITS)
        assert any(kernels.cache_sizes().values())
        assert kernels.certified_prime(certified) == kernels.kernels_enabled()
        kernels.clear_caches()
        sizes = kernels.cache_sizes()
        # Registered cache families (e.g. the cloud's entry cache) append
        # their own keys; everything must read empty after a clear.
        assert sizes["hash_to_prime"] == 0
        assert sizes["fixed_base_tables"] == 0
        assert all(count == 0 for count in sizes.values())
        assert not kernels.certified_prime(certified)

    @pytest.mark.parametrize("value,expected", [
        ("0", False), ("false", False), ("OFF", False), ("no", False),
        ("1", True), ("on", True), ("", True),
    ])
    def test_env_knob(self, monkeypatch, value, expected):
        monkeypatch.setenv(kernels.KERNELS_ENV, value)
        assert kernels.kernels_enabled() is expected

    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        assert kernels.kernels_enabled()


class TestWnafDigits:
    def test_zero_exponent_is_empty(self):
        assert kernels.wnaf_digits(0) == []

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            kernels.wnaf_digits(-5)

    @pytest.mark.parametrize("window", [1, 13, 0])
    def test_window_out_of_range_rejected(self, window):
        with pytest.raises(ValueError):
            kernels.wnaf_digits(100, window)

    @pytest.mark.parametrize("window", [2, 3, 6, 12])
    def test_recoding_invariants(self, window):
        """Digits reconstruct the exponent; nonzero digits are odd, bounded
        by 2^(w-1), and separated by at least w-1 zeros."""
        rng = default_rng(17)
        exponents = [1, 2, 3, (1 << window) - 1, 1 << window] + [
            rng.randbits(bits) for bits in (16, 64, 300, 1200) for _ in range(4)
        ]
        half = 1 << (window - 1)
        for e in exponents:
            digits = kernels.wnaf_digits(e, window)
            assert sum(d << i for i, d in enumerate(digits)) == e, (e, window)
            if e:
                assert digits[-1] != 0  # no trailing zeros
            last_nonzero = None
            for i, d in enumerate(digits):
                if d == 0:
                    continue
                assert d % 2 == 1 or d % 2 == -1
                assert -half < d < half
                if last_nonzero is not None:
                    assert i - last_nonzero >= window - 1
                last_nonzero = i


class TestWitnessPow:
    def test_small_exponents_match_pow(self, acc_params):
        n, g = acc_params.modulus, acc_params.generator
        for e in (0, 1, 2, 3, 65537, 1 << 100):
            assert kernels.witness_pow(g, e, n) == pow(g, e, n)

    def test_large_exponent_matches_pow(self, acc_params):
        """Above WNAF_MIN_EXP_BITS the wNAF kernel engages; result must be
        bit-identical to the builtin."""
        n, g = acc_params.modulus, acc_params.generator
        rng = default_rng(23)
        kernels.clear_caches()
        before = perfstats.STATS.get("wnaf.pow")
        for _ in range(3):
            e = rng.randbits(kernels.WNAF_MIN_EXP_BITS + 57) | 1
            assert kernels.witness_pow(g, e, n) == pow(g, e, n)
        from repro.crypto import modmath

        if kernels.kernels_enabled() and not modmath.active_backend().native:
            assert perfstats.STATS.get("wnaf.pow") - before == 3

    def test_negative_exponent_rejected(self, acc_params):
        with pytest.raises(ValueError):
            kernels.witness_pow(2, -1, acc_params.modulus)

    def test_noninvertible_base_falls_back(self):
        """wNAF needs base^-1; a base sharing a factor with the modulus must
        fall back to the builtin, not crash."""
        e = (1 << kernels.WNAF_MIN_EXP_BITS) + 3
        before = perfstats.STATS.get("wnaf.noninvertible_fallback")
        assert kernels.witness_pow(5, e, 15) == pow(5, e, 15)
        if kernels.kernels_enabled():
            assert perfstats.STATS.get("wnaf.noninvertible_fallback") >= before

    def test_wnafexp_pow_matches_builtin(self, acc_params):
        n, g = acc_params.modulus, acc_params.generator
        exp = kernels.WNafExp(g, n)
        rng = default_rng(31)
        for e in (0, 1, 2, rng.randbits(2000), rng.randbits(20000)):
            assert exp.pow(e) == pow(g, e, n)
        # Explicit window override on the same cached tables.
        assert exp.pow(12345, window=3) == pow(g, 12345, n)

    def test_sibling_pair_reuses_table(self, acc_params):
        """root_factor raises one node value to both sibling exponents; the
        single-slot cache must build tables once per node, not per call."""
        if not kernels.kernels_enabled():
            pytest.skip("kernels disabled")
        from repro.crypto import modmath

        if modmath.active_backend().native:
            pytest.skip("wNAF only engages on the python backend")
        n, g = acc_params.modulus, acc_params.generator
        kernels.clear_caches()
        rng = default_rng(37)
        left = rng.randbits(kernels.WNAF_MIN_EXP_BITS + 10) | 1
        right = rng.randbits(kernels.WNAF_MIN_EXP_BITS + 11) | 1
        before = perfstats.STATS.get("wnaf.table_builds")
        kernels.witness_pow(g, left, n)
        kernels.witness_pow(g, right, n)
        assert perfstats.STATS.get("wnaf.table_builds") - before == 1

    def test_clear_caches_drops_wnaf_slot(self, acc_params):
        n, g = acc_params.modulus, acc_params.generator
        kernels.witness_pow(g, (1 << kernels.WNAF_MIN_EXP_BITS) + 5, n)
        kernels.clear_caches()
        assert kernels.cache_sizes()["wnaf_tables"] == 0
