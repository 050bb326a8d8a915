"""RSA accumulator: membership algebra, witnesses, forgery resistance."""

import pytest

from repro.common.errors import AccumulatorError, ParameterError
from repro.common.rng import default_rng
from repro.crypto.accumulator import (
    Accumulator,
    AccumulatorParams,
    MembershipWitness,
    root_factor,
    verify_membership,
)
from repro.crypto.hash_to_prime import HashToPrime


@pytest.fixture(scope="module")
def params():
    return AccumulatorParams.demo(512)


@pytest.fixture(scope="module")
def primes():
    h = HashToPrime(64)
    return [h(i.to_bytes(4, "big")) for i in range(12)]


class TestSetup:
    def test_demo_params_factor(self, params):
        assert params.p * params.q == params.modulus
        assert params.has_trapdoor

    def test_public_strips_trapdoor(self, params):
        pub = params.public()
        assert not pub.has_trapdoor
        with pytest.raises(AccumulatorError):
            pub.phi()

    def test_generator_is_quadratic_residue(self, params):
        from repro.crypto.modmath import is_quadratic_residue

        assert is_quadratic_residue(params.generator % params.p, params.p)
        assert is_quadratic_residue(params.generator % params.q, params.q)

    def test_generate_small(self):
        fresh = AccumulatorParams.generate(64, default_rng(3))
        assert fresh.modulus.bit_length() in (63, 64)
        assert fresh.has_trapdoor

    def test_demo_unknown_size(self):
        with pytest.raises(ParameterError):
            AccumulatorParams.demo(768)

    @pytest.mark.parametrize("bits", [512, 1024, 2048])
    def test_demo_primes_are_safe_primes(self, bits):
        """The committed demo constants really are safe primes of the
        advertised size (guards against typos in the hex literals)."""
        from repro.crypto.primes import is_prime

        demo = AccumulatorParams.demo(bits)
        for p in (demo.p, demo.q):
            assert p is not None
            assert p.bit_length() == bits // 2
            assert is_prime(p, default_rng(1), rounds=8)
            assert is_prime((p - 1) // 2, default_rng(2), rounds=8)


class TestAccumulation:
    def test_add_order_independent(self, params, primes):
        a = Accumulator(params)
        a.add_many(primes)
        b = Accumulator(params)
        for p in reversed(primes):
            b.add(p)
        assert a.value == b.value

    def test_add_idempotent(self, params, primes):
        a = Accumulator(params, primes)
        before = a.value
        a.add(primes[0])
        assert a.value == before

    def test_rejects_composites(self, params):
        with pytest.raises(AccumulatorError):
            Accumulator(params).add(100)

    def test_trapdoorless_matches_trapdoor(self, params, primes):
        with_td = Accumulator(params, primes)
        without = Accumulator(params.public(), primes)
        assert with_td.value == without.value

    def test_remove(self, params, primes):
        acc = Accumulator(params, primes)
        acc.remove(primes[3])
        expected = Accumulator(params, [p for p in primes if p != primes[3]])
        assert acc.value == expected.value

    def test_remove_public_params(self, params, primes):
        acc = Accumulator(params.public(), primes[:5])
        acc.remove(primes[0])
        assert acc.value == Accumulator(params.public(), primes[1:5]).value

    def test_remove_absent_rejected(self, params, primes):
        with pytest.raises(AccumulatorError):
            Accumulator(params, primes[:3]).remove(primes[5])


class TestMembershipWitness:
    def test_witness_verifies(self, params, primes):
        acc = Accumulator(params.public(), primes)
        for x in primes[:4]:
            assert verify_membership(params, acc.value, x, acc.witness(x))

    def test_witness_for_absent_rejected(self, params, primes):
        acc = Accumulator(params, primes[:4])
        with pytest.raises(AccumulatorError):
            acc.witness(primes[7])

    def test_wrong_element_fails(self, params, primes):
        acc = Accumulator(params, primes)
        w = acc.witness(primes[0])
        assert not verify_membership(params, acc.value, primes[1], w)

    def test_forged_witness_fails(self, params, primes):
        acc = Accumulator(params, primes)
        forged = MembershipWitness(acc.witness(primes[0]).value + 1)
        assert not verify_membership(params, acc.value, primes[0], forged)

    def test_stale_accumulator_fails(self, params, primes):
        acc = Accumulator(params, primes[:5])
        w = acc.witness(primes[0])
        acc.add(primes[9])  # accumulator moves on
        assert not verify_membership(params, acc.value, primes[0], w)

    def test_witness_all_matches_individual(self, params, primes):
        acc = Accumulator(params.public(), primes[:7])
        batch = acc.witness_all()
        assert set(batch) == set(primes[:7])
        for x, w in batch.items():
            assert w.value == acc.witness(x).value

    def test_witness_all_empty(self, params):
        assert Accumulator(params).witness_all() == {}

    def test_witness_bytes_constant_size(self, params, primes):
        acc = Accumulator(params, primes)
        width = (params.modulus.bit_length() + 7) // 8
        assert len(acc.witness(primes[0]).to_bytes(params)) == width



class TestRootFactor:
    MOD = 0x8F2D5D0E3A7C1F4B66ADF6E52C07E109  # any odd modulus works here

    def test_matches_naive(self):
        primes = [3, 5, 7, 11, 13]
        naive = {p: pow(4, 3 * 5 * 7 * 11 * 13 // p, self.MOD) for p in primes}
        assert root_factor(4, primes, self.MOD) == naive

    def test_empty(self):
        assert root_factor(5, [], self.MOD) == {}

    def test_singleton(self):
        assert root_factor(5, [13], self.MOD) == {13: 5}


class TestIssueWitnesses:
    def test_equal_to_root_factor(self, params, primes):
        acc = Accumulator(params, primes)
        reference = root_factor(params.generator % params.modulus, primes, params.modulus)
        assert acc.issue_witnesses() == reference

    def test_track_add_and_remove(self, params, primes):
        acc = Accumulator(params, primes[:5])
        acc.add(primes[5])
        acc.add_many(primes[6:9])
        acc.remove(primes[2])
        live = acc.primes
        reference = root_factor(params.generator % params.modulus, live, params.modulus)
        assert acc.issue_witnesses() == reference

    def test_same_values_with_kernels_disabled(self, params, primes, monkeypatch):
        acc = Accumulator(params, primes)
        expected = acc.issue_witnesses()
        monkeypatch.setenv("REPRO_KERNELS", "0")
        assert acc.issue_witnesses() == expected

    def test_requires_trapdoor(self, params, primes):
        with pytest.raises(AccumulatorError):
            Accumulator(params.public(), primes).issue_witnesses()


class TestCertifiedPrimes:
    """``_check_prime`` trusts only integers the H_prime walk certified."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        from repro.crypto import accumulator, primes as primes_mod

        seen: list[int] = []

        def spy(n, *args, **kwargs):
            seen.append(n)
            return primes_mod.is_prime(n)

        monkeypatch.setattr(accumulator, "is_prime", spy)
        return seen

    def test_hprime_output_skips_retest(self, params, calls):
        from repro.crypto import kernels

        kernels.clear_caches()
        x = kernels.memoized_hash_to_prime(64)(b"certified-skip")
        Accumulator(params).add_many([x])
        assert calls == ([x] if not kernels.kernels_enabled() else [])

    def test_other_prime_still_tested(self, params, calls):
        from repro.crypto.primes import next_prime

        x = next_prime(1 << 63)
        Accumulator(params).add(x)
        assert calls == [x]

    def test_composite_still_rejected(self, params):
        from repro.crypto import kernels

        kernels.memoized_hash_to_prime(64)(b"certified-composite")
        with pytest.raises(AccumulatorError):
            Accumulator(params).add_many([(1 << 63) + 1])
