"""H_prime: determinism, primality, fixed size, collision behaviour."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.common.errors import ParameterError
from repro.crypto.hash_to_prime import HashToPrime
from repro.crypto.kernels import MemoizedHashToPrime
from repro.crypto.primes import is_prime

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def h64():
    return HashToPrime(prime_bits=64)


class TestOutput:
    def test_prime(self, h64):
        for i in range(20):
            assert is_prime(h64(i.to_bytes(4, "big")))

    def test_exact_bit_length(self, h64):
        for i in range(20):
            assert h64(i.to_bytes(4, "big")).bit_length() == 64

    def test_deterministic(self, h64):
        assert h64(b"slicer") == h64(b"slicer")

    def test_input_sensitivity(self, h64):
        assert h64(b"a") != h64(b"b")

    def test_counter_exposed(self, h64):
        prime, count = h64.hash_to_prime_with_counter(b"slicer")
        assert prime == h64(b"slicer")
        assert count >= 1

    def test_distinct_inputs_rarely_collide(self, h64):
        outputs = {h64(i.to_bytes(4, "big")) for i in range(200)}
        assert len(outputs) == 200


class TestDomainSeparation:
    def test_different_domains_differ(self):
        a = HashToPrime(64, domain=b"A")
        b = HashToPrime(64, domain=b"B")
        assert a(b"x") != b(b"x")


class TestParams:
    def test_too_small(self):
        with pytest.raises(ParameterError):
            HashToPrime(prime_bits=8)

    def test_too_large(self):
        with pytest.raises(ParameterError):
            HashToPrime(prime_bits=1024)

    def test_256_bit_default(self):
        h = HashToPrime()
        p = h(b"x")
        assert p.bit_length() == 256
        assert is_prime(p)

    @pytest.mark.parametrize("bits", [16, 512])
    def test_boundary_widths_accepted(self, bits):
        """The smallest and largest supported widths produce exact-size
        primes — and the memoized kernel agrees at both extremes."""
        cold = HashToPrime(bits)
        warm = MemoizedHashToPrime(bits)
        for i in range(5):
            data = i.to_bytes(2, "big")
            p = cold(data)
            assert p.bit_length() == bits
            assert is_prime(p)
            assert warm.hash_to_prime_with_counter(data) == cold.hash_to_prime_with_counter(data)


class TestMemoizedParity:
    """The kernel memo must be observationally invisible: same prime AND
    same candidate counter warm as cold, so the simulated contract charges
    identical gas either way."""

    def test_counter_parity_warm_vs_cold(self, h64):
        warm = MemoizedHashToPrime(64)
        inputs = [i.to_bytes(4, "big") for i in range(40)]
        cold_pairs = [h64.hash_to_prime_with_counter(d) for d in inputs]
        first = [warm.hash_to_prime_with_counter(d) for d in inputs]  # misses
        second = [warm.hash_to_prime_with_counter(d) for d in inputs]  # hits
        assert first == cold_pairs
        assert second == cold_pairs

    def test_multibyte_counter_walks_are_cached_exactly(self, h64):
        """Find an input whose walk needs several candidates and check the
        memo reproduces that exact count on a hit."""
        warm = MemoizedHashToPrime(64)
        for i in range(200):
            data = b"walk" + i.to_bytes(2, "big")
            _, counter = h64.hash_to_prime_with_counter(data)
            if counter >= 3:
                assert warm.hash_to_prime_with_counter(data) == (
                    warm.hash_to_prime_with_counter(data)
                ) == h64.hash_to_prime_with_counter(data)
                return
        pytest.fail("no input with a multi-candidate walk in 200 tries")


class TestCrossProcessDeterminism:
    def test_fresh_interpreter_agrees_with_parent(self):
        """H_prime is a pure function of its input bytes: a freshly spawned
        interpreter (cold memo, its own hash seed) derives the same primes
        as this process.  Reopened segment stores rely on exactly this to
        recompute primes the owner derived elsewhere."""
        payloads = [b"proc" + i.to_bytes(4, "big") for i in range(8)]
        script = (
            "import sys\n"
            "from repro.crypto.kernels import memoized_hash_to_prime\n"
            "h = memoized_hash_to_prime(64)\n"
            "for line in sys.stdin.read().split():\n"
            "    print(h(bytes.fromhex(line)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="random")
        child = subprocess.run(
            [sys.executable, "-c", script],
            input="\n".join(p.hex() for p in payloads),
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=60,
        )
        parent = MemoizedHashToPrime(64)
        assert [int(line) for line in child.stdout.split()] == [
            parent(p) for p in payloads
        ]


class TestCounterAccounting:
    """The hprime.* counters must equal a manual replay of the pipeline over
    the exact candidate walk — they feed the exact-counter CI gate."""

    def test_counters_match_manual_replay(self, h64):
        from repro.common import perfstats
        from repro.crypto.primes import test_candidate as check_candidate

        payloads = [b"acct" + i.to_bytes(2, "big") for i in range(25)]
        expected = {"candidates": 0, "mr_rounds": 0, "lucas_tests": 0, "fast_rejects": 0}
        for data in payloads:
            counter = 0
            while True:
                verdict = check_candidate(h64._candidate(data, counter))
                expected["candidates"] += 1
                expected["mr_rounds"] += verdict.mr_rounds
                expected["lucas_tests"] += verdict.lucas_tests
                expected["fast_rejects"] += verdict.fast_reject
                if verdict.probable_prime:
                    break
                counter += 1

        before = perfstats.snapshot("hprime.")
        pairs = [h64.hash_to_prime_with_counter(data) for data in payloads]
        delta = {
            k.removeprefix("hprime."): v - before.get(k, 0)
            for k, v in perfstats.snapshot("hprime.").items()
        }
        assert delta == expected
        # The gas-visible counter walk and the candidate counter agree too.
        assert sum(count for _, count in pairs) == expected["candidates"]

    def test_fast_reject_dominates(self, h64):
        """The point of the pipeline: most candidates die before any real
        witness schedule runs (presieve or the single base-2 round)."""
        from repro.common import perfstats

        before = perfstats.snapshot("hprime.")
        for i in range(60):
            h64(b"dom" + i.to_bytes(2, "big"))
        after = perfstats.snapshot("hprime.")
        candidates = after["hprime.candidates"] - before.get("hprime.candidates", 0)
        fast = after["hprime.fast_rejects"] - before.get("hprime.fast_rejects", 0)
        mr = after["hprime.mr_rounds"] - before.get("hprime.mr_rounds", 0)
        assert fast / candidates > 0.6
        # Legacy pipeline cost was ~13 deterministic MR rounds per surviving
        # 64-bit candidate; the staged pipeline pays ~1 MR round per
        # non-presieved candidate plus one Lucas completion per prime.
        assert mr < candidates
