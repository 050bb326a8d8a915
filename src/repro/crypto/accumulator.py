"""RSA accumulator (paper Section III.B, following Li-Li-Xue [28]).

Provides constant-size set-membership proofs: the authenticated data
structure (ADS) Slicer stores on chain is a single group element
``Ac = g^{prod(X)} mod n`` over the prime-representative list ``X``; the
cloud proves a result set correct with the witness ``mw = g^{prod(X)/x}``
and the smart contract checks ``mw^x == Ac``.

Design notes
------------
* ``n = p*q`` with ``p, q`` *safe* primes and ``g`` a quadratic residue, so
  the strong-RSA assumption applies and witnesses cannot be forged.
* Safe-prime generation is slow in pure Python, so
  :meth:`AccumulatorParams.demo` returns fixed precomputed parameters for
  tests and benchmarks (clearly not for production — the factorisation is in
  the source).  :meth:`AccumulatorParams.generate` does a real trusted setup.
* The cloud does not know ``phi(n)``; its witness generation is the
  ``g^{prod(X \\ {x})}`` exponentiation.  :meth:`Accumulator.witness_all`
  computes witnesses for *every* element with the Sander-Ta-Shma /
  root-factor divide-and-conquer in ``O(|X| log |X|)`` exponentiations
  instead of ``O(|X|^2)`` — this is what makes the Fig. 5 VO-generation
  benchmark feasible at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import AccumulatorError, ParameterError
from ..common.rng import DeterministicRNG, default_rng
from . import kernels
from .modmath import mod_inverse, powmod, product
from .primes import is_prime, random_safe_prime

# Precomputed safe primes for demo/test parameter sets (generated once with
# repro's own `random_safe_prime`; see DESIGN.md Section 3).  NOT FOR
# PRODUCTION USE: the factorisation of the modulus is public here.
_DEMO_SAFE_PRIMES = {
    512: (
        0xF844257662CEC54E0B2B6B274292F92D8E2761C79BF848662092EC825ED01BAB,
        0xA252363211224274024C034527879257E2663936263F2EC0E8818B63737F276B,
    ),
    1024: (
        0xE3EC71C8976C46D8D9FD3C7A4213647D2A1E059B22FC1121995854A8A63A3CA193947B86C317A51AEA6E0E9E171D8FEE688A30036EB2268C25B80871F8860737,
        0x973ECFD4BD399D8E6274B32CACCCAD5D88C5C04A7ADCDE59DEB09C5C1E7606F15E239BA4B092CAB0097C63FB2505305F57BF9BF4C352601F6D8DBC1F3947951B,
    ),
    2048: (
        0xE68FB4A6476BA349BF96104C334CC5ED1FB0F7A70BCDB51B0BBF766A113C5E781839F3A259F396123CA39C9A8426970670F3321E51AE832F22A1C97449DA56B5EAE55CDDE013480AAC8FB7D9808BB9168B5E404E8B2416C1A988642418381723C9D11CEE2799E1788B3025B47021583A2BA2199E4A334E961C714CACC894B0AF,
        0x93A3BBDB9F901BB9361A8C17B2D19D009E10C302D4984DD9B5B5A0B495CE06755CC832C1416DDC3B633BAFCF1A41739F5FD4E055404F84FF1492930E3C7C9D211649A6B810EDC99F1FE453102FE5FDC462593FDF60722A3F50B34F8BF4A6BBFD2B11D9A8708A4630AF158A9A92A8A5D9B248D896D1F29C696E864ACE5CEEA8BB,
    ),
}


@dataclass(frozen=True)
class AccumulatorParams:
    """Public accumulator parameters ``(n, g)``.

    The optional trapdoor ``(p, q)`` is known only to the setup party; it is
    never needed by the protocol (the cloud computes witnesses from the
    prime list), but speeds up test fixtures via exponent reduction mod
    ``phi(n)``.
    """

    modulus: int
    generator: int
    p: int | None = None
    q: int | None = None

    def __post_init__(self) -> None:
        if self.modulus < 15:
            raise ParameterError("accumulator modulus too small")
        if not 1 < self.generator < self.modulus:
            raise ParameterError("generator out of range")
        if self.p is not None and self.q is not None and self.p * self.q != self.modulus:
            raise ParameterError("trapdoor does not factor the modulus")

    @property
    def bits(self) -> int:
        return self.modulus.bit_length()

    @property
    def has_trapdoor(self) -> bool:
        return self.p is not None and self.q is not None

    def phi(self) -> int:
        if not self.has_trapdoor:
            raise AccumulatorError("phi(n) requires the setup trapdoor")
        assert self.p is not None and self.q is not None
        return (self.p - 1) * (self.q - 1)

    def public(self) -> "AccumulatorParams":
        """Strip the trapdoor — what the cloud and the contract see."""
        return AccumulatorParams(self.modulus, self.generator)

    @classmethod
    def generate(
        cls, bits: int = 2048, rng: DeterministicRNG | None = None
    ) -> "AccumulatorParams":
        """Trusted setup with fresh safe primes (slow: minutes at 2048 bits)."""
        if bits < 32 or bits % 2:
            raise ParameterError("modulus bits must be even and >= 32")
        rng = rng or default_rng()
        half = bits // 2
        p = random_safe_prime(half, rng)
        q = random_safe_prime(half, rng)
        while q == p:  # pragma: no cover - astronomically unlikely
            q = random_safe_prime(half, rng)
        return cls._finish_setup(p, q, rng)

    @classmethod
    def demo(cls, bits: int = 1024, rng: DeterministicRNG | None = None) -> "AccumulatorParams":
        """Fixed precomputed parameters for tests/benchmarks (INSECURE)."""
        if bits not in _DEMO_SAFE_PRIMES:
            raise ParameterError(f"no demo parameters for {bits}-bit modulus")
        p, q = _DEMO_SAFE_PRIMES[bits]
        return cls._finish_setup(p, q, rng or default_rng(7))

    @classmethod
    def _finish_setup(cls, p: int, q: int, rng: DeterministicRNG) -> "AccumulatorParams":
        n = p * q
        # A uniform square is a quadratic residue; exclude the trivial 1.
        while True:
            a = rng.randrange(2, n - 1)
            g = pow(a, 2, n)
            if g not in (0, 1):
                return cls(n, g, p, q)


@dataclass(frozen=True)
class MembershipWitness:
    """Constant-size proof that one prime is in the accumulated set."""

    value: int

    def to_bytes(self, params: AccumulatorParams) -> bytes:
        width = (params.modulus.bit_length() + 7) // 8
        return self.value.to_bytes(width, "big")


class Accumulator:
    """Mutable accumulator over a multiset-free set of primes.

    Tracks the accumulated prime set ``X`` (the paper's list the owner ships
    to the cloud) and the current value ``Ac``.  All operations are public
    computations unless the params carry a trapdoor.
    """

    def __init__(self, params: AccumulatorParams, primes: list[int] | None = None) -> None:
        self.params = params
        self._primes: dict[int, None] = {}
        self._value = params.generator % params.modulus
        #: ``prod(X)`` mod ``p−1`` and mod ``q−1`` (trapdoor only): the
        #: exponents :meth:`issue_witnesses` needs, kept current per update.
        self._residues: tuple[int, int] | None = (1, 1) if params.has_trapdoor else None
        if primes:
            self.add_many(primes)

    @property
    def value(self) -> int:
        """The current accumulation value ``Ac``."""
        return self._value

    @property
    def primes(self) -> list[int]:
        """The accumulated prime set, in insertion order."""
        return list(self._primes)

    def __len__(self) -> int:
        return len(self._primes)

    def __contains__(self, x: int) -> bool:
        return x in self._primes

    def _check_prime(self, x: int) -> None:
        # An H_prime output this process just certified skips the re-test.
        if x < 3 or not (kernels.certified_prime(x) or is_prime(x)):
            raise AccumulatorError(f"accumulator elements must be odd primes, got {x}")

    def _scale_residues(self, factor: int) -> None:
        """Multiply the tracked ``prod(X)`` residues by ``factor``."""
        if self._residues is not None:
            p1, q1 = self.params.p - 1, self.params.q - 1
            rp, rq = self._residues
            self._residues = (rp * factor % p1, rq * factor % q1)

    def add(self, x: int) -> int:
        """Absorb prime ``x``; returns the new ``Ac``.  Idempotent per element."""
        self._check_prime(x)
        if x not in self._primes:
            self._primes[x] = None
            self._value = powmod(self._value, x, self.params.modulus)
            self._scale_residues(x)
        return self._value

    def add_many(self, xs: list[int]) -> int:
        """Absorb several primes with one combined exponentiation."""
        fresh = []
        for x in xs:
            self._check_prime(x)
            if x not in self._primes:
                self._primes[x] = None
                fresh.append(x)
        if fresh:
            exponent = product(fresh)
            if self.params.has_trapdoor:
                exponent %= self.params.phi()
                self._scale_residues(exponent)
            n = self.params.modulus
            if self._value == self.params.generator % n:
                # Fresh accumulator (Build's one big fold): the base is the
                # fixed generator, so the windowed table kernel applies.
                self._value = kernels.fixed_base_pow(self.params.generator, n, exponent)
            else:
                self._value = kernels.witness_pow(self._value, exponent, n)
        return self._value

    def remove(self, x: int) -> int:
        """Remove prime ``x`` (requires trapdoor or full recompute).

        With the setup trapdoor this is one exponentiation by ``x^{-1} mod
        phi(n)``; otherwise the value is recomputed from scratch.  Slicer
        never removes on chain (deletion uses a second instance), but the
        baselines and tests do.
        """
        if x not in self._primes:
            raise AccumulatorError(f"{x} is not accumulated")
        del self._primes[x]
        n = self.params.modulus
        if self.params.has_trapdoor:
            inv = mod_inverse(x, self.params.phi())
            self._value = powmod(self._value, inv, n)
            self._scale_residues(inv)
        else:
            self._value = kernels.fixed_base_pow(
                self.params.generator, n, product(list(self._primes))
            )
        return self._value

    def witness(self, x: int) -> MembershipWitness:
        """``MemWit``: witness for one accumulated prime (no trapdoor needed)."""
        if x not in self._primes:
            raise AccumulatorError(f"cannot produce membership witness for absent {x}")
        others = [p for p in self._primes if p != x]
        exponent = product(others)
        if self.params.has_trapdoor:
            exponent %= self.params.phi()
        return MembershipWitness(
            kernels.fixed_base_pow(self.params.generator, self.params.modulus, exponent)
        )

    def issue_witnesses(self) -> dict[int, int]:
        """Owner-side ``MemWit`` for every accumulated prime (trapdoor only).

        ``w_x = g^(prod(X)·x⁻¹ mod φ(n))``: since ``gcd(x, φ(n)) = 1`` it is
        the unique ``x``-th root of ``Ac``, hence the same value as the
        cloud's ``g^(prod(X)/x)``.  Each half is one fixed-base comb
        evaluation mod ``p`` / ``q`` (see
        :func:`~repro.crypto.kernels.comb_pows`), recombined by CRT.
        Returns ``{prime: witness value}``.
        """
        if self._residues is None:
            raise AccumulatorError("issuing witnesses requires the setup trapdoor")
        p, q = self.params.p, self.params.q
        assert p is not None and q is not None
        rp, rq = self._residues
        primes = list(self._primes)
        g = self.params.generator
        halves_p = kernels.comb_pows(g % p, p, [rp * pow(x, -1, p - 1) % (p - 1) for x in primes])
        halves_q = kernels.comb_pows(g % q, q, [rq * pow(x, -1, q - 1) % (q - 1) for x in primes])
        q_inv = pow(q, -1, p)
        return {
            x: wq + q * ((wp - wq) * q_inv % p)
            for x, wp, wq in zip(primes, halves_p, halves_q)
        }

    def witness_all(self) -> dict[int, MembershipWitness]:
        """Witnesses for every accumulated prime via root-factor recursion."""
        n = self.params.modulus
        raw = root_factor(self.params.generator % n, list(self._primes), n)
        return {p: MembershipWitness(w) for p, w in raw.items()}

def root_factor(base: int, primes: list[int], modulus: int) -> dict[int, int]:
    """Sander-Ta-Shma root-factor recursion: ``{p: base^(prod(primes)/p)}``.

    ``O(k log k)`` exponentiations for ``k`` primes instead of ``O(k^2)``.
    """
    out: dict[int, int] = {}
    if not primes:
        return out
    stack: list[tuple[int, list[int]]] = [(base, list(primes))]
    while stack:
        current, subset = stack.pop()
        if len(subset) == 1:
            out[subset[0]] = current
            continue
        mid = len(subset) // 2
        left, right = subset[:mid], subset[mid:]
        # Same node value raised to both sibling exponents: witness_pow's
        # single-slot wNAF kernel reuses the odd-power table across the pair.
        stack.append((kernels.witness_pow(current, product(right), modulus), left))
        stack.append((kernels.witness_pow(current, product(left), modulus), right))
    return out


def verify_membership(
    params: AccumulatorParams, accumulated: int, x: int, witness: MembershipWitness
) -> bool:
    """``VerifyMem``: check ``witness^x == Ac`` — what the contract runs."""
    if x < 2:
        return False
    return powmod(witness.value, x, params.modulus) == accumulated % params.modulus
