"""Single-core crypto kernels: memoization and precomputation for hot primitives.

This module makes each process cheaper.  Three kernels, each byte-identical
to the code it replaces (property tests assert this), each reporting to
:mod:`repro.common.perfstats`:

* **Memoized ``H_prime``** — the deterministic counter walk (one digest +
  Miller-Rabin per candidate) re-runs for the *same* ``token‖hash`` bytes at
  the owner (Build), the cloud (search, per repeat query) and the verifier /
  gas-metering contract.  The memo stores ``(prime, counter)`` so cached hits
  still report the exact candidate count the contract charges gas for.
* **Fixed-base exponentiation** — the accumulator raises one fixed generator
  ``g`` to enormous exponents (products of thousands of prime
  representatives).  A per-``(n, g)`` table of ``g^(2^(w·j))`` turns each
  exponentiation into ~``bits/w`` multiplications via the bucket method,
  replacing ``pow``'s ~``bits`` squarings + ``bits/2`` multiplications.
* **Fixed-base comb** — the owner issues one witness per accumulated prime,
  each a ``g^e mod p`` and ``g^e mod q`` with ``e`` below the half modulus;
  a byte-digit table ``g^(d·2^(8j))`` makes each one a multiplication per
  exponent byte, with no squarings.

Every cache is **process-local** and keyed only on deterministic inputs.
``REPRO_KERNELS=0`` disables the layer (the benchmarks use
this for honest cold/warm comparisons).
"""

from __future__ import annotations

import os
import weakref

from ..common import perfstats
from . import modmath
from .hash_to_prime import HashToPrime

#: Environment knob: any of ``0/false/off/no`` disables the kernel layer.
KERNELS_ENV = "REPRO_KERNELS"

_DISABLED_VALUES = {"0", "false", "off", "no"}


def kernels_enabled() -> bool:
    """Whether the kernel layer is active (default: yes)."""
    return os.environ.get(KERNELS_ENV, "1").strip().lower() not in _DISABLED_VALUES


# ------------------------------------------------------------ memoized H_prime

#: Cap per-memo entries; beyond it the oldest entries are evicted (FIFO via
#: dict insertion order).  2^16 primes ≈ a few MB — far above any test or
#: benchmark working set, small enough to never matter for memory.
HASH_MEMO_MAX = 1 << 16

_HASH_MEMOS: dict[tuple[int, bytes], dict[bytes, tuple[int, int]]] = {}

#: Integers the ``H_prime`` walk itself certified prime in this process
#: (FIFO-capped like the memos, dropped with them), so the accumulator's
#: membership check need not re-run BPSW on a prime derived a moment ago.
_CERTIFIED: dict[int, None] = {}


def certified_prime(x: int) -> bool:
    """Whether ``x`` passed this process's ``H_prime`` primality walk."""
    return x in _CERTIFIED and kernels_enabled()


class MemoizedHashToPrime(HashToPrime):
    """``H_prime`` with a process-local memo keyed on the input bytes.

    The memo stores the full ``(prime, counter)`` pair, so
    :meth:`hash_to_prime_with_counter` is exact on hits: the simulated smart
    contract charges hashing gas per candidate and must see the same count
    warm as cold (``tests/crypto/test_hash_to_prime.py`` asserts parity).
    """

    def __init__(
        self,
        prime_bits: int,
        domain: bytes = b"H_prime",
        memo: dict[bytes, tuple[int, int]] | None = None,
    ) -> None:
        super().__init__(prime_bits, domain)
        self._memo = memo if memo is not None else {}

    def hash_to_prime_with_counter(self, data: bytes) -> tuple[int, int]:
        memo = self._memo
        cached = memo.get(data)
        if cached is not None:
            perfstats.incr("hash_to_prime.hit")
            return cached
        perfstats.incr("hash_to_prime.miss")
        result = super().hash_to_prime_with_counter(data)
        perfstats.incr("hash_to_prime.candidates", result[1])
        if len(memo) >= HASH_MEMO_MAX:
            del memo[next(iter(memo))]
        memo[data] = result
        if len(_CERTIFIED) >= HASH_MEMO_MAX:
            del _CERTIFIED[next(iter(_CERTIFIED))]
        _CERTIFIED[result[0]] = None
        return result


def memoized_hash_to_prime(prime_bits: int, domain: bytes = b"H_prime") -> MemoizedHashToPrime:
    """A :class:`MemoizedHashToPrime` sharing one memo per ``(bits, domain)``.

    Owner, cloud, verifier and contract all construct their own instances;
    sharing the memo per process is what makes the cloud's recomputation of
    a prime the owner already derived (or a repeat query re-derived) a hit.
    """
    memo = _HASH_MEMOS.setdefault((prime_bits, domain), {})
    return MemoizedHashToPrime(prime_bits, domain, memo)


# ----------------------------------------------------- fixed-base exponentiation

#: Below this exponent size the C-implemented ``pow`` wins over a
#: Python-level loop; above it the table method's ~w× fewer multiplications
#: dominate.  Tuned on the 512/1024-bit demo moduli (see bench_kernels.py).
FIXED_BASE_MIN_EXP_BITS = 2048

_FIXED_BASES: dict[tuple[int, int], "FixedBaseExp"] = {}


class FixedBaseExp:
    """Windowed fixed-base exponentiation ``g^x mod n`` for one ``(g, n)``.

    Maintains tables ``T_w[j] = g^(2^(w·j)) mod n`` (extended incrementally
    as larger exponents arrive) and evaluates ``g^x`` with the bucket
    method: split ``x`` into base-``2^w`` digits, multiply each table entry
    into its digit's bucket, then fold the buckets with the running-suffix
    trick.  Cost ≈ ``bits(x)/w`` multiplications + ``2·2^w`` fold steps,
    versus ``bits(x)`` squarings + ``bits(x)/2`` multiplications for plain
    square-and-multiply — the win grows with the exponent, which for the
    accumulator is a product of thousands of prime representatives.
    """

    __slots__ = ("base", "modulus", "_tables")

    def __init__(self, base: int, modulus: int) -> None:
        self.base = base % modulus
        self.modulus = modulus
        self._tables: dict[int, list[int]] = {}

    def _table(self, window: int, digits: int) -> list[int]:
        table = self._tables.setdefault(window, [self.base])
        n = self.modulus
        while len(table) < digits:
            value = table[-1]
            for _ in range(window):
                value = value * value % n
            table.append(value)
            perfstats.incr("fixed_base.table_extensions")
        return table

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` — identical value to built-in pow."""
        if exponent < 0:
            raise ValueError("fixed-base exponent must be non-negative")
        bits = exponent.bit_length()
        if bits < FIXED_BASE_MIN_EXP_BITS:
            perfstats.incr("fixed_base.builtin_pow")
            return modmath.powmod(self.base, exponent, self.modulus)
        perfstats.incr("fixed_base.table_pow")
        window = 8 if bits >= 8192 else 4
        mask = (1 << window) - 1
        n = self.modulus
        # Digit extraction must be O(bits): repeated `e >>= window` on a
        # multi-hundred-kilobit exponent is quadratic (each shift copies the
        # whole integer) and would swallow the table's entire win.  to_bytes
        # is one C-level pass; little-endian bytes ARE the base-256 digits.
        raw = exponent.to_bytes((bits + 7) // 8, "little")
        if window == 8:
            digits: bytes | list[int] = raw
        else:
            digits = []
            for byte in raw:
                digits.append(byte & 15)
                digits.append(byte >> 4)
            if digits and digits[-1] == 0:
                digits.pop()
        table = self._table(window, len(digits))
        # Bucket accumulation: bucket[d] multiplies every g^(2^(w·j)) whose
        # digit is d; the suffix fold then contributes bucket[d]^d.  Table
        # state is plain int (cache-export safe); operands are wrapped here
        # so a native backend accelerates the inner multiplications.
        backend = modmath.active_backend()
        if backend.native:
            n = backend.wrap(n)
            table = [backend.wrap(t) for t in table]
        one = backend.wrap(1)
        buckets = [one] * (1 << window)
        for j, d in enumerate(digits):
            if d:
                buckets[d] = buckets[d] * table[j] % n
        acc = one
        result = one
        for d in range(mask, 0, -1):
            acc = acc * buckets[d] % n
            result = result * acc % n
        return backend.unwrap(result)


def fixed_base_pow(base: int, modulus: int, exponent: int) -> int:
    """``base^exponent mod modulus`` through the per-process table cache.

    Falls back to a single backend ``powmod`` when the kernel layer is
    disabled, so call sites need no gating of their own.
    """
    if not kernels_enabled():
        return modmath.powmod(base, exponent, modulus)
    key = (base, modulus)
    kernel = _FIXED_BASES.get(key)
    if kernel is None:
        kernel = _FIXED_BASES[key] = FixedBaseExp(base, modulus)
    return kernel.pow(exponent)


# --------------------------------------------------- fixed-base comb (owner)

_COMBS: dict[tuple[int, int], "FixedBaseComb"] = {}


class FixedBaseComb:
    """Byte-digit comb ``T[j][d] = base^(d·2^(8j)) mod modulus``.

    Built for exponents below ``modulus`` (the owner's witness exponents
    live mod ``p−1`` / ``q−1``), so ``g^e`` is one table multiplication per
    nonzero byte of ``e`` and no squarings: 32 multiplications for a
    256-bit half modulus.  The table holds ``bytes(modulus) × 256`` entries
    (~0.5 MB per 256-bit half).
    """

    __slots__ = ("modulus", "_rows")

    def __init__(self, base: int, modulus: int) -> None:
        self.modulus = modulus
        rows = []
        step = base % modulus
        for _ in range((modulus.bit_length() + 7) // 8):
            row = [1, step]
            for _ in range(254):
                row.append(row[-1] * step % modulus)
            rows.append(row)
            step = row[-1] * step % modulus  # step^256
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` for ``0 <= exponent < modulus``."""
        n = self.modulus
        result = 1
        for row, digit in zip(self._rows, exponent.to_bytes(len(self._rows), "little")):
            if digit:
                result = result * row[digit] % n
        return result


def comb_pows(base: int, modulus: int, exponents: list[int]) -> list[int]:
    """``[base^e mod modulus for e in exponents]`` through a cached comb.

    Every exponent must be reduced below ``modulus``.  With the kernel
    layer disabled each value is one backend ``powmod``.
    """
    if not kernels_enabled():
        return [modmath.powmod(base, e, modulus) for e in exponents]
    key = (base, modulus)
    comb = _COMBS.get(key)
    if comb is None:
        comb = _COMBS[key] = FixedBaseComb(base, modulus)
        perfstats.incr("comb.table_builds")
    perfstats.incr("comb.pow", len(exponents))
    return [comb.pow(e) for e in exponents]


# ------------------------------------------------ wNAF witness exponentiation

#: Below this exponent size built-in ``pow``'s C loop wins; above it the
#: signed-digit recoding's ~2× fewer multiplications (vs. ``pow``'s 5-bit
#: unsigned window) pay for the Python-level loop.  The split root-factor
#: witness tree crosses this threshold at its top levels, where each node
#: exponent is a product of hundreds of prime representatives.
WNAF_MIN_EXP_BITS = 1 << 14

#: Exponents at or above this many bits use window 7 instead of 6.
WNAF_LARGE_EXP_BITS = 1 << 18


def wnaf_digits(exponent: int, window: int = 6) -> list[int]:
    """Width-``window`` non-adjacent form of ``exponent``, least digit first.

    Digits are 0 or odd with ``|d| < 2^(window-1)``, and every nonzero digit
    is followed by at least ``window - 1`` zeros — so an exponentiation pays
    one table multiplication per ``window`` squarings on average, and only
    odd powers of the base need precomputing.

    The recoding is O(bits): one C-level ``bin()`` pass plus small-int
    arithmetic per position.  (The textbook loop ``e -= d; e >>= 1`` on the
    bignum itself is quadratic — each shift copies the whole integer — and
    measurably *slower* than built-in ``pow`` at witness-tree sizes.)
    """
    if exponent < 0:
        raise ValueError("wNAF exponent must be non-negative")
    if not 2 <= window <= 12:
        raise ValueError("wNAF window must be in [2, 12]")
    if exponent == 0:
        return []
    bits = bin(exponent)[2:][::-1]
    nbits = len(bits)
    width = 1 << window
    half = width >> 1
    digits: list[int] = []
    append = digits.append
    carry = 0
    i = 0
    while i < nbits or carry:
        cur = carry + (1 if i < nbits and bits[i] == "1" else 0)
        if not cur & 1:
            append(0)
            carry = cur >> 1
            i += 1
            continue
        # Odd position: absorb a full window of bits (plus the carry) into
        # one signed odd digit; a high digit borrows from the next window.
        chunk = carry + int(bits[i:i + window][::-1] or "0", 2)
        d = chunk & (width - 1)
        if d >= half:
            d -= width
            carry = 1
        else:
            carry = 0
        append(d)
        for _ in range(window - 1):
            append(0)
        i += window
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


class WNafExp:
    """Signed-window exponentiation ``base^x mod n`` for one ``(base, n)``.

    Precomputes the odd powers ``base^1, base^3, …`` and their inverses
    (one extended-gcd for ``base^{-1}``, then multiplications), then walks
    the wNAF digit string with one squaring per digit.  Negative digits are
    what make the window *signed*: they halve the table size and reduce
    multiplications versus an unsigned window of the same width.

    Raises ``ValueError`` from table construction when ``base`` is not
    invertible mod ``n`` — for an RSA modulus that means ``gcd`` found a
    factor; callers fall back to plain ``powmod``.
    """

    __slots__ = ("base", "modulus", "_inverse", "_tables")

    def __init__(self, base: int, modulus: int) -> None:
        self.base = base % modulus
        self.modulus = modulus
        self._inverse: int | None = None
        self._tables: dict[int, tuple[list[int], list[int]]] = {}

    def _table(self, window: int) -> tuple[list[int], list[int]]:
        tab = self._tables.get(window)
        if tab is None:
            n = self.modulus
            if self._inverse is None:
                self._inverse = modmath.invert(self.base, n)
            count = 1 << (window - 2)  # odd powers 1, 3, ..., 2^(window-1) - 1
            base_sq = self.base * self.base % n
            inv_sq = self._inverse * self._inverse % n
            pos = [self.base]
            neg = [self._inverse]
            for _ in range(count - 1):
                pos.append(pos[-1] * base_sq % n)
                neg.append(neg[-1] * inv_sq % n)
            tab = (pos, neg)
            self._tables[window] = tab
            perfstats.incr("wnaf.table_builds")
        return tab

    def pow(self, exponent: int, window: int | None = None) -> int:
        """``base^exponent mod modulus`` — identical value to built-in pow."""
        if exponent < 0:
            raise ValueError("wNAF exponent must be non-negative")
        n = self.modulus
        if exponent == 0:
            return 1 % n
        if window is None:
            window = 7 if exponent.bit_length() >= WNAF_LARGE_EXP_BITS else 6
        pos, neg = self._table(window)
        result = 1
        for d in reversed(wnaf_digits(exponent, window)):
            result = result * result % n
            if d > 0:
                result = result * pos[(d - 1) >> 1] % n
            elif d:
                result = result * neg[(-d - 1) >> 1] % n
        return result


#: Single-slot kernel cache: the root-factor recursion raises the *same*
#: node value to two sibling exponents back to back, so one slot captures
#: the table reuse without growing state (every tree node has a new base).
_WNAF_LAST: WNafExp | None = None


def witness_pow(base: int, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` for witness-tree nodes.

    Routes to wNAF when the kernel layer is on, the backend is pure python
    and the exponent is large enough to beat built-in ``pow``; a native
    backend's ``powmod`` already wins, so wNAF never engages there.
    """
    if exponent < 0:
        raise ValueError("witness exponent must be non-negative")
    global _WNAF_LAST
    if (
        not kernels_enabled()
        or modmath.active_backend().native
        or exponent.bit_length() < WNAF_MIN_EXP_BITS
    ):
        return modmath.powmod(base, exponent, modulus)
    kernel = _WNAF_LAST
    if kernel is None or kernel.modulus != modulus or kernel.base != base % modulus:
        kernel = WNafExp(base, modulus)
        _WNAF_LAST = kernel
    try:
        result = kernel.pow(exponent)
    except ValueError:
        # Base not invertible: gcd(base, modulus) > 1 would factor an RSA
        # modulus — never expected, but correctness cannot depend on that.
        perfstats.incr("wnaf.noninvertible_fallback")
        return modmath.powmod(base, exponent, modulus)
    perfstats.incr("wnaf.pow")
    return result


# ------------------------------------------------------------------- lifecycle

def hash_memo_items(prime_bits: int, domain: bytes = b"H_prime") -> list:
    """Snapshot of one ``H_prime`` memo's entries, in insertion order.

    Serves warm-restart checkpoints (the cloud persists its memo slice and
    feeds it back through :func:`load_hash_memo` on reopen); insertion order
    is preserved so FIFO eviction behaves identically after a restart.
    """
    memo = _HASH_MEMOS.get((prime_bits, domain))
    return list(memo.items()) if memo else []


def load_hash_memo(prime_bits: int, items, domain: bytes = b"H_prime") -> None:
    """Reload a :func:`hash_memo_items` snapshot (warm restart).

    First write wins under the FIFO cap, and no counter moves: the memo
    caches a pure deterministic function, so an entry already present
    carries the same value, and loading is state transfer, not cache
    activity.
    """
    memo = _HASH_MEMOS.setdefault((prime_bits, domain), {})
    for key, value in items:
        if key not in memo:
            if len(memo) >= HASH_MEMO_MAX:
                del memo[next(iter(memo))]
            memo[key] = value


#: Live per-instance caches owned outside this module — the clouds'
#: epoch-suffix entry caches, which enrol themselves (crypto cannot import
#: core) so :func:`clear_caches` and :func:`cache_sizes` reach them.  Weak,
#: so a discarded cloud never pins its cache.
_INSTANCE_CACHES: "weakref.WeakSet" = weakref.WeakSet()


def track_instance_cache(cache) -> None:
    """Enrol a cache with ``clear()`` / ``len()`` in the lifecycle calls."""
    _INSTANCE_CACHES.add(cache)


def clear_caches() -> None:
    """Drop every process-local kernel cache (benchmarks' cold-path reset)."""
    global _WNAF_LAST
    _HASH_MEMOS.clear()
    _CERTIFIED.clear()
    _FIXED_BASES.clear()
    _COMBS.clear()
    _WNAF_LAST = None
    for cache in list(_INSTANCE_CACHES):
        cache.clear()


def cache_sizes() -> dict[str, int]:
    """Entry counts per cache family — reported next to benchmark timings."""
    sizes = {
        "hash_to_prime": sum(len(m) for m in _HASH_MEMOS.values()),
        "fixed_base_tables": sum(
            len(t) for kernel in _FIXED_BASES.values() for t in kernel._tables.values()
        ),
        "comb_tables": sum(len(comb._rows) * 256 for comb in _COMBS.values()),
        "wnaf_tables": 0
        if _WNAF_LAST is None
        else sum(len(pos) + len(neg) for pos, neg in _WNAF_LAST._tables.values()),
        "entry_cache": sum(len(cache) for cache in list(_INSTANCE_CACHES)),
    }
    return sizes
