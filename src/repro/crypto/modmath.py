"""Modular arithmetic helpers used by the accumulator and trapdoor permutation.

Pluggable backend layer
-----------------------

Every modexp/inverse/gcd in the crypto hot loop routes through a *backend*
object so a native bignum library can be swapped in without touching call
sites.  Two backends exist:

* ``python`` (default) — CPython's built-in ``pow``/``math.gcd``.  Always
  available; the byte-identity property tests run against it.
* ``gmpy2`` — GMP-backed ``powmod``/``invert``/``gcd``, selected with
  ``REPRO_MODMATH=gmpy2``.  Import-guarded: when gmpy2 is not installed the
  registry silently falls back to pure python (recorded in
  :func:`backend_info` and the ``modmath.backend.fallback`` counter), so the
  repo never *requires* a native dependency.

Backends are an execution knob, never a protocol input: both produce
bit-identical integers for every operation (GMP and CPython both implement
exact integer arithmetic), which the property suite in
``tests/properties/test_prop_modmath.py`` enforces end to end.  All state
that crosses process or cache boundaries stays plain ``int``; backends wrap
operands locally inside hot loops only.
"""

from __future__ import annotations

import math
import os

from ..common.errors import ParameterError
from ..common import perfstats

MODMATH_ENV = "REPRO_MODMATH"

try:  # pragma: no cover - exercised only on the gmpy2 CI leg
    import gmpy2 as _gmpy2
except ImportError:  # default: container has no native bignum library
    _gmpy2 = None


class ModmathBackend:
    """One bignum implementation: wrap/unwrap plus the four hot operations.

    ``wrap``/``unwrap`` convert between plain ``int`` and the backend's
    native integer type (identity for python).  Hot loops wrap operands once
    at entry so operator overloading stays native inside the loop, and unwrap
    results before they escape — persisted values are always plain ``int``.
    """

    __slots__ = ("name", "native", "wrap", "unwrap", "powmod", "invert", "gcd", "mul")

    def __init__(self, name, native, wrap, unwrap, powmod, invert, gcd, mul):
        self.name = name
        self.native = native
        self.wrap = wrap
        self.unwrap = unwrap
        self.powmod = powmod
        self.invert = invert
        self.gcd = gcd
        self.mul = mul


def _python_invert(a: int, n: int) -> int:
    return pow(a, -1, n)  # raises ValueError when not invertible


_PYTHON_BACKEND = ModmathBackend(
    name="python",
    native=False,
    wrap=lambda x: x,
    unwrap=lambda x: x,
    powmod=pow,
    invert=_python_invert,
    gcd=math.gcd,
    mul=lambda a, b: a * b,
)


def _make_gmpy2_backend() -> ModmathBackend:  # pragma: no cover - gmpy2 CI leg
    mpz = _gmpy2.mpz
    g_powmod = _gmpy2.powmod
    g_invert = _gmpy2.invert
    g_gcd = _gmpy2.gcd

    def powmod(base: int, exponent: int, modulus: int) -> int:
        return int(g_powmod(base, exponent, modulus))

    def invert(a: int, n: int) -> int:
        try:
            return int(g_invert(a, n))
        except ZeroDivisionError as exc:
            # Normalise to the ValueError pure python raises so callers see
            # one error surface regardless of backend.
            raise ValueError("base is not invertible for the given modulus") from exc

    def gcd(a: int, b: int) -> int:
        return int(g_gcd(a, b))

    def mul(a: int, b: int) -> int:
        return int(mpz(a) * b)

    return ModmathBackend(
        name="gmpy2",
        native=True,
        wrap=mpz,
        unwrap=int,
        powmod=powmod,
        invert=invert,
        gcd=gcd,
        mul=mul,
    )


_KNOWN_BACKENDS = ("python", "gmpy2")
_resolved: ModmathBackend | None = None
_override: str | None = None
_fallback_reason: str | None = None
_requested: str | None = None


def available_backends() -> list[str]:
    """Backend names importable in this interpreter."""
    names = ["python"]
    if _gmpy2 is not None:
        names.append("gmpy2")
    return names


def set_backend(name: str | None) -> None:
    """Force a backend for this process (tests/benchmarks), overriding the env.

    ``None`` clears the override and re-reads ``REPRO_MODMATH`` on next use.
    Unlike the env path, requesting an unavailable backend here raises — a
    test that *asks* for gmpy2 wants gmpy2, not a silent fallback.
    """
    global _override, _resolved, _fallback_reason, _requested
    if name is not None:
        if name not in _KNOWN_BACKENDS:
            raise ParameterError(f"unknown modmath backend {name!r}")
        if name == "gmpy2" and _gmpy2 is None:
            raise ParameterError("gmpy2 backend requested but gmpy2 is not installed")
    _override = name
    _resolved = None
    _fallback_reason = None
    _requested = None


def active_backend() -> ModmathBackend:
    """Resolve the active backend (override > env > python), cached."""
    global _resolved, _fallback_reason, _requested
    if _resolved is not None:
        return _resolved
    requested = _override if _override is not None else os.environ.get(MODMATH_ENV, "python")
    requested = (requested or "python").strip().lower()
    _requested = requested
    _fallback_reason = None
    if requested in ("", "python", "pure", "default"):
        _resolved = _PYTHON_BACKEND
    elif requested == "gmpy2":
        if _gmpy2 is None:
            _fallback_reason = "gmpy2 not installed"
            perfstats.STATS.incr("modmath.backend.fallback")
            _resolved = _PYTHON_BACKEND
        else:  # pragma: no cover - gmpy2 CI leg
            _resolved = _make_gmpy2_backend()
    else:
        raise ParameterError(
            f"unknown {MODMATH_ENV} value {requested!r}; expected one of {_KNOWN_BACKENDS}"
        )
    perfstats.STATS.incr(f"modmath.backend.{_resolved.name}")
    return _resolved


def backend_info() -> dict[str, str | None]:
    """Resolution record for reports: active name, requested name, fallback."""
    backend = active_backend()
    return {
        "active": backend.name,
        "requested": _requested,
        "fallback_reason": _fallback_reason,
        "available": ",".join(available_backends()),
    }


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` on the active backend."""
    return active_backend().powmod(base, exponent, modulus)


def invert(a: int, n: int) -> int:
    """``a^{-1} mod n`` on the active backend; ``ValueError`` when not invertible."""
    return active_backend().invert(a, n)


def gcd(a: int, b: int) -> int:
    return active_backend().gcd(a, b)


def mod_inverse(a: int, n: int) -> int:
    """Return ``a^{-1} mod n``; raises :class:`ParameterError` if it does not exist."""
    if n <= 0:
        raise ParameterError("modulus must be positive")
    try:
        return active_backend().invert(a, n)
    except ValueError as exc:
        raise ParameterError(f"{a} is not invertible modulo {n}") from exc


def crt_pair(r_p: int, p: int, r_q: int, q: int) -> int:
    """Chinese-remainder combine of two residues with coprime moduli.

    Returns the unique ``x mod p*q`` with ``x ≡ r_p (mod p)`` and
    ``x ≡ r_q (mod q)``.  Used to speed up RSA private operations.
    """
    if gcd(p, q) != 1:
        raise ParameterError("CRT moduli must be coprime")
    q_inv = mod_inverse(q, p)
    h = (q_inv * (r_p - r_q)) % p
    return (r_q + h * q) % (p * q)


def is_quadratic_residue(a: int, p: int) -> bool:
    """Euler criterion for an odd prime modulus ``p``."""
    if p < 3 or p % 2 == 0:
        raise ParameterError("Euler criterion needs an odd prime")
    a %= p
    if a == 0:
        return True
    return powmod(a, (p - 1) // 2, p) == 1


def product_mod(values: list[int], modulus: int) -> int:
    """Product of ``values`` reduced mod ``modulus`` (streaming, no bignum blowup)."""
    backend = active_backend()
    acc = backend.wrap(1)
    modulus = backend.wrap(modulus)
    for v in values:
        acc = (acc * v) % modulus
    return backend.unwrap(acc)


def product(values: list[int]) -> int:
    """Exact integer product via balanced multiplication (fast for many primes).

    The RSA accumulator exponent ``x_p = prod(X)`` can involve tens of
    thousands of 256-bit primes; a naive left fold is quadratic in the output
    size, while this divide-and-conquer tree keeps operands balanced.

    This is the *one* shared balanced-product helper; the accumulator's
    root-factor recursion and the cloud's batched witness generation all
    route through it (or :class:`ProductTree` for incremental sets).
    """
    if not values:
        return 1
    backend = active_backend()
    layer = [backend.wrap(v) for v in values] if backend.native else list(values)
    while len(layer) > 1:
        nxt = [layer[i] * layer[i + 1] for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return backend.unwrap(layer[0])


class ProductTree:
    """Incrementally maintained balanced product over a growing value list.

    The cloud's witness generation needs ``prod(X)`` for the *current* prime
    list on every query; recomputing it is ``O(|X|^2)`` bit work over a
    session, and the seed code's running product (multiply one prime at a
    time) is no better asymptotically.  This structure keeps a binary-counter
    forest of subtree products (one per set bit of ``len(values)``), so

    * appending ``k`` values costs ``O(k log k)`` amortised bit operations
      (equal-size subtrees merge like a carry chain), and
    * the full product is one cached ``O(log n)``-operand balanced multiply,
      invalidated only when values are appended.

    Values are never removed — matching the accumulator's append-only prime
    list (Slicer deletes via a second instance, not removal).

    Forest state is stored as plain ``int`` so it reads the same on any
    backend; subtree merges go through the active backend's multiplier so
    large carries benefit from native bignums.
    """

    __slots__ = ("_forest", "_count", "_root")

    def __init__(self, values: list[int] | None = None) -> None:
        self._forest: list[tuple[int, int]] = []  # (leaf count, subtree product)
        self._count = 0
        self._root: int | None = None
        if values:
            self.extend(values)

    def append(self, value: int) -> None:
        """Absorb one value (amortised ``O(log n)`` subtree merges)."""
        mul = active_backend().mul
        self._forest.append((1, value))
        self._count += 1
        self._root = None
        while len(self._forest) >= 2 and self._forest[-1][0] == self._forest[-2][0]:
            size_b, prod_b = self._forest.pop()
            size_a, prod_a = self._forest.pop()
            self._forest.append((size_a + size_b, mul(prod_a, prod_b)))

    def extend(self, values: list[int]) -> None:
        for value in values:
            self.append(value)

    def __len__(self) -> int:
        return self._count

    @property
    def root(self) -> int:
        """The exact product of every appended value (1 when empty), cached."""
        if self._root is None:
            self._root = product([prod for _, prod in self._forest])
        return self._root
