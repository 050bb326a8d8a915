"""Performance counters: the counter section of the metrics registry.

The kernels in :mod:`repro.crypto.kernels` memoize expensive primitives
(``H_prime`` walks, trapdoor-chain steps, fixed-base exponentiations).  A
cache that silently changes behaviour is a bug, and a cache whose hit rate
nobody can see is a guess — so every kernel reports hits, misses and raw
operation counts here, and the benchmarks print the rates next to their
timings.

Counters are *advisory instrumentation only*: no protocol logic may read
them and they carry no security meaning.  They are process-local.  The
overhead per increment is one dict operation, cheap enough for the hot
loops it instruments.

Naming convention: dotted ``area.event`` labels, with cache counters paired
as ``<cache>.hit`` / ``<cache>.miss`` so :func:`hit_rate` can derive rates
generically.  The richer registry (histograms, gauges, cross-process
snapshots) lives in :mod:`repro.obs.metrics` and shares this module's
:data:`STATS` store as its counter section.
"""

from __future__ import annotations


class PerfStats:
    """A flat registry of named monotonic counters."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self, prefix: str = "") -> dict[str, int]:
        """Copy of all counters (optionally only those under ``prefix``)."""
        if not prefix:
            return dict(self._counts)
        return {k: v for k, v in self._counts.items() if k.startswith(prefix)}

    def delta_since(self, baseline: dict[str, int]) -> dict[str, int]:
        """Per-counter difference against an earlier :meth:`snapshot`.

        Only changed counters appear.
        """
        return {
            k: v - baseline.get(k, 0)
            for k, v in self._counts.items()
            if v != baseline.get(k, 0)
        }

    def reset(self, prefix: str = "") -> None:
        """Zero every counter (or only those under ``prefix``)."""
        if not prefix:
            self._counts.clear()
            return
        for key in [k for k in self._counts if k.startswith(prefix)]:
            del self._counts[key]

    def hit_rate(self, cache: str) -> float | None:
        """``hit / (hit + miss)`` for a ``<cache>.hit``/``.miss`` pair.

        Returns ``None`` when the cache was never consulted — a disabled or
        never-reached cache is not the same signal as one that was consulted
        and always missed (0.0), and regression gates must not conflate
        them.  Reports print ``n/a`` for ``None``.
        """
        hits = self.get(f"{cache}.hit")
        misses = self.get(f"{cache}.miss")
        total = hits + misses
        return hits / total if total else None

    def rates(self) -> dict[str, float]:
        """Hit rate for every cache that recorded at least one lookup."""
        caches = {
            name.rsplit(".", 1)[0]
            for name in self._counts
            if name.endswith(".hit") or name.endswith(".miss")
        }
        out: dict[str, float] = {}
        for cache in sorted(caches):
            rate = self.hit_rate(cache)
            if rate is not None:
                out[cache] = rate
        return out


#: The process-wide registry every kernel reports to.
STATS = PerfStats()


def incr(name: str, amount: int = 1) -> None:
    STATS.incr(name, amount)


def get(name: str) -> int:
    return STATS.get(name)


def snapshot(prefix: str = "") -> dict[str, int]:
    return STATS.snapshot(prefix)


def delta_since(baseline: dict[str, int]) -> dict[str, int]:
    return STATS.delta_since(baseline)


def reset(prefix: str = "") -> None:
    STATS.reset(prefix)


def hit_rate(cache: str) -> float | None:
    return STATS.hit_rate(cache)


def rates() -> dict[str, float]:
    return STATS.rates()
