"""The metrics registry: counters + histograms + gauges.

This subsumes :mod:`repro.common.perfstats`: the registry's counter section
*is* the perfstats store (same dict, same names), so every existing
``perfstats.incr`` call site reports here without churn.  On top of
counters the registry adds

* **histograms** — fixed-bound bucket distributions for per-phase latency,
  result-set sizes and gas.  Bounds are explicit and deterministic, so two
  runs of the same workload produce byte-identical bucket counts for any
  value-deterministic metric (sizes, gas, attempts); only wall-clock
  histograms (named ``*_s`` by convention) vary between runs;
* **gauges** — last-write-wins point-in-time values (cache sizes, primes).

``REPRO_OBS=0`` disables histograms and gauges (observe/set become no-ops);
counters are exempt from the kill switch — they are one dict op each and
the regression gates rely on them.
"""

from __future__ import annotations

import bisect
import os

from ..common import perfstats
from ..common.perfstats import PerfStats

#: Environment kill switch: any of ``0/false/off/no`` disables the
#: observability layer (histograms, gauges, spans, audit appends).
OBS_ENV = "REPRO_OBS"

_DISABLED_VALUES = {"0", "false", "off", "no"}

#: Test/CLI override: ``True``/``False`` force the switch, ``None`` defers
#: to the environment.
_enabled_override: bool | None = None


def obs_enabled() -> bool:
    """Whether the observability layer is active (default: yes)."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(OBS_ENV, "1").strip().lower() not in _DISABLED_VALUES


def set_obs_enabled(value: bool | None) -> None:
    """Force the kill switch on/off (``None`` restores env-driven behaviour)."""
    global _enabled_override
    _enabled_override = value


#: Default histogram bounds: a 1-2-5 decade ladder wide enough for bytes,
#: entry counts, gas and (fractional) seconds alike.  Explicit bounds make
#: bucket counts machine-independent for value-deterministic metrics.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-6, 10) for m in (1, 2, 5)
)


class Histogram:
    """Fixed-bound bucket histogram with count and sum.

    Bucket ``i`` counts observations ``<= bounds[i]``; the final overflow
    bucket counts everything above the last bound.  Bounds never change
    after construction, so snapshots from different processes or runs are
    mergeable bucket-by-bucket.
    """

    __slots__ = ("bounds", "buckets", "count", "total")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Approximate quantile: the upper bound of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank and n:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.total,
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another process/run's snapshot in (bounds must match)."""
        if list(snap["bounds"]) != list(self.bounds):
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(snap["buckets"]):
            self.buckets[i] += n
        self.count += snap["count"]
        self.total += snap["sum"]


class MetricsRegistry:
    """Counters + histograms + gauges under dotted ``area.event`` names."""

    def __init__(self, counters: PerfStats | None = None) -> None:
        #: The counter store.  The global registry shares
        #: :data:`repro.common.perfstats.STATS` so both APIs see one truth.
        self.counters = counters if counters is not None else PerfStats()
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, float] = {}

    # ------------------------------------------------------------- counters

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters.incr(name, amount)

    def get(self, name: str) -> int:
        return self.counters.get(name)

    # ----------------------------------------------------------- histograms

    def observe(self, name: str, value: float, bounds: tuple[float, ...] | None = None) -> None:
        """Record one observation (no-op when the layer is disabled)."""
        if not obs_enabled():
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds or DEFAULT_BOUNDS)
        hist.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    # --------------------------------------------------------------- gauges

    def set_gauge(self, name: str, value: float) -> None:
        if not obs_enabled():
            return
        self._gauges[name] = value

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    # ------------------------------------------------------------ lifecycle

    def snapshot(self) -> dict:
        """Everything, JSON-shaped: counters, histogram buckets, gauges."""
        return {
            "counters": self.counters.snapshot(),
            "histograms": {
                name: hist.snapshot() for name, hist in sorted(self._histograms.items())
            },
            "gauges": dict(sorted(self._gauges.items())),
        }

    def deterministic_snapshot(
        self,
        exclude_prefixes: tuple[str, ...] = (
            "modmath.backend.",
            "wnaf.",
            "shard.",
            "cloud.witness.",
            "fixed_base.",
            "comb.",
            "mempool.",
            "blocks.",
            "light_client.",
            "segstore.",
            "cloud.restore.",
        ),
    ) -> dict:
        """The machine-independent slice of :meth:`snapshot`.

        Drops wall-clock histograms (names ending ``_s``) and
        execution-shape counters: ``modmath.backend.*`` (records *which* bignum backend resolved, not
        what was computed) and ``wnaf.*`` (the wNAF kernel only engages on
        the pure-python backend, so its activity is backend-shaped too).
        Topology-shaped counters are excluded the same way: ``shard.*``
        (routing/scatter bookkeeping only exists on a sharded tier),
        ``cloud.witness.*`` (each cloud or shard checks every stored
        witness it serves once per ``Ac``, and whether a witness was stored
        depends on the install path and on precompute), ``fixed_base.*``
        and the owner's ``comb.*`` tables all count *per-serving-instance*
        events — N shards each derive their own witness bases and check
        their own witnesses — so these scale with the deployment shape, not
        with protocol work.  Settlement-delivery machinery is excluded the same
        way: ``mempool.*``, ``blocks.*`` and ``light_client.*`` only tick
        in block-settlement deployments, while the *outcomes* they deliver (contract settle counts, gas
        histograms, audit counts) stay in and must equal the synchronous
        path bit for bit.  Durability machinery is deployment-shaped too:
        ``segstore.*`` (segment appends/replays/checkpoints only tick when
        a store is attached) and ``cloud.restore.*`` (restart-recovery
        bookkeeping) are excluded, while the protocol work a recovered
        cloud performs stays in and must match the never-crashed run.  The protocol-work counters stay in
        (``cloud.collect.*``, entry-cache hits, dedup savings,
        ``hash_to_prime.*``, settlement/audit counts): summed across
        shards they equal the single-cloud run exactly.  What remains must
        be byte-identical on any backend, at any shard count, and in either
        settlement mode; the cross-shard/cross-mode property tests and the
        CI counter gates compare exactly this.
        """
        return {
            "counters": {
                k: v
                for k, v in self.counters.snapshot().items()
                if not k.startswith(exclude_prefixes)
            },
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self._histograms.items())
                if not name.endswith("_s")
            },
        }

    def reset(self) -> None:
        self.counters.reset()
        self._histograms.clear()
        self._gauges.clear()


#: The process-wide registry.  Its counter section IS the perfstats store,
#: so ``perfstats.incr`` and ``REGISTRY.incr`` are the same counter space.
REGISTRY = MetricsRegistry(counters=perfstats.STATS)


def incr(name: str, amount: int = 1) -> None:
    REGISTRY.incr(name, amount)


def observe(name: str, value: float, bounds: tuple[float, ...] | None = None) -> None:
    REGISTRY.observe(name, value, bounds)


def set_gauge(name: str, value: float) -> None:
    REGISTRY.set_gauge(name, value)
