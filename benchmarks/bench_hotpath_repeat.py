"""Repeat-traffic hot path: the epoch-suffix entry cache under query skew.

Production search traffic is repeat-heavy — a few hot queries dominate (the
Zipf shape of real query logs).  This sweep plays the same deterministic
query stream against one deployment four ways, per popularity shape
(:class:`~repro.workloads.generator.QueryPopularity` UNIFORM vs ZIPF):

* ``reference`` — ``REPRO_KERNELS=0``: the plain primitives, no caches;
* ``cold``  — kernels on, but every cache cleared before *each* query:
  the first-ever-query cost, paid for every query in the stream;
* ``first`` — the stream played once against an initially-empty cache:
  repeats *within* the stream already splice cached epoch suffixes;
* ``warm``  — the same stream replayed fully warm: the steady-state
  repeat cost, which the entry cache makes O(new data) = O(0) here.

Byte-identity is asserted *before* any timing is recorded: every pass —
including a batched ``search_many`` over the whole stream — must reproduce
the kernels-off responses byte for byte.  The JSON twin records the
``cloud.entry_cache.*`` / ``cloud.collect.*`` counter snapshots next to
every timing so the speedups are attributable (spliced entries up, index
probes and PRF evaluations down), not anecdotal.  The warm replay must
touch neither the index nor the PRF (zero ``cloud.collect.index_probes``
and ``cloud.collect.prf_evals``) or the sweep fails; the wall-clock
speedups are reported, not gated.
"""

from __future__ import annotations

import os

from _harness import bench_params, touch_benchmark, write_report
from repro.analysis.reporting import FigureReport
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.common.timing import time_call
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle
from repro.core.user import DataUser
from repro.crypto import kernels
from repro.workloads.generator import (
    QueryPopularity,
    WorkloadGenerator,
    WorkloadSpec,
)

BITS = 8

#: Queries per stream and the size of the pool they are drawn from.
STREAM = 24
POOL = 8

_KEYS = KeyBundle.generate(default_rng(2029), 1024)

_FIG = FigureReport(
    "Repeat-traffic search: stream wall-clock by record count",
    "records",
    "seconds",
)
_SERIES = {
    (mode, leg): _FIG.new_series(f"{mode.value}-{leg}")
    for mode in (QueryPopularity.UNIFORM, QueryPopularity.ZIPF)
    for leg in ("cold", "first", "warm")
}

_RESULTS: dict[str, dict] = {}

_COUNTER_PREFIXES = ("cloud.entry_cache.", "cloud.collect.", "batch.")


def _with_kernels(enabled: bool, fn):
    old = os.environ.get(kernels.KERNELS_ENV)
    os.environ[kernels.KERNELS_ENV] = "1" if enabled else "0"
    try:
        return fn()
    finally:
        if old is None:
            del os.environ[kernels.KERNELS_ENV]
        else:
            os.environ[kernels.KERNELS_ENV] = old


def _counters() -> dict[str, int]:
    return {
        k: v
        for k, v in perfstats.snapshot().items()
        if k.startswith(_COUNTER_PREFIXES)
    }


def _run_streams(n: int, popularity: QueryPopularity) -> dict:
    """One deployment, one deterministic skewed stream, four passes."""
    params = bench_params(BITS)
    generator = WorkloadGenerator(default_rng(9000 + n))
    database = generator.database(WorkloadSpec(n, BITS))
    owner = DataOwner(params, keys=_KEYS, rng=default_rng(n))
    out = owner.build(database)
    cloud = CloudServer(params, _KEYS.trapdoor.public)
    cloud.install(out.cloud_package)
    user = DataUser(params, out.user_package, default_rng(5))

    # The popularity draws come from their own generator so UNIFORM and
    # ZIPF rank the *same* candidate pool, merely with different skew.
    qgen = WorkloadGenerator(default_rng(77))
    stream = qgen.popular_queries(STREAM, BITS, popularity=popularity, pool_size=POOL)
    token_lists = [user.make_tokens(query) for query in stream]

    # Ground truth: kernels (and thus every cache) disabled outright.
    reference = _with_kernels(
        False, lambda: [wire.dump_response(cloud.search(t)) for t in token_lists]
    )

    def cold_pass() -> list[bytes]:
        dumps = []
        for tokens in token_lists:
            kernels.clear_caches()  # includes the registered entry cache
            dumps.append(wire.dump_response(cloud.search(tokens)))
        return dumps

    kernels.clear_caches()
    perfstats.reset()
    cold_s, cold = time_call(lambda: _with_kernels(True, cold_pass))
    cold_counters = _counters()

    def replay() -> list[bytes]:
        return [wire.dump_response(cloud.search(t)) for t in token_lists]

    kernels.clear_caches()
    perfstats.reset()
    first_s, first = time_call(lambda: _with_kernels(True, replay))
    first_counters = _counters()

    perfstats.reset()
    warm_s, warm = time_call(lambda: _with_kernels(True, replay))
    warm_counters = _counters()

    # Batched collection over the whole stream on a cleared cache: the
    # cross-query dedup alone collapses repeats to one collect each.
    kernels.clear_caches()
    perfstats.reset()
    batch_s, batch = time_call(
        lambda: _with_kernels(True, lambda: cloud.search_many(token_lists))
    )
    batch_counters = _counters()
    batch_dumps = [wire.dump_response(r) for r in batch]

    # Byte-identity gates the timings: every pass reproduces the plain-
    # primitive responses exactly, or the numbers below mean nothing.
    assert cold == reference, "forced-cold pass drifted from kernels-off"
    assert first == reference, "first (filling) pass drifted from kernels-off"
    assert warm == reference, "warm replay drifted from kernels-off"
    assert batch_dumps == reference, "batched search drifted from kernels-off"

    # The gate: the warm replay splices cached epoch suffixes and never
    # probes the index or evaluates a PRF.  Counters, not a warm/cold
    # wall-clock floor, because that ratio moves whenever cold gets cheaper.
    assert warm_counters.get("cloud.entry_cache.spliced_entries", 0) > 0
    assert warm_counters.get("cloud.entry_cache.miss", 0) == 0
    assert warm_counters.get("cloud.collect.index_probes", 0) == 0
    assert warm_counters.get("cloud.collect.prf_evals", 0) == 0

    return {
        "timings": {
            "cold_s": cold_s,
            "first_s": first_s,
            "warm_s": warm_s,
            "batch_s": batch_s,
        },
        "speedup": {
            "warm_vs_cold": cold_s / warm_s if warm_s else 0.0,
            "first_vs_cold": cold_s / first_s if first_s else 0.0,
            "batch_vs_cold": cold_s / batch_s if batch_s else 0.0,
        },
        "counters": {
            "cold": cold_counters,
            "first": first_counters,
            "warm": warm_counters,
            "batch": batch_counters,
        },
        "stream": {
            "queries": STREAM,
            "pool": POOL,
            "distinct_queries": len({(q.value, q.condition) for q in stream}),
        },
    }


def test_hotpath_repeat_sweep(benchmark, scale):
    def sweep():
        for n in scale.record_counts:
            for mode in (QueryPopularity.UNIFORM, QueryPopularity.ZIPF):
                result = _run_streams(n, mode)
                _RESULTS[f"{mode.value}/{n}"] = result
                for leg in ("cold", "first", "warm"):
                    _SERIES[(mode, leg)].add(n, result["timings"][f"{leg}_s"])

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(_RESULTS) == 2 * len(scale.record_counts)


def test_hotpath_repeat_report(benchmark, scale):
    touch_benchmark(benchmark)
    write_report(
        "hotpath_repeat",
        _FIG.render("{:.4f}"),
        data={
            "figures": [_FIG.as_dict()],
            "records_sweep": list(scale.record_counts),
            "value_bits": BITS,
            "stream_queries": STREAM,
            "pool_size": POOL,
            "per_stream": dict(sorted(_RESULTS.items())),
            "responses_identical": True,  # asserted during the sweep
        },
    )
    assert all(series.ys() for series in _SERIES.values())
