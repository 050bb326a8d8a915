"""Crypto kernel sweep: cold vs warm caches vs kernels disabled.

For each record count (the paper's Fig. 5 x-axis) the same deployment flow
runs three ways on a single core:

* ``off``  — ``REPRO_KERNELS=0``: the plain primitives;
* ``cold`` — kernels on, every process-local cache (``H_prime`` memo,
  fixed-base and comb tables, entry cache) cleared first: the
  first-query cost (memo misses, table builds);
* ``warm`` — the same query repeated against the now-warm caches: the
  repeat-query cost the memo layer exists for.

Equality is asserted *inside the sweep*: the kernels-on flow must reproduce
the kernels-off flow's search results, witnesses, primes and ADS value
byte-for-byte before any timing is recorded.  The JSON twin records the
perf-counter snapshot (hits/misses per cache) next to every timing, so the
reported speedups are attributable, not anecdotal.
"""

from __future__ import annotations

import os

from _harness import bench_params, touch_benchmark, write_report
from repro.analysis.reporting import FigureReport
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.common.timing import time_call
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle
from repro.core.query import Query
from repro.core.user import DataUser
from repro.core.verify import verify_response
from repro.crypto import kernels
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

BITS = 16

#: Inserts per flow for the insert-heavy phase (each followed by a search).
N_INSERT_ROUNDS = 3

_KEYS = KeyBundle.generate(default_rng(2028), 1024)

_FIG = FigureReport(
    "Crypto kernels: search wall-clock by record count",
    "records",
    "seconds",
)
_OFF = _FIG.new_series("kernels-off")
_COLD = _FIG.new_series("kernels-cold")
_WARM = _FIG.new_series("kernels-warm")

_RESULTS: dict[int, dict] = {}


def _run_flow(n: int) -> tuple[dict[str, float], dict]:
    """One deterministic Build -> search -> repeat -> insert-heavy flow.

    Every RNG is seeded from ``n`` alone, so the kernels-on and kernels-off
    runs see identical bytes end to end and their outputs must match.
    """
    params = bench_params(BITS)
    generator = WorkloadGenerator(default_rng(5000 + n))
    database = generator.database(WorkloadSpec(n, BITS))
    adds = [
        generator.database(WorkloadSpec(max(10, n // 10), BITS))
        for _ in range(N_INSERT_ROUNDS)
    ]
    owner = DataOwner(params, keys=_KEYS, rng=default_rng(n))
    build_s, out = time_call(lambda: owner.build(database))
    cloud = CloudServer(params, _KEYS.trapdoor.public)
    cloud.install(out.cloud_package)
    user = DataUser(params, out.user_package, default_rng(5))

    tokens = user.make_tokens(Query.parse(1 << (BITS - 1), ">"))
    search_cold_s, response = time_call(lambda: cloud.search(tokens))
    search_warm_s, repeat = time_call(lambda: cloud.search(tokens))
    verify_s, report = time_call(
        lambda: verify_response(params, cloud.ads_value, response)
    )
    assert report.ok

    def insert_heavy() -> None:
        for add in adds:
            update = owner.insert(add)
            cloud.install(update.cloud_package)
            user.refresh(update.user_package)
            cloud.search(user.make_tokens(Query.parse(1 << (BITS - 1), "<")))

    insert_heavy_s, _ = time_call(insert_heavy)

    timings = {
        "build_s": build_s,
        "search_cold_s": search_cold_s,
        "search_warm_s": search_warm_s,
        "verify_s": verify_s,
        "insert_heavy_s": insert_heavy_s,
    }
    outputs = {
        "primes": list(out.cloud_package.primes),
        "ads": out.chain_ads,
        "entries": [r.entries for r in response.results],
        "witnesses": [r.witness.value for r in response.results],
        "repeat_witnesses": [r.witness.value for r in repeat.results],
        "final_ads": cloud.ads_value,
    }
    return timings, outputs


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


def test_kernel_sweep(benchmark, scale):
    def sweep():
        for n in scale.record_counts:
            off_t, off_out = _with_kernels(False, lambda: _run_flow(n))

            kernels.clear_caches()
            perfstats.reset()
            on_t, on_out = _with_kernels(True, lambda: _run_flow(n))
            counters = perfstats.snapshot()
            rates = perfstats.rates()
            sizes = kernels.cache_sizes()

            # Warm repeat must equal the cold pass, and the whole kernels-on
            # flow must equal the kernels-off flow — or the timing is void.
            assert on_out["repeat_witnesses"] == on_out["witnesses"]
            assert on_out == off_out

            def ratio(a: float, b: float) -> float:
                return a / b if b else 0.0

            _RESULTS[n] = {
                "off": off_t,
                "on": on_t,
                "speedup": {
                    "search_warm_vs_off": ratio(off_t["search_cold_s"], on_t["search_warm_s"]),
                    "search_warm_vs_cold": ratio(on_t["search_cold_s"], on_t["search_warm_s"]),
                    "search_cold_vs_off": ratio(off_t["search_cold_s"], on_t["search_cold_s"]),
                    "insert_heavy_vs_off": ratio(off_t["insert_heavy_s"], on_t["insert_heavy_s"]),
                    "build_vs_off": ratio(off_t["build_s"], on_t["build_s"]),
                    "verify_vs_off": ratio(off_t["verify_s"], on_t["verify_s"]),
                },
                "counters": counters,
                "hit_rates": rates,
                "cache_sizes": sizes,
            }
            _OFF.add(n, off_t["search_cold_s"])
            _COLD.add(n, on_t["search_cold_s"])
            _WARM.add(n, on_t["search_warm_s"])

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert set(_RESULTS) == set(scale.record_counts)


def test_kernel_report(benchmark, scale):
    touch_benchmark(benchmark)
    write_report(
        "kernels",
        _FIG.render("{:.4f}"),
        data={
            "figures": [_FIG.as_dict()],
            "records_sweep": list(scale.record_counts),
            "value_bits": BITS,
            "insert_rounds": N_INSERT_ROUNDS,
            "per_records": {str(n): r for n, r in sorted(_RESULTS.items())},
            "outputs_identical": True,  # asserted during the sweep
        },
    )
    assert _OFF.ys() and _COLD.ys() and _WARM.ys()
