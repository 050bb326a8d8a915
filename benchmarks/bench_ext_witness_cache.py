"""Extension bench — witness precomputation at the cloud.

Quantifies the latency/throughput trade behind ``precompute_witnesses``:
per-query VO generation drops from one full-product exponentiation to a
dictionary lookup, paid for by an O(|X| log |X|) batch at install time.
Break-even is a handful of queries per update cycle.
"""

from __future__ import annotations

import pytest

from _harness import touch_benchmark, write_report
from repro.analysis.reporting import render_kv_table
from repro.common.rng import default_rng
from repro.common.timing import time_call
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.user import DataUser
from repro.core.query import MatchCondition, Query
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

N, BITS = 400, 8
_ROWS: dict[str, float] = {}


@pytest.fixture(scope="module")
def deployment():
    params = SlicerParams.testing(value_bits=BITS)
    keys = KeyBundle.generate(default_rng(720), 1024)
    owner = DataOwner(params, keys=keys, rng=default_rng(721))
    db = WorkloadGenerator(default_rng(722)).database(WorkloadSpec(N, BITS))
    out = owner.build(db)
    cloud = CloudServer(params, keys.trapdoor.public)
    # Stripped of owner witnesses: this bench measures the cloud-side MemWit.
    cloud.install(out.cloud_package.without_witnesses())
    user = DataUser(params, out.user_package, default_rng(723))
    return cloud, user


def _queries(user, count=5):
    rng = default_rng(724)
    return [Query(rng.randint_below(1 << BITS), MatchCondition.GREATER) for _ in range(count)]


def test_ext_live_vo_generation(benchmark, deployment):
    cloud, user = deployment
    token_lists = [user.make_tokens(q) for q in _queries(user)]

    def run():
        for tokens in token_lists:
            # Without this the repeat-subset memo would answer the timed
            # rounds, and "live" would not derive any witness.
            cloud._repeat_witness_cache.clear()
            cloud.search(tokens)

    benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS["live VO: 5 queries (s)"] = min(time_call(run)[0] for _ in range(2))


def test_ext_precompute_cost(benchmark, deployment):
    cloud, _ = deployment
    elapsed, count = time_call(cloud.precompute_witnesses)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _ROWS["precompute witnesses (s)"] = elapsed
    _ROWS["witnesses cached"] = float(count)


def test_ext_cached_vo_generation(benchmark, deployment):
    cloud, user = deployment
    if cloud._witness_cache is None:
        cloud.precompute_witnesses()
    token_lists = [user.make_tokens(q) for q in _queries(user)]

    def run():
        for tokens in token_lists:
            cloud.search(tokens)

    benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS["cached VO: 5 queries (s)"] = min(time_call(run)[0] for _ in range(2))


def test_ext_witness_cache_report(benchmark):
    touch_benchmark(benchmark)
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}") for k, v in sorted(_ROWS.items())
    ]
    write_report(
        "ext_witness_cache",
        render_kv_table("Extension: witness precomputation", rows),
        data={"metrics": dict(sorted(_ROWS.items()))},
    )
    if {"live VO: 5 queries (s)", "cached VO: 5 queries (s)"} <= _ROWS.keys():
        assert _ROWS["cached VO: 5 queries (s)"] < _ROWS["live VO: 5 queries (s)"]
