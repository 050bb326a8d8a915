"""Extension bench — durable segment store and warm restart.

Quantifies what the epoch-segment store buys a restarted cloud: reopen
replays the committed segments and rehydrates the witness map, the
``H_prime`` memo and the entry cache from the warm checkpoint, so the
first repeat query after a restart runs at cache speed (one per-item
``VerifyMem`` per served witness) instead of paying a full cold walk plus
witness exponentiation.  Byte-identity against the never-restarted cloud
is asserted *before* any timing is recorded — a fast wrong answer is not a
result.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest

from _harness import touch_benchmark, write_report
from repro.analysis.reporting import render_kv_table
from repro.common import perfstats
from repro.common.rng import default_rng
from repro.common.timing import time_call
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.query import MatchCondition, Query
from repro.core.user import DataUser
from repro.crypto import kernels
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

N, N_INSERT, BITS = 400, 40, 8
HOT_REPEATS = 8  # Zipf-ish head: the same hot query dominates the stream
_ROWS: dict[str, float] = {}
_BLOBS: dict[str, bytes] = {}


@pytest.fixture(scope="module")
def deployment():
    params = SlicerParams.testing(value_bits=BITS)
    keys = KeyBundle.generate(default_rng(880), 1024)
    owner = DataOwner(params, keys=keys, rng=default_rng(881))
    generator = WorkloadGenerator(default_rng(882))
    store_dir = tempfile.mkdtemp(prefix="slicer-bench-segstore-")

    cloud = CloudServer(params, keys.trapdoor.public)
    cloud.attach_store(store_dir)
    out = owner.build(generator.database(WorkloadSpec(N, BITS)))
    cloud.install(out.cloud_package)
    delta = owner.insert(generator.database(WorkloadSpec(N_INSERT, BITS)))
    cloud.install(delta.cloud_package)
    cloud.precompute_witnesses()

    user = DataUser(params, delta.user_package, default_rng(883))
    hot = user.make_tokens(Query(170, MatchCondition.GREATER))
    yield params, keys, cloud, store_dir, hot
    shutil.rmtree(store_dir, ignore_errors=True)


def test_restart_cold_first_query(benchmark, deployment):
    _, _, cloud, _, hot = deployment
    kernels.clear_caches()  # the walk every restart would pay without a store

    elapsed, response = time_call(lambda: cloud.search(hot))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _ROWS["cold first query (s)"] = elapsed
    _BLOBS["hot"] = wire.dump_response(response)


def test_restart_live_warm_query(benchmark, deployment):
    _, _, cloud, _, hot = deployment
    for _ in range(HOT_REPEATS):  # warm the entry cache, check the served witnesses
        cloud.search(hot)

    elapsed, response = time_call(lambda: cloud.search(hot))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert wire.dump_response(response) == _BLOBS["hot"]
    _ROWS["live warm repeat (s)"] = elapsed


def test_restart_checkpoint_and_reopen(benchmark, deployment):
    params, keys, cloud, store_dir, _ = deployment
    elapsed, _ = time_call(cloud.checkpoint)
    _ROWS["checkpoint (s)"] = elapsed

    kernels.clear_caches()  # a new process starts with empty global memos
    resumed = CloudServer(params, keys.trapdoor.public)
    elapsed, _ = time_call(lambda: (resumed.reopen(store_dir), resumed.prime_count))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _ROWS["reopen + rehydrate (s)"] = elapsed
    deployment_cache["resumed"] = resumed


deployment_cache: dict[str, CloudServer] = {}


def test_restart_reopened_warm_query(benchmark, deployment):
    _, _, _, _, hot = deployment
    resumed = deployment_cache["resumed"]

    # Byte-identity and cache-speed invariants come before the stopwatch.
    base = perfstats.snapshot()
    blob = wire.dump_response(resumed.search(hot))
    delta = perfstats.delta_since(base)
    assert blob == _BLOBS["hot"]
    assert delta.get("cloud.collect.index_probes", 0) == 0
    assert delta.get("cloud.collect.prf_evals", 0) == 0

    elapsed, response = time_call(lambda: resumed.search(hot))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert wire.dump_response(response) == _BLOBS["hot"]
    _ROWS["reopened warm repeat (s)"] = elapsed


def test_restart_report(benchmark):
    touch_benchmark(benchmark)
    cold = _ROWS.get("cold first query (s)", 0.0)
    reopened = _ROWS.get("reopened warm repeat (s)", 0.0)
    if cold and reopened:
        _ROWS["restart speedup (x)"] = cold / reopened
    rows = [("Metric", "value")] + [
        (k, f"{v:.4f}") for k, v in sorted(_ROWS.items())
    ]
    write_report(
        "ext_warm_restart",
        render_kv_table("Extension: segment store warm restart", rows),
        data={"metrics": dict(sorted(_ROWS.items()))},
    )
    if cold and reopened:
        assert reopened < cold
