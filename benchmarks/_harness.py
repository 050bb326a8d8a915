"""Shared benchmark harness: parameter presets, deployment cache, reports.

The figures all sweep (record count x bit width) over the *same* deployments,
so builds are cached per (n, bits) and reused across benchmark modules.  The
cache also retains the phase timings (index vs ADS; the Fig. 3 / Fig. 7
split) captured by the owner's stopwatch during the one real build.

Crypto parameter sizes default to benchmark-grade (512-bit accumulator,
64-bit prime representatives) so the default sweep finishes in minutes of
pure Python; set ``REPRO_BENCH_PARAMS=paper`` for the paper's 2048-bit /
256-bit sizes (hours).  Either way the *shapes* the paper reports are
preserved; EXPERIMENTS.md records which preset produced the committed
numbers.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass

from repro.common.rng import default_rng
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.records import Database
from repro.core.user import DataUser
from repro.crypto.accumulator import AccumulatorParams
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

REPORT_DIR = pathlib.Path(__file__).resolve().parent / "reports"
#: Where runs write by default: git-ignored, so a sweep at any scale never
#: rewrites a committed report.  Refreshing one is a deliberate copy.
FRESH_DIR = REPORT_DIR / "fresh"


def bench_params(bits: int) -> SlicerParams:
    """Protocol parameters for benchmarking (see module docstring)."""
    if os.environ.get("REPRO_BENCH_PARAMS", "").lower() == "paper":
        return SlicerParams(
            value_bits=bits,
            prime_bits=256,
            accumulator=AccumulatorParams.demo(2048),
        )
    return SlicerParams(
        value_bits=bits,
        prime_bits=64,
        accumulator=AccumulatorParams.demo(512, default_rng(7)),
    )


@dataclass
class Deployment:
    """One built system plus the measurements captured during its build."""

    params: SlicerParams
    owner: DataOwner
    cloud: CloudServer
    user: DataUser
    database: Database
    build_index_s: float
    build_ads_s: float
    index_bytes: int
    ads_bytes: int

    @property
    def n_records(self) -> int:
        return len(self.database)


class DeploymentCache:
    """Builds (n, bits) deployments once and shares them across benches."""

    def __init__(self, trapdoor_bits: int = 1024) -> None:
        self._deployments: dict[tuple[int, int], Deployment] = {}
        self._keys = KeyBundle.generate(default_rng(2026), trapdoor_bits)

    def get(self, n: int, bits: int) -> Deployment:
        key = (n, bits)
        if key not in self._deployments:
            self._deployments[key] = self._build(n, bits)
        return self._deployments[key]

    def _build(self, n: int, bits: int) -> Deployment:
        params = bench_params(bits)
        generator = WorkloadGenerator(default_rng(1000 + n + bits))
        database = generator.database(WorkloadSpec(n, bits))
        owner = DataOwner(params, keys=self._keys, rng=default_rng(n * 31 + bits))
        output = owner.build(database)
        cloud = CloudServer(params, self._keys.trapdoor.public)
        # Without the owner's witnesses the cloud runs the paper's own
        # MemWit, which is what Figs. 5 and 6 measure.
        cloud.install(output.cloud_package.without_witnesses())
        user = DataUser(params, output.user_package, default_rng(5))
        return Deployment(
            params=params,
            owner=owner,
            cloud=cloud,
            user=user,
            database=database,
            build_index_s=owner.stopwatch.get("index"),
            build_ads_s=owner.stopwatch.get("ads"),
            index_bytes=output.cloud_package.index.size_bytes,
            ads_bytes=output.cloud_package.prime_bytes,
        )


def equality_queries_on_data(deployment: Deployment, count: int, rng) -> list:
    """Equality queries drawn from *stored* values.

    The paper queries uniform random values at 160K records, where most
    values exist; at reduced scale a uniform 16-bit draw nearly always
    misses, which would flatten Fig. 5a/5b to zero.  Sampling stored values
    reproduces the paper-scale hit behaviour: 8-bit queries match many
    duplicates, 16-bit queries match ~1 record.
    """
    from repro.core.query import MatchCondition, Query

    values = deployment.database.values()
    return [
        Query(values[rng.randint_below(len(values))], MatchCondition.EQUAL)
        for _ in range(count)
    ]


def touch_benchmark(benchmark) -> None:
    """Register a no-op measurement so report/shape tests still run under
    ``--benchmark-only`` (which skips tests that never call the fixture)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def write_report(
    name: str, text: str, data: dict | None = None, out: pathlib.Path = FRESH_DIR
) -> None:
    """Persist a rendered figure/table under ``out`` and echo it to stdout.

    When ``data`` is given, a machine-readable twin is written next to the
    text report as ``BENCH_<name>.json`` (with the environment knobs that
    produced it stamped in), so downstream tooling never scrapes tables.
    """
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.txt"
    path.write_text(text + "\n")
    if data is not None:
        payload = {
            "name": name,
            "env": {
                "bench_params": os.environ.get("REPRO_BENCH_PARAMS", "default"),
                "scale": os.environ.get("REPRO_SCALE", "default"),
                "cpu_count": os.cpu_count(),
            },
            **data,
        }
        json_path = out / f"BENCH_{name}.json"
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{text}\n[report written to {path}]")
