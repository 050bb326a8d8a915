"""Shard count ≡ 1: the serving-tier width is an execution knob, never a
protocol input.

Three invariances pin the sharded tier down:

* **responses** — a deployment serving through N shards produces
  byte-identical wire responses, verdicts, record IDs and settlement gas
  to the single-cloud deployment, for every query, before and after an
  insert;
* **counters** — the deterministic counter snapshot (protocol work:
  collect walks, cache hit/miss, hash-to-prime, settlement) is identical
  at every shard count — N shards do exactly the single cloud's work,
  partitioned; topology-shaped ``shard.*`` bookkeeping is excluded at the
  source (see :meth:`MetricsRegistry.deterministic_snapshot`);
* **recovery** — one shard restored from its own ``state_io`` snapshot
  serves byte-identical responses again, while a killed shard degrades
  only the queries routed to it.

Kernel memo caches are process-global, so every leg starts from
``kernels.clear_caches()`` + a registry reset — otherwise the second run
inherits the first run's warm memos and the counter comparison measures
session history, not the tier.
"""

from repro.common.rng import default_rng
from repro.core import wire
from repro.core.query import Query
from repro.core.records import make_database
from repro.crypto import kernels
from repro.obs.metrics import REGISTRY
from repro.system import SlicerSystem

VALUES = [7, 7, 9, 40, 41, 64, 3, 200, 128, 255]
EXTRA = [7, 41, 130]
QUERIES = [
    Query.parse(7, "="),
    Query.parse(40, ">"),
    Query.parse(41, "<"),
    Query.parse(200, "="),
]
SHARD_COUNTS = [1, 2, 4]


def database(values, start=0):
    return make_database(
        [(f"rec-{start + i}", v) for i, v in enumerate(values)], bits=8
    )


def fresh_process_state():
    """Cold kernel memos + cold registry: comparable counter baselines."""
    kernels.clear_caches()
    REGISTRY.reset()


def deploy(tparams, owner_factory, shards, seed=11):
    system = SlicerSystem(
        tparams,
        rng=default_rng(seed),
        owner=owner_factory(tparams, seed=seed),
        shards=shards,
    )
    system.setup(database(VALUES))
    return system


def run_scenario(system):
    """Search -> insert -> search again."""
    outcomes = [system.search(q) for q in QUERIES]
    system.insert(database(EXTRA, start=100))
    outcomes.extend(system.search(q) for q in QUERIES)
    return outcomes


def fingerprint(outcome):
    return (
        outcome.verified,
        sorted(outcome.record_ids),
        wire.dump_response(outcome.response),
        outcome.settle_gas,
    )


class TestShardCountInvariance:
    def test_outcomes_and_counters_identical_at_any_width(self, tparams, owner_factory):
        runs = {}
        for shards in SHARD_COUNTS:
            fresh_process_state()
            system = deploy(tparams, owner_factory, shards)
            outcomes = run_scenario(system)
            runs[shards] = (
                [fingerprint(o) for o in outcomes],
                REGISTRY.deterministic_snapshot(),
            )
        ref_fingerprints, ref_snapshot = runs[1]
        assert all(f[0] for f in ref_fingerprints), "reference must settle paid"
        for shards in SHARD_COUNTS[1:]:
            fingerprints, snapshot = runs[shards]
            assert fingerprints == ref_fingerprints, (
                f"{shards}-shard outcomes drifted from the single cloud"
            )
            assert snapshot == ref_snapshot, (
                f"{shards}-shard deterministic counters drifted"
            )


class TestShardTierSnapshots:
    def test_tier_restore_roundtrip(self, tparams, owner_factory):
        fresh_process_state()
        system = deploy(tparams, owner_factory, 4)
        frontend = system.cloud
        reference = [
            wire.dump_response(system.search(q).response) for q in QUERIES
        ]
        blob = frontend.snapshot()
        # Cold-restart the whole tier; searches must come back bit for bit.
        frontend.restore(blob)
        after = [wire.dump_response(system.search(q).response) for q in QUERIES]
        assert after == reference

    def test_shard_crash_recovery_from_own_snapshot(self, tparams, owner_factory):
        fresh_process_state()
        system = deploy(tparams, owner_factory, 4)
        frontend = system.cloud
        reference = {
            q: wire.dump_response(system.search(q).response) for q in QUERIES
        }
        shards_of = {
            q: set(frontend.shards_for_tokens(system.user.make_tokens(q)))
            for q in QUERIES
        }
        # Pick a victim shard that some query touches and another avoids.
        victim = affected = spared = None
        for qa in QUERIES:
            for qb in QUERIES:
                only = shards_of[qa] - shards_of[qb]
                if only:
                    victim, affected, spared = next(iter(only)), qa, qb
                    break
            if victim is not None:
                break
        assert victim is not None, "fixture queries must span >1 shard"

        snap = frontend.snapshot_shard(victim)
        frontend.kill_shard(victim)
        down = system.search(affected)
        assert not down.verified, "queries on the dead shard must refund"
        assert down.record_ids == set()
        alive = system.search(spared)
        assert alive.verified, "queries avoiding the dead shard still settle"
        assert wire.dump_response(alive.response) == reference[spared]

        frontend.restore_shard(victim, snap)
        recovered = system.search(affected)
        assert recovered.verified
        assert wire.dump_response(recovered.response) == reference[affected]
