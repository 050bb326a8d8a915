"""The four benchmark workloads: seeded inputs, set-up and a fixed op stream.

Every workload drives the public :class:`~repro.system.SlicerSystem` API in a
closed loop with one client and no think time.  An *op* is one paid
``search`` (tokens -> submit -> serve -> settle -> decrypt), one
``search_plans`` batch on the planner workload, or one ``insert`` on the
insert-mix workload.  Inputs are a pure function of the seed and of the op
count, so two runs of one seed and one ``--seconds`` do identical work.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from repro.common.rng import default_rng
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.query import And, MatchCondition, Query, Range
from repro.core.records import AttributedDatabase, Database
from repro.crypto.accumulator import AccumulatorParams
from repro.system import SlicerSystem
from repro.workloads.generator import RangeWorkload, WorkloadGenerator, WorkloadSpec

#: Explicit per-escrow payment.  The default payment (10**6) against the
#: default funding (10**9) caps a user at 1000 searches, which the hot
#: workload would exceed.
PAYMENT = 1000

#: Trapdoor-permutation modulus size for the owner's keys.
TRAPDOOR_BITS = 1024

#: Passes a run makes over the op stream (see ``bench.py``).
PASSES = 3

CONDITIONS = (MatchCondition.EQUAL, MatchCondition.GREATER, MatchCondition.LESS)

#: Query pool size and the share of stored records each order query selects.
POOL_SIZE = 16
ORDER_SHARE = 0.25

#: Zipf exponent of every pool's popularity, and the step of the
#: low-discrepancy sequence behind :func:`zipf_draws`.
ZIPF_S = 1.2
GOLDEN = (5**0.5 - 1) / 2


def bench_params(bits: int) -> SlicerParams:
    """Benchmark-grade parameters: 512-bit accumulator, 64-bit primes."""
    return SlicerParams(
        value_bits=bits,
        prime_bits=64,
        accumulator=AccumulatorParams.demo(512, default_rng(7)),
    )


def hot_pool(database: Database, rng) -> list[Query]:
    """Half equality, half order queries, with a cost profile fixed by design.

    Ranks 1, 3, 5, ... (63% of Zipf(1.2) draws) are order queries that each
    select ``ORDER_SHARE`` (+-2%) of the stored records; ranks 2, 4, ... are
    equality lookups at stored values.  The seed picks the values and which
    side each order query selects.  So the median and the 90th percentile
    both fall well inside the order-query cost, whatever the seed: with
    uniform random values the one or two hottest queries would decide a run.
    """
    values = sorted(database.values())
    last = len(values) - 1
    pool = []
    for rank in range(POOL_SIZE):
        if rank % 2:
            pool.append(Query(values[rng.randint_below(len(values))], MatchCondition.EQUAL))
            continue
        cut = ORDER_SHARE + (rng.randint_below(41) - 20) / 1000
        if rng.randbits(1):
            pool.append(Query(values[round(cut * last)], MatchCondition.GREATER))
        else:
            pool.append(Query(values[round((1 - cut) * last)], MatchCondition.LESS))
    return pool


def plan_pool(rng, shape: RangeWorkload, attributes: tuple[str, ...], bits: int) -> list:
    """``shape.pool_size`` conjunctions of ``shape.fan_in`` ranges, each
    ``shape.selectivity`` of the domain wide and never touching its edge.

    An interior range compiles to two legs and an edge range to one, so this
    keeps the legs per plan fixed; left to the seed, one hot edge plan cut a
    run's op time by a third.
    """
    domain = 1 << bits
    width = max(1, round(shape.selectivity * domain))
    pool = []
    for _ in range(shape.pool_size):
        terms = []
        for attribute in rng.sample(attributes, shape.fan_in):
            lo = 1 + rng.randint_below(domain - width - 1)
            terms.append(Range(lo, lo + width - 1, attribute))
        pool.append(And(*terms))
    return pool


def zipf_draws(rng, pool: list, count: int) -> list:
    """``count`` draws from ``pool``; rank ``k`` (from 1) has weight ``k**-ZIPF_S``.

    The draws follow a golden-ratio sequence from a seeded start, so every
    stretch of the stream hits each rank in proportion to its weight.  With
    independent draws, a short stream's median would hang on how many
    order queries it happened to draw.
    """
    bounds = list(itertools.accumulate(k**-ZIPF_S for k in range(1, len(pool) + 1)))
    u = rng.randbits(53) / (1 << 53)
    out = []
    for _ in range(count):
        u = (u + GOLDEN) % 1.0
        out.append(pool[bisect.bisect_right(bounds, u * bounds[-1])])
    return out


@dataclass(frozen=True)
class Op:
    """One timed call: ``kind`` is ``search``, ``plans`` or ``insert``."""

    kind: str
    arg: object


@dataclass
class Inputs:
    """Everything a run needs, generated from the seed before any timing."""

    keys: KeyBundle
    database: Database | AttributedDatabase
    warm: list[Op] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)


class Workload:
    """Base class: a deployment shape plus a seeded op stream.

    ``rate`` is the nominal number of ops per measured second on a 2-core
    x86 VM.  The stream holds ``max(min_ops, round(rate * seconds /
    PASSES))`` ops, so a run's passes together measure about ``seconds``
    while the work stays a function of the seed alone.
    """

    name = ""
    why = ""
    bits = 8
    records = 0
    precompute = False
    shards = 1
    settlement = "sync"
    rate = 10.0
    min_ops = 12

    def op_count(self, seconds: float) -> int:
        return max(self.min_ops, round(self.rate * seconds / PASSES))

    def inputs(self, seed: int, seconds: float) -> Inputs:
        rng = default_rng(seed)
        keys = KeyBundle.generate(rng.spawn(), TRAPDOOR_BITS)
        generator = WorkloadGenerator(rng.spawn())
        database = self.database(generator)
        out = Inputs(keys=keys, database=database)
        self.stream(out, generator, self.op_count(seconds))
        return out

    def database(self, generator: WorkloadGenerator):
        return generator.database(WorkloadSpec(self.records, self.bits))

    def stream(self, inputs: Inputs, generator: WorkloadGenerator, count: int) -> None:
        raise NotImplementedError

    def system(self, keys: KeyBundle, seed: int) -> SlicerSystem:
        """A fresh, not yet set-up deployment (owner, cloud tier, chain)."""
        params = bench_params(self.bits)
        owner = DataOwner(params, keys=keys, rng=default_rng(seed + 1))
        return SlicerSystem(
            params,
            rng=default_rng(seed + 2),
            owner=owner,
            shards=self.shards,
            settlement_mode=self.settlement,
        )


class ColdDistinct(Workload):
    name = "cold-distinct-16b"
    why = (
        "every query is new, so the cloud's VO exponentiation dominates; "
        "owner-issued witnesses or any VO change must move this one"
    )
    bits = 16
    records = 400
    rate = 17.0

    def stream(self, inputs, generator, count):
        # Distinct (value, condition) pairs at stored values, conditions
        # cycling =, >, <; values are reused only once all are spent.
        values = sorted(set(inputs.database.values()))
        generator.rng.shuffle(values)
        for i in range(count):
            lap, slot = divmod(i, len(values))
            condition = CONDITIONS[(i + lap) % 3]
            inputs.ops.append(Op("search", Query(values[slot], condition)))


class HotRepeat(Workload):
    name = "hot-repeat-8b"
    why = (
        "Zipf repeats over witnesses precomputed in set-up, so cloud VO work "
        "is bypassed and user decrypt plus contract verify dominate"
    )
    bits = 8
    records = 1600
    precompute = True
    rate = 170.0

    def stream(self, inputs, generator, count):
        pool = hot_pool(inputs.database, generator.rng)
        inputs.warm = [Op("search", q) for q in pool]
        inputs.ops = [Op("search", q) for q in zipf_draws(generator.rng, pool, count)]


class InsertMix(Workload):
    name = "insert-mix-8b"
    why = (
        "one insert per five Zipf searches over a precomputed witness cache, "
        "so reads made cheaper by dearer installs show up here"
    )
    bits = 8
    records = 1600
    precompute = True
    rate = 7.0
    searches_per_insert = 5

    def stream(self, inputs, generator, count):
        pool = hot_pool(inputs.database, generator.rng)
        inputs.warm = [Op("search", q) for q in pool]
        rounds = -(-count // (self.searches_per_insert + 1))
        draws = zipf_draws(generator.rng, pool, rounds * self.searches_per_insert)
        for r in range(rounds):
            record = generator.database(
                WorkloadSpec(1, self.bits), id_offset=self.records + r
            )
            inputs.ops.append(Op("insert", record))
            for q in draws[r * self.searches_per_insert : (r + 1) * self.searches_per_insert]:
                inputs.ops.append(Op("search", q))


class PlansBlock(Workload):
    name = "plans-block-4shard"
    why = (
        "the only path through planner, batch_search, sharded search_many, "
        "mempool and block sealing"
    )
    bits = 8
    records = 200
    shards = 4
    settlement = "block"
    rate = 10.0
    attributes = ("lat", "lon")
    plans_per_op = 8
    shape = RangeWorkload(selectivity=0.05, fan_in=2, pool_size=16)

    def database(self, generator):
        spec = WorkloadSpec(self.records, self.bits)
        return generator.attributed_database(
            self.records, {name: spec for name in self.attributes}
        )

    def stream(self, inputs, generator, count):
        pool = plan_pool(generator.rng, self.shape, self.attributes, self.bits)
        exprs = zipf_draws(generator.rng, pool, count * self.plans_per_op)
        # The pool is played once untimed, batched like the timed ops.
        step = self.plans_per_op
        inputs.warm = [Op("plans", pool[i : i + step]) for i in range(0, len(pool), step)]
        inputs.ops = [Op("plans", exprs[i : i + step]) for i in range(0, len(exprs), step)]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ColdDistinct(), HotRepeat(), InsertMix(), PlansBlock())
}
