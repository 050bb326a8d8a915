"""Sharded multi-cloud serving tier: deterministic routing + scatter/gather.

The paper's CSP is one logical server; this package splits it into N
independent :class:`~repro.core.cloud.CloudServer` shards behind a
scatter/gather front door whose merged output is byte-identical to the
single-cloud path at any shard count.  See :mod:`repro.sharding.plan` for
the routing/replication rules and :mod:`repro.sharding.frontend` for the
tier itself, which serves every shard in-process.
"""

from .frontend import ShardedCloudFrontend
from .plan import (
    HashShardPlan,
    equality_route,
    split_package,
)

__all__ = [
    "HashShardPlan",
    "ShardedCloudFrontend",
    "equality_route",
    "split_package",
]
