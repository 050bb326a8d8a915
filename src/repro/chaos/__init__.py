"""Chaos engineering for the four-party protocol: deterministic fault
injection on the ``user → contract``, ``contract → cloud``,
``cloud → contract`` and ``owner → cloud/chain`` boundaries, plus the
retry/timeout/backoff machinery that survives it.

Opt-in only: construct a :class:`ChaosTransport` and hand it to
:class:`~repro.system.SlicerSystem`.  With no transport (the default)
nothing here runs and the direct in-process path is byte-identical to
before this package existed.
"""

from .faults import (
    CHAIN_PROFILES,
    PROFILES,
    ChainFaultKind,
    ChainFaultPlan,
    ChainFaultProfile,
    FaultKind,
    FaultPlan,
    FaultProfile,
    chain_profile_named,
    profile_named,
)
from .retry import RetryPolicy
from .transport import (
    CLOUD_TO_CONTRACT,
    CONTRACT_TO_CLOUD,
    OWNER_TO_CLOUD,
    OWNER_TO_CONTRACT,
    USER_TO_CONTRACT,
    ChaosTransport,
    shard_channel,
)

__all__ = [
    "CHAIN_PROFILES",
    "PROFILES",
    "ChainFaultKind",
    "ChainFaultPlan",
    "ChainFaultProfile",
    "FaultKind",
    "FaultPlan",
    "FaultProfile",
    "chain_profile_named",
    "profile_named",
    "RetryPolicy",
    "ChaosTransport",
    "USER_TO_CONTRACT",
    "CONTRACT_TO_CLOUD",
    "CLOUD_TO_CONTRACT",
    "OWNER_TO_CLOUD",
    "OWNER_TO_CONTRACT",
    "shard_channel",
]
