"""Chaos engineering for the four-party protocol: deterministic fault
injection on the ``user → contract``, ``contract → cloud``,
``cloud → contract`` and ``owner → cloud/chain`` boundaries, plus the
retry/timeout/backoff machinery that survives it.

Every leg of :class:`~repro.system.SlicerSystem` is one
``transport.deliver`` call.  The default transport, :data:`DIRECT`, calls
the handler in-process and does nothing else; hand the system a
:class:`ChaosTransport` to put every leg (single searches, batches, plans,
installs and ADS updates alike) behind the fault plan and its retries.
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
from .retry import RETRY, RetryPolicy
from .transport import (
    CLOUD_TO_CONTRACT,
    CONTRACT_TO_CLOUD,
    OWNER_TO_CLOUD,
    OWNER_TO_CONTRACT,
    DIRECT,
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
    "RETRY",
    "RetryPolicy",
    "DIRECT",
    "ChaosTransport",
    "USER_TO_CONTRACT",
    "CONTRACT_TO_CLOUD",
    "CLOUD_TO_CONTRACT",
    "OWNER_TO_CLOUD",
    "OWNER_TO_CONTRACT",
    "shard_channel",
]
