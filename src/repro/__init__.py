"""repro — a from-scratch reproduction of *Slicer: Verifiable, Secure and
Fair Search over Encrypted Numerical Data Using Blockchain* (ICDCS 2022).

Quickstart::

    from repro import SlicerSystem, SlicerParams, Query, make_database

    params = SlicerParams.testing(value_bits=8)
    system = SlicerSystem(params)
    system.setup(make_database([("r1", 41), ("r2", 7)], bits=8))
    outcome = system.search(Query.parse(10, ">"))   # records with value < 10
    assert outcome.verified and len(outcome.record_ids) == 1

Subpackages: :mod:`repro.sore` (the order-revealing encryption),
:mod:`repro.core` (the SSE protocol), :mod:`repro.crypto` (primitives),
:mod:`repro.blockchain` (the simulated chain), :mod:`repro.baselines`
(comparators), :mod:`repro.workloads` (generators) and :mod:`repro.analysis`
(measurement/reporting).
"""

from .core import (
    And,
    AttributedDatabase,
    Database,
    DataOwner,
    DataUser,
    CloudServer,
    MaliciousCloud,
    MatchCondition,
    Misbehavior,
    Query,
    Range,
    SlicerParams,
    make_database,
)
from .core.audit import AuditRecord, ThirdPartyAuditor
from .dual_system import DualSearchOutcome, DualSlicerSystem
from .planner import QueryPlan, compile_plan, compile_plans
from .sharding import HashShardPlan, ShardedCloudFrontend
from .sore import OrderCondition, SoreScheme
from .system import PlanOutcome, SearchOutcome, SlicerSystem

__version__ = "1.0.0"

__all__ = [
    "And",
    "AttributedDatabase",
    "AuditRecord",
    "CloudServer",
    "Database",
    "DataOwner",
    "DataUser",
    "DualSearchOutcome",
    "DualSlicerSystem",
    "HashShardPlan",
    "ShardedCloudFrontend",
    "ThirdPartyAuditor",
    "MaliciousCloud",
    "MatchCondition",
    "Misbehavior",
    "OrderCondition",
    "PlanOutcome",
    "Query",
    "QueryPlan",
    "Range",
    "SearchOutcome",
    "SlicerParams",
    "SlicerSystem",
    "SoreScheme",
    "compile_plan",
    "compile_plans",
    "make_database",
    "__version__",
]
