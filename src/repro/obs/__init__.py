"""Observability layer: metrics, tracing, and the settlement audit log.

Slicer's fairness story is an *audit* story — who was paid, who was
refunded, what evidence the contract saw — so the reproduction carries a
first-class observability substrate:

* :mod:`repro.obs.metrics` — a registry of counters (the
  :mod:`repro.common.perfstats` store), histograms (latencies, result
  sizes, gas) and gauges;
* :mod:`repro.obs.trace` — lightweight structured spans with ids/parents
  covering submit → search → verify → settle and install/ADS-update,
  emitted as JSONL; chaos-transport fault injections and retries attach as
  span events, so a failed search is diagnosable from its trace alone;
* :mod:`repro.obs.audit` — an append-only settlement audit log: one record
  per search with tokens posted, the accumulator value checked, the
  verdict, payment/refund routing and gas;
* :mod:`repro.obs.report` — the ``python -m repro report`` CLI over the
  JSONL artifacts.

``REPRO_OBS=0`` is the kill switch: histograms, gauges, spans, events and
audit appends all become no-ops (counters stay on — the kernels and the
regression gates predate this layer and cost one dict op per increment).
"""

from .audit import (
    AUDIT_LOG,
    VERDICT_DEGRADED,
    VERDICT_PAID,
    VERDICT_REFUNDED,
    SettlementAuditLog,
    SettlementRecord,
)
from .metrics import REGISTRY, Histogram, MetricsRegistry, obs_enabled, set_obs_enabled
from .trace import TRACER, Span, Tracer

__all__ = [
    "AUDIT_LOG",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SettlementAuditLog",
    "SettlementRecord",
    "Span",
    "TRACER",
    "Tracer",
    "VERDICT_DEGRADED",
    "VERDICT_PAID",
    "VERDICT_REFUNDED",
    "obs_enabled",
    "set_obs_enabled",
]
