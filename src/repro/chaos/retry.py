"""Bounded retry with deterministic exponential backoff.

Transport faults are *expected* under chaos, so every boundary call is
wrapped in a :class:`RetryPolicy`: transport errors are retried up to
``max_attempts`` with exponentially growing (capped) backoff on the
transport's **virtual** clock — nothing sleeps, runs stay deterministic.
There is deliberately no jitter: jitter exists to decorrelate real fleets,
and here it would only break seed-replayability.

Protocol verdicts are never retried — a settled query stays settled; only
delivery failures (and explicitly transient chain reverts, e.g. a stale
ADS digest during a concurrent insert) are.  When the budget runs out the
policy raises :class:`~repro.common.errors.RetryExhausted`, which
:class:`~repro.system.SlicerSystem` degrades into a ``SearchOutcome`` error
state instead of an unhandled exception.  Every faulting leg runs under the
one default policy, :data:`RETRY`.

Counters: ``retry.attempts`` (every attempt), ``retry.recovered`` (success
after ≥1 failure), ``retry.gave_up`` (budget exhausted).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common import perfstats
from ..common.errors import ParameterError, RetryExhausted, TransportError
from ..obs import trace


def last_fault_step(transport) -> int | None:
    """Index into the transport's FaultPlan history of the latest injection.

    Scans backwards past bookkeeping outcomes (``clean``/``forced-clean``)
    to the decision that actually faulted a delivery — the attribution a
    degraded outcome records (``RetryExhausted.fault_step``).
    """
    plan = getattr(transport, "plan", None)
    if plan is None:
        return None
    for step, _leg, outcome in reversed(plan.history):
        if outcome not in ("clean", "forced-clean"):
            return step
    return None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    The defaults tolerate the worst streak the bundled fault profiles can
    produce: with ``force_clean_after = 2`` the request and reply legs can
    fail at most ``2 + 1 + 2 = 5`` consecutive deliveries between forced
    clean draws, so eight attempts always suffice for liveness.
    """

    max_attempts: int = 8
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.multiplier < 1:
            raise ParameterError("backoff parameters must be non-negative (multiplier >= 1)")

    def backoff_s(self, failures: int) -> float:
        """Virtual delay after the ``failures``-th consecutive failure (1-based)."""
        return min(self.base_delay_s * self.multiplier ** (failures - 1), self.max_delay_s)

    def schedule(self) -> list[float]:
        """The full (deterministic) backoff sequence, for docs and tests."""
        return [self.backoff_s(i) for i in range(1, self.max_attempts)]

    def run(self, op, *, transport=None, label: str = "operation"):
        """Call ``op(attempt)`` until it returns, retrying transport errors.

        ``op`` receives the 1-based attempt number.  Between attempts the
        policy advances the transport's virtual clock by the backoff delay.
        Non-transport exceptions propagate immediately — they are bugs or
        final protocol verdicts, not delivery noise.
        """
        last: TransportError | None = None
        for attempt in range(1, self.max_attempts + 1):
            perfstats.incr("retry.attempts")
            try:
                result = op(attempt)
            except TransportError as exc:
                last = exc
                backoff = self.backoff_s(attempt)
                trace.event(
                    "retry",
                    label=label,
                    attempt=attempt,
                    error=type(exc).__name__,
                    backoff_s=backoff,
                )
                if transport is not None and attempt < self.max_attempts:
                    transport.sleep(backoff)
                continue
            if attempt > 1:
                perfstats.incr("retry.recovered")
                trace.event("retry_recovered", label=label, attempts=attempt)
            return result
        perfstats.incr("retry.gave_up")
        fault_step = last_fault_step(transport)
        trace.event(
            "retry_exhausted",
            label=label,
            attempts=self.max_attempts,
            error=type(last).__name__ if last else None,
            fault_step=fault_step,
        )
        raise RetryExhausted(
            f"{label} failed after {self.max_attempts} attempts: {last}",
            label=label,
            attempts=self.max_attempts,
            last_error=last,
            fault_step=fault_step,
        ) from last


#: The policy every :class:`~repro.chaos.ChaosTransport` leg retries under.
RETRY = RetryPolicy()
