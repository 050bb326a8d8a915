"""Transports: how a message crosses a party boundary.

Every leg of the protocol is one ``transport.deliver(channel, message,
handler, ...)`` call inside one ``transport.retried(label, op)`` scope.
Two transports implement that interface:

* :data:`DIRECT` (:class:`DirectTransport`, the default) — the boundary is
  an in-process call: ``deliver`` returns ``handler(message)`` and
  ``retried`` runs ``op`` once;
* :class:`ChaosTransport` — everything only a faulting transport needs:
  it encodes the message with the leg's ``codec`` (:mod:`repro.core.wire`
  / :mod:`repro.storage` functions), frames it with a content digest,
  injects faults, keeps the receiver-side idempotency cache, crash-restarts
  the receiving ``endpoint`` and retries under :data:`~repro.chaos.retry.
  RETRY`.

Before, during and after a chaos delivery a
:class:`~repro.chaos.faults.FaultPlan` injects:

* **drop / stall** — the request never arrives (or arrives too late):
  the virtual clock advances past the delivery window and
  :class:`~repro.common.errors.TransportTimeout` is raised,
* **corrupt** — a bit of the framed wire bytes flips; the frame's content
  digest catches it at the receiver (the TCP/TLS integrity layer every
  real deployment has) and the message is discarded —
  :class:`~repro.common.errors.TransportCorruption`,
* **reorder** — the message is held and delivered *after* the next message
  on the same channel (stale at-least-once delivery),
* **crash** — the receiving endpoint dies before processing and restarts
  from its durable state; the request is lost,
* **duplicate** — the handler sees the message twice; receiver-side
  idempotency (``idempotency_key``) deduplicates state-changing calls,
* **reply drop / stall** — the handler ran but its answer is lost, which
  is exactly the case idempotent re-submission exists for.

Every injected fault increments a ``chaos.injected.<kind>`` perfstats
counter, so CI can gate on *behaviour* (how many faults were survived)
instead of wall-clock.  Time is virtual (``clock`` advances, nothing
sleeps): chaos runs are as fast as clean ones and fully deterministic.
"""

from __future__ import annotations

import hashlib

from ..common import perfstats
from ..common.encoding import decode_parts, encode_parts
from ..common.errors import ParameterError, TransportCorruption, TransportTimeout
from ..obs import trace
from .faults import FaultKind, FaultPlan, FaultProfile, profile_named
from .retry import RETRY

# Channel names for the Fig. 1 party boundaries.
USER_TO_CONTRACT = "user->contract"
CONTRACT_TO_CLOUD = "contract->cloud"
CLOUD_TO_CONTRACT = "cloud->contract"
OWNER_TO_CLOUD = "owner->cloud"
OWNER_TO_CONTRACT = "owner->contract"

_DEFAULT_SEED = 0xC4A05  # "chaos"


def shard_channel(base: str, shard_id: int) -> str:
    """Per-shard fault leg: ``contract->cloud#shard2`` etc.

    :class:`~repro.chaos.faults.FaultPlan` keys its schedules by channel
    name, so giving every shard of the serving tier its own channel makes
    shard legs fail *independently* — one shard's drop/stall/crash schedule
    never consumes another shard's (or the unsharded channel's) fault draws.
    """
    return f"{base}#shard{shard_id}"


#: The codec of a message that already is wire bytes.
RAW = (bytes, bytes)


def frame(payload: bytes) -> bytes:
    """Wrap wire bytes with a content digest (the transport integrity layer)."""
    return encode_parts(hashlib.sha256(payload).digest(), payload)


def unframe(blob: bytes) -> bytes:
    """Validate and strip the frame; corrupted frames never reach a codec."""
    try:
        digest, payload = decode_parts(blob)
    except (ParameterError, ValueError) as exc:
        raise TransportCorruption(f"unparseable frame: {exc}") from exc
    if hashlib.sha256(payload).digest() != digest:
        raise TransportCorruption("frame failed its content digest")
    return payload


class DirectTransport:
    """The default transport: every party boundary is an in-process call.

    It cannot fault, so it does nothing a faulting transport needs: no
    encoding, framing, retry, idempotency cache, crash restart, counters or
    spans.  :data:`DIRECT` is its one instance.
    """

    name = "direct"

    def deliver(self, channel: str, message, handler, **leg):
        return handler(message)

    def retried(self, label: str, op):
        """Run ``op`` once; ``None`` marks an attempt that is not numbered."""
        return op(None)


DIRECT = DirectTransport()


class ChaosTransport:
    """Deterministic fault-injecting message channel between parties."""

    name = "chaos"

    def __init__(
        self,
        plan: FaultPlan,
        *,
        timeout_s: float = 1.0,
        latency_s: float = 0.001,
    ) -> None:
        self.plan = plan
        self.timeout_s = timeout_s
        self.latency_s = latency_s
        #: Virtual seconds elapsed; advanced by deliveries, timeouts and
        #: retry backoff.  Never wall-clock — chaos runs don't sleep.
        self.clock = 0.0
        #: Receiver-side idempotency cache: key -> cached handler reply.
        self._idempotent: dict[object, object] = {}
        #: Reordered messages awaiting stale delivery, per channel.
        self._held: dict[str, list[tuple]] = {}

    # ------------------------------------------------------------ builders

    @classmethod
    def for_profile(cls, name: str, seed: int = _DEFAULT_SEED) -> "ChaosTransport":
        return cls(FaultPlan(profile_named(name), seed))

    # ----------------------------------------------------------- the clock

    def sleep(self, seconds: float) -> None:
        """Advance virtual time (retry backoff 'waits' here)."""
        self.clock += seconds

    # ------------------------------------------------------------ delivery

    def deliver(
        self,
        channel: str,
        message,
        handler,
        *,
        codec=RAW,
        idempotency_key: object | None = None,
        cache_if=None,
        endpoint=None,
    ):
        """Carry ``message`` to ``handler`` through the fault plan.

        ``codec`` is the leg's ``(dump, load)`` pair: the message crosses as
        the framed ``dump(message)`` bytes and ``handler`` receives
        ``load(bytes)``; the handler's reply is returned as is.
        ``idempotency_key`` enables receiver-side dedup: a repeated delivery
        of the same logical operation returns the cached reply instead of
        re-executing — this is what makes re-submission after a lost reply
        safe.
        ``cache_if(reply)`` limits which replies are cached (e.g. only
        non-reverted receipts, so a transiently reverting call
        re-executes).  ``endpoint`` is the receiving cloud (or shard) a
        crash fault restarts.

        Raises :class:`TransportTimeout` / :class:`TransportCorruption` for
        :meth:`retried` to absorb.
        """
        dump, load = codec
        framed = frame(dump(message))
        self._deliver_stale(channel)
        fault = self.plan.draw_request(channel)
        if fault is not None:
            self._trace_fault(channel, fault, leg="request")
        if fault is FaultKind.DROP:
            self._timeout("chaos.injected.drop", f"{channel}: request dropped")
        if fault is FaultKind.STALL:
            self._timeout("chaos.injected.stall", f"{channel}: request stalled")
        if fault is FaultKind.CRASH:
            perfstats.incr("chaos.injected.crash")
            if endpoint is not None:
                self._restart(channel, endpoint)
            self.clock += self.timeout_s
            raise TransportTimeout(f"{channel}: endpoint crashed mid-delivery")
        if fault is FaultKind.CORRUPT:
            perfstats.incr("chaos.injected.corrupt")
            framed = self._flip_bit(framed)
            self.clock += self.timeout_s
            try:
                unframe(framed)
            except TransportCorruption:
                perfstats.incr("chaos.detected.corrupt")
                raise
            # A flip inside the digest-sized prefix could in principle keep
            # the frame parseable yet mismatched — unframe always raises on
            # mismatch, so reaching here means the flip landed in framing
            # bytes that still failed; either way the raise above covers it.
            raise TransportCorruption(f"{channel}: frame corrupted in flight")
        if fault is FaultKind.REORDER:
            perfstats.incr("chaos.injected.reorder")
            self._held.setdefault(channel, []).append(
                (framed, load, handler, idempotency_key, cache_if)
            )
            self.clock += self.timeout_s
            raise TransportTimeout(f"{channel}: request overtaken (reordered)")

        self.clock += self.latency_s
        result = self._handle(framed, load, handler, idempotency_key, cache_if)
        if self.plan.draw_duplicate(channel):
            perfstats.incr("chaos.injected.duplicate")
            self._trace_fault(channel, FaultKind.DUPLICATE, leg="request")
            self._handle(framed, load, handler, idempotency_key, cache_if)
        reply_fault = self.plan.draw_reply(channel)
        if reply_fault is not None:
            self._trace_fault(channel, reply_fault, leg="reply")
        if reply_fault is FaultKind.DROP:
            self._timeout("chaos.injected.reply_drop", f"{channel}: reply dropped")
        if reply_fault is FaultKind.STALL:
            self._timeout("chaos.injected.reply_stall", f"{channel}: reply stalled")
        return result

    def retried(self, label: str, op):
        """Run ``op(attempt)`` under :data:`RETRY`, backing off on this clock.

        Transport errors are retried; when the budget runs out the policy
        raises :class:`~repro.common.errors.RetryExhausted`.
        """
        return RETRY.run(op, transport=self, label=label)

    # ------------------------------------------------------------ internals

    def _restart(self, channel: str, endpoint) -> None:
        """Crash-restart the receiving endpoint from its durable state.

        An endpoint with a segment store reopens from it (possibly *warm*,
        from its checkpoint).  Otherwise it reloads a snapshot of its
        ``(I, X, Ac)``, taken here: only an install changes that state, and
        an install crosses its leg whole, so at a crash the snapshot is
        what the last install left, and fault-free legs never pay for one.
        Witnesses recovery did not bring back are served by live ``MemWit``.
        """
        shard = "#shard" in channel
        perfstats.incr("chaos.shard_restarts" if shard else "chaos.cloud_restarts")
        if endpoint.has_store:
            endpoint.reopen()
        else:
            endpoint.restore(endpoint.snapshot())

    def _trace_fault(self, channel: str, kind: FaultKind, *, leg: str) -> None:
        """Attach one injection to the current span, with its plan step.

        The step index points into ``plan.history``, so a trace event and
        the replayable schedule cross-reference each other exactly —
        "which decision broke this attempt" is answerable offline.
        """
        history = self.plan.history
        trace.event(
            "fault",
            channel=channel,
            leg=leg,
            kind=kind.value,
            step=history[-1][0] if history else None,
        )

    def _timeout(self, counter: str, message: str) -> None:
        perfstats.incr(counter)
        self.clock += self.timeout_s
        raise TransportTimeout(message)

    def _flip_bit(self, framed: bytes) -> bytes:
        position = self.plan.corruption_bit(len(framed))
        blob = bytearray(framed)
        blob[position // 8] ^= 1 << (position % 8)
        return bytes(blob)

    def _handle(self, framed: bytes, load, handler, key, cache_if):
        payload = unframe(framed)
        if key is not None and key in self._idempotent:
            perfstats.incr("chaos.deduped")
            return self._idempotent[key]
        result = handler(load(payload))
        if key is not None and (cache_if is None or cache_if(result)):
            self._idempotent[key] = result
        return result

    def _deliver_stale(self, channel: str) -> None:
        """Late delivery of reordered messages, before the newer one lands."""
        for framed, load, handler, key, cache_if in self._held.pop(channel, []):
            perfstats.incr("chaos.delivered.stale")
            try:
                self._handle(framed, load, handler, key, cache_if)
            except TransportCorruption:
                pass  # the held frame rotted; at-least-once still holds via retry
