"""Unit tests for ChaosTransport: framing, fault injection, idempotency."""

import pytest

from repro.chaos import ChaosTransport, FaultKind, FaultPlan, profile_named
from repro.chaos.faults import FaultProfile, WEIGHT_SCALE
from repro.chaos.transport import frame, unframe
from repro.common import perfstats
from repro.common.errors import TransportCorruption, TransportTimeout


def clean_transport(**kwargs) -> ChaosTransport:
    return ChaosTransport(FaultPlan(profile_named("clean"), seed=0), **kwargs)


def transport_for(profile: FaultProfile, seed: int = 0, **kwargs) -> ChaosTransport:
    return ChaosTransport(FaultPlan(profile, seed), **kwargs)


class TestFraming:
    def test_roundtrip(self):
        payload = b"the wire bytes"
        assert unframe(frame(payload)) == payload

    def test_any_single_bit_flip_is_detected(self):
        framed = frame(b"sensitive payload")
        for bit in range(0, len(framed) * 8, 7):  # sample every 7th bit
            blob = bytearray(framed)
            blob[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(TransportCorruption):
                unframe(bytes(blob))

    def test_truncation_is_detected(self):
        framed = frame(b"payload")
        with pytest.raises(TransportCorruption):
            unframe(framed[: len(framed) // 2])


class TestCleanDelivery:
    def test_handler_sees_payload_and_reply_returns(self):
        t = clean_transport()
        reply = t.deliver("a->b", b"ping", lambda blob: blob + b"-pong")
        assert reply == b"ping-pong"

    def test_clock_advances_by_latency_only(self):
        t = clean_transport(latency_s=0.25)
        t.deliver("a->b", b"x", lambda blob: None)
        t.deliver("a->b", b"x", lambda blob: None)
        assert t.clock == pytest.approx(0.5)

    def test_no_counters_touched(self):
        perfstats.reset()
        t = clean_transport()
        t.deliver("a->b", b"x", lambda blob: None)
        assert not any(k.startswith("chaos.") for k in perfstats.snapshot())


class TestFaultInjection:
    def test_drop_times_out_without_running_handler(self):
        t = transport_for(FaultProfile(name="drop", drop=WEIGHT_SCALE))
        calls = []
        perfstats.reset()
        with pytest.raises(TransportTimeout, match="dropped"):
            t.deliver("a->b", b"x", calls.append)
        assert calls == []
        assert perfstats.get("chaos.injected.drop") == 1
        assert t.clock == pytest.approx(t.timeout_s)

    def test_corrupt_detected_and_handler_never_sees_bad_bytes(self):
        t = transport_for(FaultProfile(name="rot", corrupt=WEIGHT_SCALE))
        calls = []
        perfstats.reset()
        with pytest.raises(TransportCorruption):
            t.deliver("a->b", b"x" * 64, calls.append)
        assert calls == []
        assert perfstats.get("chaos.injected.corrupt") == 1
        assert perfstats.get("chaos.detected.corrupt") == 1

    def test_crash_invokes_hook_then_times_out(self):
        t = transport_for(FaultProfile(name="die", crash=WEIGHT_SCALE))
        events = []

        class Endpoint:
            has_store = False

            def snapshot(self):
                events.append("snapshot")
                return b"state"

            def restore(self, blob):
                events.append(("restored", blob))

        perfstats.reset()
        with pytest.raises(TransportTimeout, match="crashed"):
            t.deliver(
                "a->b", b"x", lambda blob: events.append("handled"), endpoint=Endpoint()
            )
        # The endpoint died before processing and restarted from its state.
        assert events == ["snapshot", ("restored", b"state")]
        assert perfstats.get("chaos.cloud_restarts") == 1

    def test_reply_drop_runs_handler_but_raises(self):
        t = transport_for(FaultProfile(name="replyless", reply_drop=WEIGHT_SCALE))
        calls = []
        with pytest.raises(TransportTimeout, match="reply dropped"):
            t.deliver("a->b", b"x", lambda blob: calls.append(blob) or b"ok")
        assert calls == [b"x"]  # the receiver DID process it

    def test_reorder_held_then_delivered_stale(self):
        # Reorder exactly once, then clean (force_clean_after=1).
        t = transport_for(
            FaultProfile(name="late", reorder=WEIGHT_SCALE, force_clean_after=1)
        )
        seen = []
        perfstats.reset()
        with pytest.raises(TransportTimeout, match="reordered"):
            t.deliver("a->b", b"first", seen.append)
        assert seen == []
        t.deliver("a->b", b"second", lambda blob: seen.append(blob))
        # The held message landed before the newer one: stale, at-least-once.
        assert seen == [b"first", b"second"]
        assert perfstats.get("chaos.delivered.stale") == 1


class TestIdempotency:
    def test_duplicate_delivery_deduplicated(self):
        t = transport_for(
            FaultProfile(name="dup", duplicate=WEIGHT_SCALE, force_clean_after=1)
        )
        calls = []
        perfstats.reset()
        reply = t.deliver(
            "a->b", b"op", lambda blob: calls.append(blob) or b"done",
            idempotency_key=("op", 1),
        )
        assert reply == b"done"
        assert calls == [b"op"]  # handler ran once despite the duplicate
        assert perfstats.get("chaos.injected.duplicate") == 1
        assert perfstats.get("chaos.deduped") == 1

    def test_duplicate_without_key_reexecutes(self):
        t = transport_for(
            FaultProfile(name="dup", duplicate=WEIGHT_SCALE, force_clean_after=1)
        )
        calls = []
        t.deliver("a->b", b"op", lambda blob: calls.append(blob))
        assert calls == [b"op", b"op"]

    def test_resend_returns_cached_reply(self):
        t = clean_transport()
        counter = {"n": 0}

        def handler(blob):
            counter["n"] += 1
            return counter["n"]

        first = t.deliver("a->b", b"x", handler, idempotency_key="k")
        second = t.deliver("a->b", b"x", handler, idempotency_key="k")
        assert (first, second) == (1, 1)

    def test_cache_if_false_means_reexecution(self):
        t = clean_transport()
        counter = {"n": 0}

        def handler(blob):
            counter["n"] += 1
            return counter["n"]

        # Simulates a reverted receipt: not cached, so the retry re-executes.
        first = t.deliver("a->b", b"x", handler, idempotency_key="k", cache_if=lambda r: r > 1)
        second = t.deliver("a->b", b"x", handler, idempotency_key="k", cache_if=lambda r: r > 1)
        third = t.deliver("a->b", b"x", handler, idempotency_key="k", cache_if=lambda r: r > 1)
        assert (first, second, third) == (1, 2, 2)


class TestBuilders:
    def test_for_profile_and_seed(self):
        t = ChaosTransport.for_profile("lossy", seed=99)
        assert t.plan.profile.name == "lossy"
        assert t.plan.seed == 99

    def test_same_seed_same_fault_sequence_through_transport(self):
        def run(seed):
            t = ChaosTransport(FaultPlan(profile_named("lossy"), seed))
            log = []
            for i in range(60):
                try:
                    t.deliver("a->b", b"msg%d" % i, lambda blob: b"ok")
                    log.append("ok")
                except TransportTimeout:
                    log.append("timeout")
                except TransportCorruption:
                    log.append("corrupt")
            return log, t.plan.history

        assert run(5) == run(5)
        assert run(5) != run(6)
