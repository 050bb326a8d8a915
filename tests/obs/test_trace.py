"""Tracer: span nesting, ids/parents, events, sinks, kill switch."""

import json

import pytest

from repro.common.errors import TransportTimeout
from repro.obs.metrics import set_obs_enabled
from repro.obs.trace import MAX_BUFFERED_SPANS, TRACER, Tracer


@pytest.fixture()
def tracer():
    return Tracer(clock=iter(range(1000)).__next__)


class TestNesting:
    def test_root_span_has_no_parent(self, tracer):
        with tracer.span("search"):
            pass
        (span,) = tracer.export()
        assert span["parent_id"] is None
        assert span["trace_id"] != span["span_id"]

    def test_child_inherits_trace_id_and_parent(self, tracer):
        with tracer.span("search") as root:
            with tracer.span("submit") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id

    def test_children_finish_before_parent_in_export(self, tracer):
        with tracer.span("search"):
            with tracer.span("submit"):
                pass
            with tracer.span("verify_settle"):
                pass
        names = [s["name"] for s in tracer.export()]
        assert names == ["submit", "verify_settle", "search"]

    def test_sibling_roots_get_distinct_traces(self, tracer):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.export()
        assert a["trace_id"] != b["trace_id"]

    def test_ids_are_deterministic_sequence(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        fresh = Tracer(clock=iter(range(1000)).__next__)
        with fresh.span("a"):
            with fresh.span("b"):
                pass
        assert [s["span_id"] for s in tracer.export()] == [
            s["span_id"] for s in fresh.export()
        ]


class TestEventsAndStatus:
    def test_event_attaches_to_innermost_span(self, tracer):
        with tracer.span("search"):
            with tracer.span("submit"):
                tracer.event("fault", kind="drop", step=3)
        submit = tracer.export()[0]
        assert submit["events"] == [{"event": "fault", "kind": "drop", "step": 3}]

    def test_event_without_open_span_is_dropped(self, tracer):
        tracer.event("orphan")
        assert tracer.export() == []

    def test_set_attr(self, tracer):
        with tracer.span("search"):
            tracer.set_attr("query_id", 7)
        assert tracer.export()[0]["attrs"]["query_id"] == 7

    def test_exception_marks_status_and_propagates(self, tracer):
        with pytest.raises(TransportTimeout):
            with tracer.span("submit"):
                raise TransportTimeout("dropped")
        assert tracer.export()[0]["status"] == "error:TransportTimeout"

    def test_duration_from_injected_clock(self, tracer):
        with tracer.span("a"):
            pass
        span = tracer.export()[0]
        assert span["end_s"] - span["start_s"] == 1


class TestSinkAndLifecycle:
    def test_jsonl_sink_appends_records(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer.set_sink(str(path))
        with tracer.span("search"):
            with tracer.span("submit"):
                pass
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["type"] == "span" for line in lines)

    def test_reset_clears_buffer_and_restarts_ids(self, tracer):
        with tracer.span("a"):
            pass
        first_id = tracer.export()[0]["span_id"]
        tracer.reset()
        assert tracer.export() == []
        with tracer.span("a"):
            pass
        assert tracer.export()[0]["span_id"] == first_id

    def test_buffer_keeps_only_the_newest_spans(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "trace.jsonl"
        tracer.set_sink(str(path))
        total = MAX_BUFFERED_SPANS + 5
        for i in range(total):
            with tracer.span("op", i=i):
                pass
        buffered = tracer.export()
        assert len(buffered) == MAX_BUFFERED_SPANS
        assert [s["attrs"]["i"] for s in buffered] == list(range(5, total))
        # the sink still has every span
        assert len(path.read_text().splitlines()) == total

    def test_span_durations_reach_metrics(self):
        from repro.obs.metrics import REGISTRY

        with TRACER.span("unit_test_span"):
            pass
        hist = REGISTRY.histogram("span.unit_test_span_s")
        assert hist is not None and hist.count >= 1


class TestKillSwitch:
    def test_disabled_spans_yield_none_and_record_nothing(self, tracer):
        set_obs_enabled(False)
        with tracer.span("search") as span:
            assert span is None
            tracer.event("fault")
            tracer.set_attr("k", 1)
        assert tracer.export() == []

    def test_reenable_mid_session(self, tracer):
        set_obs_enabled(False)
        with tracer.span("off"):
            pass
        set_obs_enabled(True)
        with tracer.span("on"):
            pass
        assert [s["name"] for s in tracer.export()] == ["on"]
