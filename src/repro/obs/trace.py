"""Structured tracing: spans with ids/parents, events, JSONL emission.

One search is five party boundaries; when it degrades under chaos the only
honest answer to "what happened?" is an execution trail.  The tracer keeps
it deliberately small:

* a **span** covers one protocol step (``search`` → ``submit`` /
  ``cloud.search`` / ``verify_settle``; ``insert`` → ``install`` /
  ``update_ads``) and carries a ``trace_id`` shared by the whole operation,
  its own ``span_id``, and its parent's id — enough to reconstruct the tree;
* **events** attach point-in-time facts to the innermost open span: every
  chaos-transport fault injection (with its
  :class:`~repro.chaos.faults.FaultPlan` history index), every retry
  attempt and backoff, every idempotent dedup;
* finished spans are appended to an in-memory buffer that keeps the newest
  :data:`MAX_BUFFERED_SPANS` and — when a sink is set via
  :meth:`Tracer.set_sink` or ``REPRO_TRACE_FILE`` — emitted as one JSON line
  each, append-only, so a crashed run still leaves its whole trail.

Span ids are sequence numbers, not random: traces are replayable artifacts
and two runs of the same seed produce the same tree.  Durations are also
folded into the metrics registry as ``span.<name>_s`` histograms (the
``_s`` suffix marks them wall-clock, i.e. excluded from determinism
comparisons).  Everything is a no-op under ``REPRO_OBS=0``.

Tracing is single-process by design: spans cover party boundaries, which
all run in the coordinating process.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from . import metrics

#: Environment sink: path to append JSONL span records to.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

#: How many finished spans the in-memory buffer keeps (newest win).  A long
#: run finishes six spans per search; the sink, not the buffer, is the
#: complete record.
MAX_BUFFERED_SPANS = 4096


@dataclass
class Span:
    """One traced protocol step; mutable while open, frozen into JSON on end."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_s: float
    attrs: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    end_s: float | None = None
    status: str = "ok"

    @property
    def duration_s(self) -> float | None:
        return None if self.end_s is None else self.end_s - self.start_s

    def to_record(self) -> dict:
        return {
            "type": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "status": self.status,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
            "events": list(self.events),
        }


class Tracer:
    """Span stack + finished-span buffer + optional JSONL sink.

    The protocol is single-threaded per system, so the "current span" is a
    plain stack.  ``clock`` is injectable: chaos systems pin it to the
    transport's virtual clock so trace timings line up with the fault
    schedule instead of wall time.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock or time.perf_counter
        self._stack: list[Span] = []
        self._finished: deque[dict] = deque(maxlen=MAX_BUFFERED_SPANS)
        self._sink_path: str | None = None
        self._next_id = 1

    # ----------------------------------------------------------------- ids

    def _new_id(self) -> str:
        value = self._next_id
        self._next_id += 1
        return f"{value:08x}"

    # --------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span | None]:
        """Open a child of the current span (or a new root); yields the span.

        Yields ``None`` when the layer is disabled — callers must go through
        :meth:`set_attr`/:meth:`event` rather than poking the yielded object
        if they want kill-switch safety.
        """
        if not metrics.obs_enabled():
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(
            trace_id=parent.trace_id if parent else self._new_id(),
            span_id=self._new_id(),
            parent_id=parent.span_id if parent else None,
            name=name,
            start_s=self.clock(),
            attrs=dict(attrs),
        )
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = f"error:{type(exc).__name__}"
            raise
        finally:
            self._stack.pop()
            span.end_s = self.clock()
            self._finish(span)

    def event(self, name: str, **attrs) -> None:
        """Attach an event to the innermost open span (dropped if none)."""
        if not metrics.obs_enabled() or not self._stack:
            return
        self._stack[-1].events.append({"event": name, **attrs})

    def set_attr(self, key: str, value) -> None:
        """Set an attribute on the innermost open span (no-op if none)."""
        if not metrics.obs_enabled() or not self._stack:
            return
        self._stack[-1].attrs[key] = value

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def current_trace_id(self) -> str | None:
        return self._stack[-1].trace_id if self._stack else None

    # ------------------------------------------------------------ emission

    def _finish(self, span: Span) -> None:
        record = span.to_record()
        self._finished.append(record)
        metrics.observe(f"span.{span.name}_s", span.duration_s or 0.0)
        path = self._sink_path or os.environ.get(TRACE_FILE_ENV)
        if path:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def set_sink(self, path: str | None) -> None:
        """Append finished spans to ``path`` as JSONL (``None`` disables)."""
        self._sink_path = path

    def export(self) -> list[dict]:
        """Buffered finished spans, oldest first (children before their parents)."""
        return list(self._finished)

    def reset(self) -> None:
        """Drop buffered spans and restart ids (sink path is kept)."""
        self._stack.clear()
        self._finished.clear()
        self._next_id = 1


#: The process-wide tracer the protocol layers report to.
TRACER = Tracer()


def span(name: str, **attrs):
    return TRACER.span(name, **attrs)


def event(name: str, **attrs) -> None:
    TRACER.event(name, **attrs)


def set_attr(key: str, value) -> None:
    TRACER.set_attr(key, value)


def current_trace_id() -> str | None:
    return TRACER.current_trace_id()
