"""Low-overhead structured tracing: hierarchical spans in ring buffers.

A :class:`Tracer` records :class:`Span` records — monotonic start/end,
thread id, parent span id, and a small dict of typed attributes — into
*per-thread ring buffers*:

* **Lock-free appends.**  Each thread owns its buffer; the tracer's
  lock is taken only once per thread, at buffer creation.  A span close
  is an end-timestamp write plus a list append (or, at capacity, an
  index store) on the owning thread — no cross-thread contention on the
  hot path.
* **Bounded memory.**  Each buffer holds at most
  ``max_spans_per_thread`` finished spans; beyond that, the oldest are
  overwritten and :attr:`Tracer.dropped` counts what was lost.  A
  tracer can therefore stay attached to a long-lived service without
  growing without bound.
* **Cross-thread parent linkage.**  The current span is tracked in a
  ``threading.local`` stack; fan-out sites (morsel tasks) capture the
  dispatching thread's span id with :meth:`Tracer.current_span_id` and
  pass it as an explicit ``parent`` so a worker's spans hang under the
  region that dispatched them.

Disarmed cost is zero by construction: engine code never calls the
tracer directly — it checks an attribute for ``None`` first (see
``ExecutionMetrics.tracer``), the same discipline as
:func:`repro.testing.faults.fault_point`.

>>> tracer = Tracer()
>>> with tracer.span("query", query="q1") as outer:
...     with tracer.span("optimize") as inner:
...         pass
>>> spans = tracer.spans()
>>> [s.name for s in spans]
['query', 'optimize']
>>> spans[1].parent_id == spans[0].span_id
True
"""

from __future__ import annotations

import itertools
import json
import threading
import time

_span_ids = itertools.count(1)
# Bound once: the hot path calls the clock twice per span, and a global
# load beats the attribute chain.
_clock = time.perf_counter


class Span:
    """One traced region: a name, a wall-clock interval, attributes.

    ``end`` is ``None`` while the span is open.  ``attributes`` holds
    only scalars (str/int/float/bool) so export never chases object
    graphs.  An exception leaving the span body stamps an ``error``
    attribute — how timeout/cancel/degrade causes attach to the span
    that aborted (see the resilience instrumentation).
    """

    __slots__ = (
        "span_id", "parent_id", "name", "thread_id",
        "start", "end", "attributes", "_tracer",
    )

    def __init__(
        self,
        name: str,
        parent_id: int | None,
        thread_id: int,
        start: float,
        attributes: dict,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.name = name
        self.thread_id = thread_id
        self.start = start
        self.end: float | None = None
        self.attributes = attributes
        self._tracer = tracer

    # The span is its own context manager (no per-span scope object —
    # one allocation per traced region is the hot-path budget).
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None:
            self.attributes["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._close(self)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def is_event(self) -> bool:
        """Point events have zero extent by construction (end==start)."""
        return self.end == self.start

    def set(self, **attributes) -> None:
        """Attach attributes to an open span (e.g. rows out, hit/miss)."""
        self.attributes.update(attributes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration * 1e3:.3f} ms)"
        )


class _ThreadBuffer:
    """Per-thread recording state: the span ring plus the open-span stack.

    Owned by exactly one thread, so appends and stack pushes are plain
    list operations with no locking.  ``ident`` caches the owning
    thread's id so the hot path skips ``threading.get_ident()``.
    """

    __slots__ = (
        "spans", "capacity", "write_index", "dropped", "stack", "ident",
    )

    def __init__(self, capacity: int, ident: int) -> None:
        self.spans: list[Span] = []
        self.capacity = capacity
        self.write_index = 0
        self.dropped = 0
        self.stack: list[Span] = []
        self.ident = ident

    def append(self, span: Span) -> None:
        if len(self.spans) < self.capacity:
            self.spans.append(span)
            return
        # At capacity: overwrite the oldest (bounded memory cap).
        self.spans[self.write_index] = span
        self.write_index = (self.write_index + 1) % self.capacity
        self.dropped += 1


class Tracer:
    """Records hierarchical spans; one instance may serve many queries.

    Parameters
    ----------
    max_spans_per_thread:
        Ring-buffer capacity per recording thread.  The memory cap is
        ``threads × max_spans_per_thread × O(one span)``.
    telemetry:
        Optional :class:`~repro.obs.telemetry.ServiceTelemetry`; every
        finished span is offered to it (the service uses this to feed
        the morsel-task duration histogram without a second clock).
    """

    def __init__(
        self, max_spans_per_thread: int = 8192, telemetry=None
    ) -> None:
        self._capacity = max(int(max_spans_per_thread), 1)
        self.telemetry = telemetry
        self._registry_lock = threading.Lock()
        self._buffers: dict[int, _ThreadBuffer] = {}
        self._local = threading.local()

    # -- recording ------------------------------------------------------

    def span(
        self, name: str, parent: int | None = None, **attributes
    ) -> Span:
        """Open a span; use the returned :class:`Span` as a context manager.

        Without an explicit ``parent`` the span nests under the current
        thread's innermost open span.  Fan-out callers pass the
        dispatching span's id (:meth:`current_span_id`) so worker-side
        spans keep their place in the query's hierarchy.
        """
        state = self._state()
        stack = state.stack
        if parent is None and stack:
            parent = stack[-1].span_id
        span = Span(
            name,
            parent,
            state.ident,
            _clock(),
            attributes,  # the kwargs dict is fresh; owned by the span
            self,
        )
        stack.append(span)
        return span

    def event(self, name: str, parent: int | None = None, **attributes) -> Span:
        """Record a zero-duration point event under the current span."""
        state = self._state()
        stack = state.stack
        if parent is None and stack:
            parent = stack[-1].span_id
        span = Span(
            name,
            parent,
            state.ident,
            _clock(),
            attributes,
        )
        span.end = span.start
        state.append(span)
        return span

    def annotate(self, **attributes) -> None:
        """Attach attributes to this thread's innermost open span — for
        code that runs inside a span some caller opened (an operator
        marking its plan-node span)."""
        stack = self._state().stack
        if stack:
            stack[-1].attributes.update(attributes)

    def current_span_id(self) -> int | None:
        """Id of this thread's innermost open span (fan-out linkage)."""
        stack = self._state().stack
        return stack[-1].span_id if stack else None

    def _close(self, span: Span) -> None:
        span.end = _clock()
        state = self._state()
        stack = state.stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misnested close; keep the stack sane
            try:
                stack.remove(span)
            except ValueError:
                pass
        state.append(span)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.observe_span(span)

    def _state(self) -> _ThreadBuffer:
        state = getattr(self._local, "state", None)
        if state is None:
            ident = threading.get_ident()
            state = _ThreadBuffer(self._capacity, ident)
            self._local.state = state
            with self._registry_lock:
                self._buffers[ident] = state
        return state

    # -- reading --------------------------------------------------------

    def spans(self, name: str | None = None) -> list[Span]:
        """All finished spans (optionally filtered by name), by start time.

        Worker threads may still be appending; under the GIL a list
        append is atomic, so readers see a consistent prefix — callers
        wanting a complete picture read after the query's barrier, which
        is where the service and ``explain_analyze`` read.
        """
        with self._registry_lock:
            buffers = list(self._buffers.values())
        collected: list[Span] = []
        for buffer in buffers:
            collected.extend(buffer.spans)
        if name is not None:
            collected = [span for span in collected if span.name == name]
        collected.sort(key=lambda span: (span.start, span.span_id))
        return collected

    @property
    def dropped(self) -> int:
        """Finished spans overwritten by the ring-buffer memory cap."""
        with self._registry_lock:
            buffers = list(self._buffers.values())
        return sum(buffer.dropped for buffer in buffers)

    def reset(self) -> None:
        """Drop every recorded span (open spans keep recording)."""
        with self._registry_lock:
            buffers = list(self._buffers.values())
        for buffer in buffers:
            buffer.spans = []
            buffer.write_index = 0
            buffer.dropped = 0

    # -- export ---------------------------------------------------------

    def export_chrome(self) -> str:
        """The recorded spans as Chrome trace-event JSON.

        Load the returned string (saved to a file) in
        ``chrome://tracing`` or https://ui.perfetto.dev to inspect a
        query's timeline — the morsel fan-out shows up as parallel
        tracks, one per worker thread.  Spans become complete (``"X"``)
        events, point events become instants (``"i"``); timestamps are
        microseconds on the shared monotonic clock, so spans from
        different threads line up.
        """
        events = []
        for span in self.spans():
            args = {
                key: value for key, value in span.attributes.items()
            }
            if span.parent_id is not None:
                args["parent_span"] = span.parent_id
            args["span_id"] = span.span_id
            entry = {
                "name": span.name,
                "ph": "i" if span.is_event else "X",
                "ts": span.start * 1e6,
                "pid": 1,
                "tid": span.thread_id,
                "args": args,
            }
            if not span.is_event:
                entry["dur"] = span.duration * 1e6
            else:
                entry["s"] = "t"  # instant scoped to its thread track
            events.append(entry)
        return json.dumps({"traceEvents": events}, indent=1)

    def write_chrome(self, path) -> None:
        """Write :meth:`export_chrome` output to ``path``."""
        from pathlib import Path

        Path(path).write_text(self.export_chrome(), encoding="utf-8")
