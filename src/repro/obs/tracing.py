"""Hierarchical tracing: spans with trace/span IDs and parent links.

A :class:`Tracer` is the repository's one span sink.  Every finished
:class:`Span` is folded into per-name count/total/min/max aggregates
(:meth:`Tracer.totals` — what ``BENCH_summary.json`` and the JSON
``/metrics`` document carry) and, unless the tracer was built with
``max_spans=0``, kept as a record in a bounded ring buffer.  The
*current* span is tracked in a :mod:`contextvars` context variable, so
nesting is automatic within a thread (or task) and explicit across
threads via :func:`capture_context` / :func:`attach_context` — the
query frontend uses that pair to parent the batch-engine span, which
may run on another caller's thread, to the submitting request's trace.

The module-level hooks are no-ops until a tracer is installed::

    tracer = Tracer()
    previous = set_tracer(tracer)
    with span("http.request", method="GET") as s:
        with span("query.batch.evaluate", queries=100):
            ...
    record("bench.batch_anatomy", 0.012)   # a pre-measured duration
    set_tracer(previous)
    tracer.finished()   # -> list of span dicts, child linked to parent
    tracer.totals()     # -> {name: {count, total_s, min_s, max_s, mean_s}}

When no tracer is installed, :func:`span` returns a single shared no-op
context manager (:data:`NOOP_SPAN`) — no allocation, no contextvar
traffic — so the hooks are safe on hot paths.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any

_id_counter = itertools.count(1)


def _new_id() -> str:
    """A process-unique 16-hex-digit ID (monotonic, cheap, GIL-atomic)."""
    return f"{next(_id_counter):016x}"


class ContextSnapshot:
    """An immutable, thread-portable handle on a span's identity.

    Carry one across a thread boundary and re-enter it with
    :func:`attach_context`; spans started inside become children of the
    captured span even though they run on a different thread.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return (f"ContextSnapshot(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r})")


class Span:
    """One timed region of a trace; also its own context manager.

    Entering sets the span as the context's current span (so descendants
    parent to it); exiting restores the previous one, stamps the
    duration, and hands the finished record to the tracer.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id",
                 "attributes", "start_s", "duration_s", "error",
                 "_tracer", "_token")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: str | None,
                 attributes: dict[str, Any]) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self.start_s = 0.0
        self.duration_s: float | None = None
        self.error: str | None = None
        self._tracer = tracer
        self._token = None

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def context(self) -> ContextSnapshot:
        return ContextSnapshot(self.trace_id, self.span_id)

    def to_json(self) -> dict:
        record: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.error is not None:
            record["error"] = self.error
        return record

    def __enter__(self) -> "Span":
        self.start_s = time.perf_counter()
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self.start_s
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, "
                f"parent_id={self.parent_id!r})")


class _NoopSpan:
    """Shared, reentrant, allocation-free stand-in for a disabled span."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def context(self) -> None:
        return None


#: The one no-op span every disabled hook returns (identity-testable).
NOOP_SPAN = _NoopSpan()

_current: contextvars.ContextVar[Span | ContextSnapshot | None] = \
    contextvars.ContextVar("repro_obs_current_span", default=None)


class Tracer:
    """Folds finished spans into per-name aggregates and keeps their
    records in a bounded ring buffer (thread-safe).

    The aggregates are bounded by the number of distinct span names and
    count every span, including those the ring buffer drops, so one
    tracer can live as long as a server.  ``Tracer(max_spans=0)`` keeps
    aggregates only: no records, no drops, and no trace context for log
    correlation or cross-thread links.

    All state — aggregates, the deque *and* the drop tally — is guarded
    by one lock, so concurrent finishers, :meth:`drain` (the telemetry
    exporter's background thread), and renders never interleave
    half-updates.  Ring-buffer overflow is not silent: each dropped
    span bumps the ``repro_trace_spans_dropped_total`` counter on the
    active metrics registry (when one is installed) in addition to the
    local :attr:`dropped` tally.
    """

    def __init__(self, max_spans: int = 10_000) -> None:
        self.max_spans = max_spans
        self._spans: deque[dict] = deque(maxlen=max_spans)
        # name -> [count, total, min, max]
        self._aggregates: dict[str, list] = {}
        self._lock = threading.Lock()
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Spans lost to ring-buffer overflow since the last clear."""
        with self._lock:
            return self._dropped

    def _record_drop_metric(self) -> None:
        from repro.obs import metrics

        if metrics.enabled():
            metrics.inc("repro_trace_spans_dropped_total")

    def span(self, name: str, **attributes) -> Span:
        """Start (but do not enter) a span parented to the context's
        current span, if any."""
        parent = _current.get()
        if parent is None:
            trace_id, parent_id = _new_id(), None
        elif isinstance(parent, ContextSnapshot):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(self, name, trace_id, parent_id, attributes)

    def _fold(self, name: str, seconds: float) -> None:
        """Add one duration to its name's aggregate (lock held)."""
        stats = self._aggregates.get(name)
        if stats is None:
            self._aggregates[name] = [1, seconds, seconds, seconds]
        else:
            stats[0] += 1
            stats[1] += seconds
            stats[2] = min(stats[2], seconds)
            stats[3] = max(stats[3], seconds)

    def record(self, name: str, seconds: float) -> None:
        """Fold a pre-measured duration into ``name``'s aggregate (no
        record is kept)."""
        with self._lock:
            self._fold(name, float(seconds))

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._fold(span.name, span.duration_s)
            if not self.max_spans:
                return
            dropping = len(self._spans) == self.max_spans
            if dropping:
                self._dropped += 1
            self._spans.append(span.to_json())
        if dropping:
            self._record_drop_metric()

    def totals(self) -> dict[str, dict]:
        """Per span name: ``count``, ``total_s``, ``min_s``, ``max_s``
        and ``mean_s`` over every finished span and recorded duration."""
        with self._lock:
            aggregates = [(name, list(stats))
                          for name, stats in self._aggregates.items()]
        return {name: {"count": count, "total_s": total, "min_s": low,
                       "max_s": high, "mean_s": total / count}
                for name, (count, total, low, high) in aggregates}

    def finished(self) -> list[dict]:
        """Finished span records, oldest first."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[dict]:
        """Atomically take (and remove) every finished span record.

        This is the exporter's primitive: each finished span is handed
        out exactly once, even with concurrent finishers — a span is
        either still in the buffer for the next drain or in exactly one
        drained batch, never both.  The drop tally and the aggregates
        are left untouched (they are cumulative, like counters).
        """
        with self._lock:
            batch = list(self._spans)
            self._spans.clear()
        return batch

    def find(self, name: str) -> list[dict]:
        """Finished spans with the given name."""
        return [s for s in self.finished() if s["name"] == name]

    def clear(self) -> None:
        """Forget every record, aggregate and drop."""
        with self._lock:
            self._spans.clear()
            self._aggregates.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_active: Tracer | None = None


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the hook target; returns the previous one
    (pass it back to restore)."""
    global _active
    previous = _active
    _active = tracer
    return previous


def active_tracer() -> Tracer | None:
    return _active


def enabled() -> bool:
    return _active is not None


def span(name: str, **attributes):
    """Start a span on the active tracer; :data:`NOOP_SPAN` when none is
    installed."""
    tracer = _active
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attributes)


def record(name: str, seconds: float) -> None:
    """Fold a pre-measured duration into the active tracer's
    aggregates, if a tracer is installed."""
    tracer = _active
    if tracer is not None:
        tracer.record(name, seconds)


def current_context() -> ContextSnapshot | None:
    """The (trace_id, span_id) of the context's current span, for log
    correlation; ``None`` outside any span, when tracing is off, or
    when the tracer keeps no records."""
    tracer = _active
    if tracer is None or not tracer.max_spans:
        return None
    current = _current.get()
    if current is None:
        return None
    if isinstance(current, ContextSnapshot):
        return current
    return current.context()


def capture_context() -> ContextSnapshot | None:
    """Capture the current span identity for another thread (cheap
    ``None`` when tracing is disabled)."""
    return current_context()


@contextmanager
def attach_context(snapshot: ContextSnapshot | None):
    """Adopt a captured context: spans started inside parent to it.

    ``attach_context(None)`` is a no-op, so callers can pass whatever
    :func:`capture_context` returned without checking.
    """
    if snapshot is None or _active is None:
        yield
        return
    token = _current.set(snapshot)
    try:
        yield
    finally:
        _current.reset(token)
