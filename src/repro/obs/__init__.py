"""Observability: tracing, typed metrics, structured logs, privacy audit.

Four cooperating pieces, all stdlib-or-numpy only:

* :mod:`repro.obs.tracing` — hierarchical spans with trace/span IDs and
  parent links, context-propagated with :mod:`contextvars` (including
  to whichever caller's thread evaluates a coalesced batch).  The
  :class:`~repro.obs.tracing.Tracer` is the one span sink: it folds
  every span into the per-name aggregates the perf gate and
  ``/metrics`` read, and optionally keeps the span records.
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms in a :class:`~repro.obs.metrics.MetricsRegistry`, rendered
  as JSON or Prometheus text exposition (``GET /metrics``).
* :mod:`repro.obs.logging` — JSON-lines structured logging with
  trace/span IDs attached (``python -m repro serve --log-json``).
* :mod:`repro.obs.audit` — per-release privacy audit (max group
  frequency, worst-case breach probability, eligibility margin)
  exported as gauges labelled by publication version.  Imported lazily
  by callers, not here, because it pulls in the core package.

Three higher-level consumers build on those primitives (imported
lazily for the same reason — they pull in the query engine):

* :mod:`repro.obs.monitor` — live canary utility monitoring: one
  background worker per publication measures the paper's relative
  error on a fixed workload and exports ``repro_utility_*`` gauges.
* :mod:`repro.obs.slo` — rolling-window SLO evaluation over the
  metrics registry, driving the tri-state ``GET /healthz``.
* :mod:`repro.obs.export` — batching telemetry export of drained
  spans and metric snapshots to rotating JSON-lines files, with
  optional tracemalloc memory watermarks.

Every hook is a no-op until something is installed (``set_tracer`` /
``set_registry``), costing a global load and a branch — cheap enough to
live permanently on hot paths; ``tests/obs/test_overhead.py`` pins that
property.
"""

from repro.obs.logging import StructuredLogger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    set_registry,
)
from repro.obs.tracing import (
    ContextSnapshot,
    Span,
    Tracer,
    active_tracer,
    attach_context,
    capture_context,
    current_context,
    set_tracer,
)

__all__ = [
    "ContextSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "StructuredLogger",
    "Tracer",
    "active_registry",
    "active_tracer",
    "attach_context",
    "capture_context",
    "current_context",
    "set_registry",
    "set_tracer",
]
