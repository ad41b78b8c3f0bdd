"""Wall-clock spans and machine-readable benchmark summaries.

Library code marks interesting regions with the module-level hooks::

    from repro.perf import span

    with span("publish.anatomize", n=len(table), l=l):
        published = anatomize(table, l)

Without an installed recorder *and* with tracing disabled the hooks
return a shared no-op context manager, so they are safe on hot paths.
A harness (the benchmark suite's ``conftest``) installs one for the
duration of a run::

    recorder = PerfRecorder(scale="default")
    previous = set_recorder(recorder)
    ...
    set_recorder(previous)
    recorder.write("benchmarks/BENCH_summary.json")

The written summary aggregates spans by name (count / total / mean /
min / max seconds) so ``repro.perf.check`` can diff two runs.

``span`` is a shim over :mod:`repro.obs.tracing`: one instrumented
region simultaneously feeds the recorder's flat aggregates and — when
a tracer is installed — a hierarchical trace span with the same name
and attributes.  Either sink may be enabled independently; the
recorder's aggregates are the same either way.  Only the tracer keeps
per-span attributes.

:class:`PerfRecorder` is thread-safe: the serving stack records spans
from ``ThreadingHTTPServer`` handler threads and the frontend's worker
concurrently against one shared recorder.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

from repro.obs import tracing

#: Format version of the summary document.
SCHEMA_VERSION = 1


class PerfRecorder:
    """Folds named wall-clock spans into per-name aggregates and renders
    a JSON summary.

    Memory is bounded by the number of distinct span names, not the
    number of spans, so one recorder can live as long as a server.
    ``record`` keeps its ``**info`` keywords for call compatibility but
    does not store them; per-span attributes belong to a
    :class:`~repro.obs.tracing.Tracer`.  Safe for concurrent ``record``
    / ``totals`` / ``write`` calls from multiple threads.
    """

    def __init__(self, **metadata) -> None:
        self.metadata = dict(metadata)
        self._aggregates: dict[str, list] = {}
        self._lock = threading.Lock()

    def record(self, name: str, seconds: float, **info) -> None:
        """Fold one completed span of ``seconds`` wall-clock time into
        its name's aggregate."""
        seconds = float(seconds)
        with self._lock:
            stats = self._aggregates.get(name)
            if stats is None:
                # [count, total, min, max]
                self._aggregates[name] = [1, seconds, seconds, seconds]
            else:
                stats[0] += 1
                stats[1] += seconds
                stats[2] = min(stats[2], seconds)
                stats[3] = max(stats[3], seconds)

    @contextmanager
    def span(self, name: str, **info):
        """Context manager timing its body with ``time.perf_counter``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start, **info)

    def totals(self) -> dict[str, dict]:
        """Aggregate statistics per span name."""
        with self._lock:
            aggregates = [(name, list(stats))
                          for name, stats in self._aggregates.items()]
        return {name: {"count": count, "total_s": total, "min_s": low,
                       "max_s": high, "mean_s": total / count}
                for name, (count, total, low, high) in aggregates}

    def summary(self) -> dict:
        """The machine-readable document ``write`` serializes."""
        return {
            "schema_version": SCHEMA_VERSION,
            "metadata": self.metadata,
            "spans": self.totals(),
        }

    def write(self, path: str) -> str:
        """Write the summary as JSON, creating the parent directory if
        missing; returns ``path``."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


_active: PerfRecorder | None = None


def set_recorder(recorder: PerfRecorder | None) -> PerfRecorder | None:
    """Install ``recorder`` as the hook target; returns the previous one
    (pass it back to restore)."""
    global _active
    previous = _active
    _active = recorder
    return previous


def active_recorder() -> PerfRecorder | None:
    return _active


class _TimedSpan:
    """One instrumented region feeding recorder and/or tracer.

    Timing is measured once (``perf_counter`` pair) and shared by both
    sinks, so the recorder's numbers are identical whether or not
    tracing is enabled.
    """

    __slots__ = ("name", "info", "recorder", "_start", "_obs")

    def __init__(self, name: str, recorder: PerfRecorder | None,
                 info: dict) -> None:
        self.name = name
        self.info = info
        self.recorder = recorder
        self._obs = None

    def __enter__(self) -> "_TimedSpan":
        tracer = tracing.active_tracer()
        if tracer is not None:
            self._obs = tracer.span(self.name, **self.info)
            self._obs.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._start
        if self.recorder is not None:
            self.recorder.record(self.name, seconds, **self.info)
        if self._obs is not None:
            self._obs.__exit__(exc_type, exc, tb)
            self._obs = None
        return False


def span(name: str, **info):
    """Time a region on the active recorder and/or tracer; returns the
    shared no-op context manager when neither is installed."""
    if _active is None and not tracing.enabled():
        return tracing.NOOP_SPAN
    return _TimedSpan(name, _active, info)


def record(name: str, seconds: float, **info) -> None:
    """Record a pre-measured duration on the active recorder, if any."""
    if _active is not None:
        _active.record(name, seconds, **info)
