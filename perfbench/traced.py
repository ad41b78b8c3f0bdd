"""Per-layer metrics: counters from the HTTP run plus a traced replay.

The counters (cache, index cache, snapshot builds) and the server's own
handler time come from ``GET /stats`` and ``GET /metrics`` scraped
before and after the untraced HTTP run's timed phase.  Layer times come
from replaying the same plan in this process through a
:class:`~repro.service.http.ReproService` built as ``serve`` builds it
(default flags), with spans recorded from this file around calls into
each layer's public functions.  Spans are kept in memory and written as
JSON lines to ``perfbench/out/`` when the replay ends.

A layer's self time is its span's duration minus the part covered by
its child spans.  Layer times are means per timed operation, except
``frontend.wait_ms`` (per cache miss) and ``snapshot.ms`` (per snapshot
built, whole call).
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.incremental import IncrementalAnatomizer
from repro.query.batch import AnatomyIndex, BatchEvaluator
from repro.query.predicates import CountQuery
from repro.service import frontend as frontend_module
from repro.service import registry as registry_module
from repro.service.frontend import QueryFrontend
from repro.service.http import ReproService
from repro.service.registry import Publication, schema_from_json

from closedloop import HttpResult
from plan import INGEST_PATH, PUBLICATION, Plan, Request

OUT_DIR = Path(__file__).resolve().parent / "out"

#: (owner, attribute, span name): the calls into each layer that get a
#: span.  ``AnatomyIndex.__init__`` stands for ``AnatomyIndex(release)``.
TRACED_CALLS = (
    (QueryFrontend, "query", "frontend.query"),
    (QueryFrontend, "query_batch", "frontend.batch"),
    (frontend_module, "query_fingerprint", "cache.fingerprint"),
    (Publication, "snapshot", "snapshot"),
    (IncrementalAnatomizer, "insert_codes", "ingest.insert"),
    (IncrementalAnatomizer, "publish", "ingest.publish"),
    (AnatomyIndex, "__init__", "index.build"),
    (registry_module, "audit_publication", "audit"),
    (BatchEvaluator, "encode", "query.encode"),
    (BatchEvaluator, "estimate_workload", "query.evaluate"),
)

QUERY_ENDPOINT = "/publications/{name}/query,POST"
INGEST_ENDPOINT = "/publications/{name}/ingest,POST"


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: int


class Tracer:
    """In-memory spans of one closed-loop replay.

    One operation is in flight at a time, so a single stack gives each
    span its parent, also for spans the frontend's worker thread opens
    while the submitting thread waits.  Spans are only kept while a
    timed operation runs (``request`` is set).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        if self.request is None:
            yield
            return
        with self._lock:
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(span_id, parent, name, 0.0, 0.0,
                                   self.request))
            self._stack.append(span_id)
        span = self.spans[span_id]
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            with self._lock:
                self._stack.remove(span_id)

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _traced(tracer: Tracer, name: str, function):
    def call(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)
    call.__wrapped__ = function
    return call


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every call in ``TRACED_CALLS`` in a span; undone on exit."""
    originals = []
    try:
        for owner, attribute, name in TRACED_CALLS:
            original = vars(owner)[attribute]
            setattr(owner, attribute, _traced(tracer, name, original))
            originals.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _handle(service: ReproService, tracer: Tracer, request: Request) -> None:
    """What the HTTP handler does for one plan request, minus sockets."""
    with tracer.span("http.decode"):
        body = json.loads(request.body)
    if request.path == "/publications":
        service.registry.create(body["name"],
                                schema_from_json(body["schema"]),
                                body["l"], seed=body["seed"])
        return
    publication = service.registry.get(PUBLICATION)
    if request.path == INGEST_PATH:
        result = publication.ingest(body["rows"])
        payload = lambda: result  # noqa: E731
    elif "queries" in body:
        with tracer.span("query.parse"):
            queries = [CountQuery(publication.schema, s["qi"],
                                  s["sensitive"])
                       for s in body["queries"]]
        answers = service.frontend.query_batch(PUBLICATION, queries)
        payload = lambda: {"publication": PUBLICATION,  # noqa: E731
                           "answers": [a.to_json() for a in answers]}
    else:
        with tracer.span("query.parse"):
            query = CountQuery(publication.schema, body["qi"],
                               body["sensitive"])
        answer = service.frontend.query(PUBLICATION, query)
        payload = lambda: dict(answer.to_json(),  # noqa: E731
                               publication=PUBLICATION)
    with tracer.span("http.encode"):
        json.dumps(payload()).encode()


def replay(plan: Plan) -> Tracer:
    """Run the whole plan in process; spans cover the timed phase."""
    tracer = Tracer()
    service = ReproService()
    service.install_recorder()
    try:
        with instrumented(tracer):
            for request in plan.setup:
                _handle(service, tracer, request)
            for op in plan.warmup:
                for request in op:
                    _handle(service, tracer, request)
            for i, op in enumerate(plan.timed):
                tracer.request = i
                with tracer.span("request"):
                    for request in op:
                        _handle(service, tracer, request)
                tracer.request = None
    finally:
        service.close()
    return tracer


def _delta(after: dict, before: dict, *path) -> float:
    def dig(document):
        for key in path:
            document = document.get(key, {}) if isinstance(document,
                                                            dict) else {}
        return document if isinstance(document, (int, float)) else 0
    return dig(after) - dig(before)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(plan: Plan, result: HttpResult) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run."""
    n = len(plan.timed)
    before, after = result.before, result.after
    handler_s = sum(
        _delta(after, before, "metrics", "metrics",
               "repro_http_request_seconds", "values", endpoint, "sum")
        for endpoint in (QUERY_ENDPOINT, INGEST_ENDPOINT)) / n
    round_trip_s = statistics.fmean(ex.seconds for ex in result.exchanges)

    tracer = replay(plan)
    tracer.write(OUT_DIR / f"trace-{plan.workload}-seed{plan.seed}.jsonl")
    self_s = tracer.self_times()
    total: dict[str, float] = {}
    for span, seconds in zip(tracer.spans, self_s):
        total[span.name] = total.get(span.name, 0.0) + seconds
    parents_with = {name: {s.parent for s in tracer.spans if s.name == name}
                    for name in ("query.evaluate", "ingest.publish")}
    misses = [seconds for span, seconds in zip(tracer.spans, self_s)
              if span.name == "frontend.query"
              and span.span_id in parents_with["query.evaluate"]]
    builds = [span.end - span.start for span in tracer.spans
              if span.name == "snapshot"
              and span.span_id in parents_with["ingest.publish"]]
    roots = [span.end - span.start for span in tracer.spans
             if span.name == "request"]
    accounted_s = sum(seconds for name, seconds in total.items()
                      if name != "request") / n

    def layer(name: str) -> tuple[float, str]:
        return total.get(name, 0.0) / n * 1e3, "ms"

    cache = [_delta(after, before, "stats", "cache", key)
             for key in ("hits", "misses", "evictions")]
    index = [_delta(after, before, "stats", "index_cache", key)
             for key in ("hits", "misses")]
    return {
        "http.handler_ms": (handler_s * 1e3, "ms"),
        "http.transport_ms": ((round_trip_s - handler_s) * 1e3, "ms"),
        "http.decode_ms": layer("http.decode"),
        "http.encode_ms": layer("http.encode"),
        "query.parse_ms": layer("query.parse"),
        "cache.fingerprint_ms": layer("cache.fingerprint"),
        "cache.hit_ratio": (_ratio(cache[0], cache[1]), "ratio"),
        "cache.evictions": (cache[2], "count"),
        "frontend.wait_ms": (statistics.fmean(misses) * 1e3 if misses
                             else 0.0, "ms"),
        "frontend.batch_ms": layer("frontend.batch"),
        "query.encode_ms": layer("query.encode"),
        "query.evaluate_ms": layer("query.evaluate"),
        "index.build_ms": layer("index.build"),
        "index_cache.hit_ratio": (_ratio(*index), "ratio"),
        "ingest.insert_ms": layer("ingest.insert"),
        "ingest.publish_ms": layer("ingest.publish"),
        "audit.ms": layer("audit"),
        "snapshot.ms": (statistics.fmean(builds) * 1e3 if builds else 0.0,
                        "ms"),
        "snapshot.builds": (_delta(after, before, "metrics", "spans",
                                   "service.snapshot", "count"), "count"),
        "traced.request_ms": (statistics.fmean(roots) * 1e3, "ms"),
        "unaccounted_ms": ((handler_s - accounted_s) * 1e3, "ms"),
    }
