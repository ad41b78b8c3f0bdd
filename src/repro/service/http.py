"""Stdlib-only HTTP JSON API over the publication service.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, no dependencies — in front of the thread-safe registry and
frontend.  Endpoints (all bodies JSON):

* ``GET  /publications`` — list publications with statistics.
* ``POST /publications`` — create: ``{"name", "l", "schema", "seed"?,
  "retain_microdata"?}`` with the schema spec of
  :func:`repro.service.registry.schema_from_json`; unknown keys are
  ignored.
* ``GET  /publications/<name>`` — one publication's statistics.
* ``DELETE /publications/<name>`` — drop it.
* ``POST /publications/<name>/ingest`` — ``{"rows": [[...], ...],
  "decoded"?: bool}``; rows are code tuples unless ``decoded``.
* ``GET/POST /publications/<name>/publish`` — current release summary;
  ``{"include_tables": true}`` (or ``?include_tables=1``) inlines the
  QIT/ST rows, decoded.
* ``POST /publications/<name>/query`` — a single query ``{"qi":
  {attr: [codes]}, "sensitive": [codes]}`` (micro-batch coalescing
  path) or a workload ``{"queries": [...]}`` (direct batch path).
  Each answer reports the version it is exact for and whether it came
  from the result cache.
* ``GET  /metrics`` — Prometheus text exposition (format 0.0.4) of the
  service's typed metrics: per-endpoint request counters, latency
  histograms and in-flight gauges, cache hit/miss/eviction counters,
  batch-coalescing histograms, and the per-version privacy-audit
  gauges of :mod:`repro.obs.audit`.  ``GET /metrics?format=json`` (or
  ``Accept: application/json``) returns the JSON document instead,
  which also carries the service tracer's per-span aggregates
  (:meth:`repro.obs.tracing.Tracer.totals`).
* ``GET  /stats`` — service-wide statistics: cache counters, per
  endpoint latency quantiles (p50/p99 interpolated from the request
  histogram), every publication's stats (including its latest privacy
  audit), and — when the canary monitor runs — the last utility report
  per publication.
* ``GET  /healthz`` — liveness, and with ``serve --slo-config`` the
  tri-state SLO verdict of :class:`repro.obs.slo.HealthEngine`:
  ``ok``/``degraded`` answer 200, ``failing`` answers 503, each with
  per-SLO reasons and measured values in the body.

With ``serve --monitor`` a :class:`repro.obs.monitor.CanaryMonitor`
measures each publication's live utility (``repro_utility_*`` gauges on
``/metrics``); with ``--export-telemetry PATH`` a
:class:`repro.obs.export.TelemetryExporter` streams finished trace
spans and metric snapshots to rotating JSON-lines files.

Error mapping: malformed requests and ``ReproError`` subclasses are
400, unknown publications/paths 404, duplicate creation 409.

Every request runs inside an ``http.request`` span
(:mod:`repro.obs.tracing`); with ``--trace`` the service's tracer also
keeps the span records, and downstream ingest/seal/batch spans link to
it; with ``--log-json`` the request log is emitted as JSON lines
carrying the trace/span IDs (:mod:`repro.obs.logging`).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.exceptions import ReproError, ServiceError
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.export import TelemetryExporter
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    register_build_info,
)
from repro.obs.monitor import CanaryConfig, CanaryMonitor
from repro.obs.slo import HealthEngine, SLOConfig
from repro.query.batch import index_cache_stats
from repro.query.predicates import CountQuery
from repro.service.frontend import QueryFrontend
from repro.service.registry import (
    PublicationRegistry,
    schema_from_json,
    schema_to_json,
)

#: Request bodies larger than this are rejected outright (16 MiB).
MAX_BODY_BYTES = 16 << 20

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_UNSET = object()


class ReproService:
    """Bundles registry, frontend, and the observability stack
    (one tracer, typed-metrics registry, structured logger, canary
    utility monitor, SLO health engine, and telemetry exporter) for
    serving.

    The tracer is the service's only span sink: it always folds spans
    into the per-name aggregates of ``/metrics?format=json``'s
    ``spans``, and keeps span records (``traces``) only with
    ``trace=True``.

    The monitor/health/exporter trio is strictly opt-in: the canary
    monitor runs iff ``monitor_config`` is given, the health engine iff
    ``slo`` is, and the exporter iff ``telemetry_path`` is.  With the
    defaults nothing is constructed, no background thread starts, and
    the request path is exactly the plain service.
    """

    def __init__(self, *, cache_size: int = 4096,
                 trace: bool = False, log_json: bool = False,
                 monitor_config: CanaryConfig | None = None,
                 slo: SLOConfig | None = None,
                 telemetry_path: str | None = None,
                 telemetry_memory: bool = False) -> None:
        self.registry = PublicationRegistry()
        self.frontend = QueryFrontend(self.registry, cache_size=cache_size)
        self.metrics_registry = MetricsRegistry()
        self.metrics_registry.register_collector(self._collect)
        register_build_info(self.metrics_registry)
        self.trace = trace
        self.tracer = tracing.Tracer() if trace \
            else tracing.Tracer(max_spans=0)
        self.logger = obs_logging.StructuredLogger(
            service="repro.service") if log_json else None
        self.monitor: CanaryMonitor | None = None
        if monitor_config is not None:
            self.monitor = CanaryMonitor(
                self.registry, config=monitor_config,
                metrics=self.metrics_registry, logger=self.logger)
        self.health: HealthEngine | None = None
        if slo is not None:
            self.health = HealthEngine(self.metrics_registry, slo,
                                       logger=self.logger)
        self.exporter: TelemetryExporter | None = None
        if telemetry_path is not None:
            self.exporter = TelemetryExporter(
                telemetry_path, tracer=self.tracer if trace else None,
                registry=self.metrics_registry,
                memory_watermarks=telemetry_memory,
                logger=self.logger)
        self._previous_registry: object = _UNSET
        self._previous_tracer: object = _UNSET
        self._lock = threading.Lock()

    def start_background(self) -> None:
        """Start the opt-in background workers (canary monitor,
        telemetry exporter); a no-op for whichever is disabled."""
        if self.monitor is not None:
            self.monitor.start()
        if self.exporter is not None:
            self.exporter.start()

    def install_recorder(self) -> None:
        """Route the global observability hooks to this service: spans
        to its tracer and typed metrics to its registry (so ``/metrics``
        sees ingest/seal/query-batch activity)."""
        with self._lock:
            if self._previous_registry is _UNSET:
                self._previous_registry = obs_metrics.set_registry(
                    self.metrics_registry)
            if self._previous_tracer is _UNSET:
                self._previous_tracer = tracing.set_tracer(self.tracer)

    def restore_recorder(self) -> None:
        with self._lock:
            if self._previous_registry is not _UNSET:
                obs_metrics.set_registry(self._previous_registry)  # type: ignore[arg-type]
                self._previous_registry = _UNSET
            if self._previous_tracer is not _UNSET:
                tracing.set_tracer(self._previous_tracer)  # type: ignore[arg-type]
                self._previous_tracer = _UNSET

    def _collect(self, registry: MetricsRegistry) -> None:
        """Render-time collector: mirror the cache's own monotonic
        counters and per-publication state into typed metrics (nothing
        is double-counted on the hot path)."""
        cache = self.frontend.cache_stats()
        registry.counter(
            "repro_cache_hits_total",
            "Result-cache hits since service start").set_total(
                cache["hits"])
        registry.counter(
            "repro_cache_misses_total",
            "Result-cache misses since service start").set_total(
                cache["misses"])
        registry.counter(
            "repro_cache_evictions_total",
            "Result-cache LRU evictions since service start").set_total(
                cache["evictions"])
        registry.gauge(
            "repro_cache_entries",
            "Result-cache current size").set(cache["entries"])
        registry.gauge(
            "repro_cache_capacity",
            "Result-cache capacity").set(cache["capacity"])
        for stats in self.registry.stats():
            labels = {"publication": stats["publication"]}
            registry.gauge(
                "repro_service_publication_version",
                "Current release version (sealed group count)",
                labelnames=("publication",)).set(
                    stats["version"], **labels)
            registry.gauge(
                "repro_service_buffered_rows",
                "Tuples withheld from the current release",
                labelnames=("publication",)).set(
                    stats["buffered"], **labels)
            registry.gauge(
                "repro_service_published_tuples",
                "Tuples in the current release",
                labelnames=("publication",)).set(
                    stats["published_tuples"], **labels)

    def metrics(self) -> dict:
        document = {
            "spans": self.tracer.totals(),
            "cache": self.frontend.cache_stats(),
            "publications": self.registry.stats(),
            "metrics": self.metrics_registry.to_json(),
        }
        if self.trace:
            document["traces"] = self.tracer.finished()
        return document

    def prometheus_metrics(self) -> str:
        """The typed-metrics registry in Prometheus text exposition."""
        return self.metrics_registry.render_prometheus()

    def latency_stats(self) -> dict:
        """Per-endpoint latency quantiles from the request histogram
        (linear interpolation within buckets; series with no
        observations are omitted)."""
        histogram = self.metrics_registry.get(
            "repro_http_request_seconds")
        if not isinstance(histogram, Histogram):
            return {}
        out: dict[str, dict] = {}
        for key, series in histogram.to_json()["values"].items():
            if not series["count"]:
                continue
            labels = dict(zip(histogram.labelnames, key.split(",")))
            out[key] = {
                "labels": labels,
                "count": series["count"],
                "p50_s": histogram.quantile(0.5, **labels),
                "p99_s": histogram.quantile(0.99, **labels),
            }
        return out

    def stats(self) -> dict:
        """Service-wide statistics for ``GET /stats``."""
        publications = self.registry.stats()
        for stats in publications:
            stats["cached_answers"] = self.frontend.cache_entries_for(
                stats["publication"])
        document = {
            "cache": self.frontend.cache_stats(),
            "index_cache": index_cache_stats(),
            "latency": self.latency_stats(),
            "publications": publications,
        }
        if self.monitor is not None:
            document["utility"] = {
                name: report.to_json()
                for name, report in self.monitor.reports().items()}
        return document

    def healthz(self) -> tuple[int, dict]:
        """The ``GET /healthz`` verdict: tri-state when an SLO config
        is installed (``failing`` maps to 503), the historical plain
        200/ok otherwise."""
        payload: dict = {"status": "ok",
                         "publications": len(self.registry)}
        if self.health is None:
            return 200, payload
        status = self.health.evaluate()
        payload.update(status.to_json())
        return (503 if status.state == "failing" else 200), payload

    def close(self) -> None:
        if self.monitor is not None:
            self.monitor.close()
        if self.exporter is not None:
            self.exporter.close()
        self.frontend.close()
        self.restore_recorder()


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _endpoint_label(parts: list[str]) -> str:
    """A bounded-cardinality endpoint label for one request path."""
    if not parts:
        return "/"
    if parts[0] in ("metrics", "healthz", "stats"):
        return "/" + parts[0]
    if parts[0] == "publications":
        if len(parts) == 1:
            return "/publications"
        if len(parts) == 2:
            return "/publications/{name}"
        if len(parts) == 3 and parts[2] in ("ingest", "publish",
                                            "query", "stats"):
            return "/publications/{name}/" + parts[2]
    return "unmatched"


def _publication_payload(service: ReproService, name: str,
                         include_tables: bool) -> dict:
    publication = service.registry.get(name)
    snapshot = publication.snapshot()
    payload = publication.stats()
    if snapshot.release is None:
        payload["release"] = None
        return payload
    release = snapshot.release
    payload["release"] = {
        "version": snapshot.version,
        "groups": release.st.group_count(),
        "tuples": release.n,
        "breach_probability_bound":
            release.breach_probability_bound(),
    }
    if include_tables:
        qit = release.qit
        payload["release"]["qit"] = [
            list(qit.decode_row(i)) for i in range(qit.n)]
        payload["release"]["st"] = [
            list(release.st.decode_record(i))
            for i in range(len(release.st))]
    return payload


def _parse_queries(schema, specs: list) -> list[CountQuery]:
    """One request's query specs, parsed by one ``CountQuery.many``."""
    pairs = []
    for spec in specs:
        if not isinstance(spec, dict):
            raise _HTTPError(400, f"query spec must be an object, got "
                                  f"{spec!r}")
        qi, sensitive = spec.get("qi", {}), spec.get("sensitive")
        if spec.get("decoded"):
            try:
                qi = {name: schema.attribute(name).encode_many(values)
                      for name, values in qi.items()}
                sensitive = schema.sensitive.encode_many(sensitive)
            except (AttributeError, TypeError):
                raise _HTTPError(400, f"malformed decoded query spec "
                                      f"{spec!r}") from None
        pairs.append((qi, sensitive))
    return CountQuery.many(schema, pairs)


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the owning server's :class:`ReproService`."""

    server: "ReproHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_body(self, status: int, body: bytes,
                   content_type: str) -> None:
        """Send the whole response (status line, headers and body) in
        one ``wfile.write``.  ``end_headers`` would flush the headers as
        a segment of their own; Nagle's algorithm then holds the body
        back until the client's delayed ACK, about 40 ms later on every
        keep-alive response."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        head = b""
        if self.request_version != "HTTP/0.9":  # 0.9 gets the bare body
            self._headers_buffer.append(b"\r\n")
            head = b"".join(self._headers_buffer)
            self._headers_buffer = []
        self.wfile.write(head + body)

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the stream cannot carry a next
            # request: answer, then hang up.
            self.close_connection = True
            if length < 0:
                raise _HTTPError(400, "malformed Content-Length header")
            raise _HTTPError(413, f"request body exceeds "
                                  f"{MAX_BODY_BYTES} bytes")
        if length == 0:
            return {}
        try:
            payload = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "JSON body must be an object")
        return payload

    def _dispatch(self, method: str) -> None:
        service = self.server.service
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query_string = parse_qs(parsed.query)
        endpoint = _endpoint_label(parts)
        registry = service.metrics_registry
        in_flight = registry.gauge(
            "repro_http_requests_in_flight",
            "Requests currently being handled",
            labelnames=("endpoint",))
        in_flight.inc(endpoint=endpoint)
        start = time.perf_counter()
        try:
            self._handle(service, method, parts, query_string,
                         parsed.path, endpoint, registry, start)
        finally:
            in_flight.dec(endpoint=endpoint)

    def _handle(self, service: ReproService, method: str,
                parts: list[str], query_string: dict, path: str,
                endpoint: str, registry, start: float) -> None:
        with tracing.span("http.request", method=method,
                          endpoint=endpoint, path=path) as req:
            try:
                status, payload = self._route(service, method, parts,
                                              query_string)
            except _HTTPError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except ServiceError as exc:
                status = 404 if "unknown publication" in str(exc) \
                    else 409
                payload = {"error": str(exc)}
            except ReproError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # pragma: no cover - defensive
                status, payload = 500, {"error": f"internal error: "
                                                 f"{exc}"}
            req.set_attribute("status", status)
            # record before writing the response so a client that saw
            # this reply and immediately scrapes /metrics observes it
            duration = time.perf_counter() - start
            registry.counter(
                "repro_http_requests_total",
                "HTTP requests by endpoint, method, and status",
                labelnames=("endpoint", "method", "status")).inc(
                    endpoint=endpoint, method=method,
                    status=str(status))
            registry.histogram(
                "repro_http_request_seconds",
                "HTTP request latency by endpoint and method",
                labelnames=("endpoint", "method")).observe(
                    duration, endpoint=endpoint, method=method)
            if service.logger is not None:
                service.logger.info(
                    "http.request", method=method, path=path,
                    endpoint=endpoint, status=status,
                    duration_ms=round(duration * 1e3, 3),
                    client=self.client_address[0])
            if isinstance(payload, str):
                body = payload.encode("utf-8")
                content_type = PROMETHEUS_CONTENT_TYPE
            else:
                body = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
        # The span ends before the write, as the counter and histogram
        # are recorded before it: a client that saw this reply and
        # scrapes /metrics at once finds the request in all three.
        self._send_body(status, body, content_type)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _route(self, service: ReproService, method: str,
               parts: list[str],
               query_string: dict) -> tuple[int, "dict | str"]:
        if parts == ["metrics"] and method == "GET":
            fmt = query_string.get("format", [""])[0]
            accept = self.headers.get("Accept") or ""
            if fmt == "json" or (not fmt
                                 and "application/json" in accept):
                return 200, service.metrics()
            if fmt not in ("", "prometheus", "text"):
                raise _HTTPError(400, f"unknown metrics format "
                                      f"{fmt!r}; expected 'prometheus' "
                                      f"or 'json'")
            return 200, service.prometheus_metrics()
        if parts == ["stats"] and method == "GET":
            return 200, service.stats()
        if parts == ["healthz"] and method == "GET":
            return service.healthz()
        if not parts or parts[0] != "publications":
            raise _HTTPError(404, f"no route for {method} {self.path}")
        if len(parts) == 1:
            if method == "GET":
                return 200, {"publications": service.registry.stats()}
            if method == "POST":
                return self._create_publication(service)
            raise _HTTPError(404, f"no route for {method} {self.path}")
        name = parts[1]
        if len(parts) == 2:
            if method == "GET":
                return 200, service.registry.get(name).stats()
            if method == "DELETE":
                service.registry.drop(name)
                return 200, {"dropped": name}
            raise _HTTPError(404, f"no route for {method} {self.path}")
        if len(parts) == 3:
            action = parts[2]
            if action == "ingest" and method == "POST":
                return self._ingest(service, name)
            if action == "publish" and method in ("GET", "POST"):
                return self._publish(service, name, method, query_string)
            if action == "query" and method == "POST":
                return self._query(service, name)
            if action == "stats" and method == "GET":
                return 200, service.registry.get(name).stats()
        raise _HTTPError(404, f"no route for {method} {self.path}")

    def _create_publication(self,
                            service: ReproService) -> tuple[int, dict]:
        body = self._read_body()
        name = body.get("name")
        l = body.get("l")
        schema_spec = body.get("schema")
        if not name or not isinstance(name, str):
            raise _HTTPError(400, "create needs a non-empty 'name'")
        if type(l) is not int or l < 1:
            raise _HTTPError(400, "create needs an integer 'l' >= 1")
        if schema_spec is None:
            raise _HTTPError(400, "create needs a 'schema' spec")
        seed = body.get("seed", 0)
        if seed is not None and (type(seed) is not int or seed < 0):
            raise _HTTPError(400, "'seed' must be an integer >= 0 or "
                                  "null")
        retain = body.get("retain_microdata", True)
        if type(retain) is not bool:
            raise _HTTPError(400, "'retain_microdata' must be a boolean")
        schema = schema_from_json(schema_spec)
        publication = service.registry.create(
            name, schema, l, seed=seed, retain_microdata=retain)
        payload = publication.stats()
        payload["schema"] = schema_to_json(schema)
        return 201, payload

    def _ingest(self, service: ReproService,
                name: str) -> tuple[int, dict]:
        body = self._read_body()
        rows = body.get("rows")
        if not isinstance(rows, list):
            raise _HTTPError(400, "ingest needs 'rows': a list of rows")
        publication = service.registry.get(name)
        result = publication.ingest(rows,
                                    decoded=bool(body.get("decoded")))
        return 200, result

    def _publish(self, service: ReproService, name: str, method: str,
                 query_string: dict) -> tuple[int, dict]:
        include = query_string.get("include_tables", ["0"])[0] \
            not in ("0", "", "false")
        if method == "POST":
            include = bool(self._read_body().get("include_tables",
                                                 include))
        return 200, _publication_payload(service, name, include)

    def _query(self, service: ReproService,
               name: str) -> tuple[int, dict]:
        body = self._read_body()
        schema = service.registry.get(name).schema
        if "queries" in body:
            specs = body["queries"]
            if not isinstance(specs, list) or not specs:
                raise _HTTPError(400, "'queries' must be a non-empty "
                                      "list of query specs")
            queries = _parse_queries(schema, specs)
            answers = service.frontend.query_batch(name, queries)
            return 200, {
                "publication": name,
                "answers": [a.to_json() for a in answers],
            }
        answer = service.frontend.query(
            name, _parse_queries(schema, [body])[0])
        payload = answer.to_json()
        payload["publication"] = name
        return 200, payload


class ReproHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server owning a :class:`ReproService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ReproService,
                 *, verbose: bool = False) -> None:
        self.service = service
        self.verbose = verbose
        super().__init__(address, ReproRequestHandler)

    def server_close(self) -> None:
        super().server_close()
        self.service.close()


def make_server(service: ReproService | None = None,
                host: str = "127.0.0.1", port: int = 0, *,
                verbose: bool = False) -> ReproHTTPServer:
    """Bind a server (``port=0`` picks a free port; see
    ``server.server_address``), route the global observability hooks to
    its service (:meth:`ReproService.install_recorder`) and start its
    background workers.  Call ``serve_forever`` to run it and
    ``shutdown`` + ``server_close`` to stop."""
    if service is None:
        service = ReproService()
    server = ReproHTTPServer((host, port), service, verbose=verbose)
    service.install_recorder()
    service.start_background()
    return server
