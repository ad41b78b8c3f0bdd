"""End-to-end tests of the HTTP JSON API.

Covers the PR's acceptance walk-through: create a publication over
HTTP, ingest rows in two waves, check old Group-IDs are unchanged
across versions, cached answers are invalidated on version bump, and a
served micro-batch of >= 100 queries goes through the batch engine
(asserted via the ``/metrics`` span aggregates).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.obs.monitor import GAUGE_RELATIVE_ERROR, CanaryConfig
from repro.obs.slo import SLOConfig
from repro.service.http import (
    MAX_BODY_BYTES,
    ReproRequestHandler,
    ReproService,
    make_server,
)

from tests.service.conftest import make_rows

SCHEMA_SPEC = {"qi": [{"name": "A", "size": 50}],
               "sensitive": {"name": "S", "size": 20}}


@pytest.fixture()
def server(request):
    """A served ReproService; parametrize indirectly with ``True`` to
    run it with ``trace=True``."""
    service = ReproService(trace=getattr(request, "param", False))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def api(server):
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    def call(method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            base + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    return call


def create_publication(api, name="p", l=3):
    status, payload = api("POST", "/publications", {
        "name": name, "l": l, "schema": SCHEMA_SPEC})
    assert status == 201, payload
    return payload


QUERY = {"qi": {"A": list(range(25))}, "sensitive": [0, 1, 2]}


class TestLifecycle:
    def test_create_list_stats_drop(self, api):
        create_publication(api)
        status, listing = api("GET", "/publications")
        assert status == 200
        assert [p["publication"] for p in listing["publications"]] \
            == ["p"]
        status, stats = api("GET", "/publications/p/stats")
        assert status == 200 and stats["l"] == 3
        status, payload = api("DELETE", "/publications/p")
        assert status == 200 and payload == {"dropped": "p"}
        assert api("GET", "/publications/p")[0] == 404

    def test_healthz(self, api):
        status, payload = api("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_duplicate_create_conflicts(self, api):
        create_publication(api)
        status, payload = api("POST", "/publications", {
            "name": "p", "l": 3, "schema": SCHEMA_SPEC})
        assert status == 409 and "already exists" in payload["error"]

    def test_malformed_requests_rejected(self, api):
        assert api("POST", "/publications", {"name": "x"})[0] == 400
        assert api("GET", "/nope")[0] == 404
        assert api("POST", "/publications/ghost/ingest",
                   {"rows": [[0, 0]]})[0] == 404
        create_publication(api)
        assert api("POST", "/publications/p/ingest", {})[0] == 400
        assert api("POST", "/publications/p/query", {})[0] == 400
        # out-of-domain code surfaces as a 400, not a 500
        assert api("POST", "/publications/p/ingest",
                   {"rows": [[999, 0]]})[0] == 400

    @pytest.mark.parametrize("change", [
        *[{"schema": {"qi": qi, "sensitive": {"name": "S", "size": 20}}}
          for qi in [
            [{"name": "A", "size": "x"}],
            [{"name": "A", "size": 5, "kind": "bogus"}],
            [{"name": "A", "values": 5}],
            [],
            [{"name": "A"}],
            [{"name": "A", "size": True}],
            # one value past repro.service.registry.MAX_DOMAIN_SIZE
            [{"name": "A", "size": (1 << 16) + 1}],
        ]],
        {"seed": "abc"},
        {"seed": -1},
        {"seed": 1.5},
        {"l": True},
        {"retain_microdata": "false"},
    ], ids=lambda change: json.dumps(change.get("schema", {}).get("qi",
                                                                 change)))
    def test_malformed_create_answered_with_400(self, api, change):
        body = {"name": "p", "l": 3, "schema": SCHEMA_SPEC, **change}
        status, payload = api("POST", "/publications", body)
        assert status == 400, payload
        assert api("GET", "/publications/p")[0] == 404

    def test_null_seed_accepted(self, api):
        status, payload = api("POST", "/publications", {
            "name": "p", "l": 3, "schema": SCHEMA_SPEC, "seed": None})
        assert status == 201, payload


def raw_exchange(server, request: bytes) -> tuple[bytes, dict]:
    """Send raw request bytes and read until the server hangs up;
    returns (status line + headers, decoded JSON body)."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, json.loads(body)


class TestContentLength:
    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_answered_with_400_and_closed(self, server,
                                                    length):
        head, body = raw_exchange(server, (
            f"POST /publications HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n").encode())
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert body == {"error": "malformed Content-Length header"}

    def test_oversized_answered_with_413_and_closed(self, server):
        head, body = raw_exchange(server, (
            f"POST /publications HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n").encode())
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"\r\nConnection: close" in head
        assert "exceeds" in body["error"]


class _RecordingWriter:
    """Wraps a handler's ``wfile``, recording every ``write`` (or, with
    ``observe``, what it returns at the moment of each write)."""

    def __init__(self, raw, writes: list, observe=bytes) -> None:
        self._raw = raw
        self._writes = writes
        self._observe = observe

    def write(self, data) -> int:
        self._writes.append(self._observe(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class _RecordingHandler(ReproRequestHandler):
    writes: list

    def setup(self) -> None:
        super().setup()
        self.wfile = _RecordingWriter(self.wfile, self.writes)


@pytest.fixture()
def writes(server):
    """Every ``wfile.write`` the server's handlers make, in order."""
    recorded: list[bytes] = []
    server.RequestHandlerClass = type(
        "Recording", (_RecordingHandler,), {"writes": recorded})
    return recorded


class TestOneWritePerResponse:
    """Status line, headers and body leave in one ``wfile.write``: a
    separate headers write lets Nagle hold the body back until the
    client's delayed ACK (~40 ms per keep-alive response)."""

    @staticmethod
    def exchange(server, request: bytes) -> bytes:
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        return reply

    @pytest.mark.parametrize("path, status, content_type", [
        ("/healthz", b"200", b"application/json"),
        ("/metrics", b"200", b"text/plain; version=0.0.4"),
        ("/nope", b"404", b"application/json"),
    ], ids=["json", "prometheus", "http-error"])
    def test_response_is_one_write(self, server, writes, path, status,
                                   content_type):
        reply = self.exchange(server, (
            f"GET {path} HTTP/1.1\r\nHost: x\r\n"
            f"Connection: close\r\n\r\n").encode())
        assert writes == [reply]
        assert reply.startswith(b"HTTP/1.1 " + status + b" ")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"\r\nContent-Type: " + content_type in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert body

    def test_keep_alive_responses_are_one_write_each(self, server,
                                                     writes):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            for path in ("/healthz", "/metrics", "/stats"):
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200
                assert writes[-1].endswith(body)
            assert len(writes) == 3
        finally:
            connection.close()

    def test_http09_request_gets_the_bare_body(self, server, writes):
        reply = self.exchange(server, b"GET /healthz\r\n\r\n")
        assert writes == [reply]
        assert json.loads(reply)["status"] == "ok"

    def test_oversized_body_is_one_write_then_closed(self, server,
                                                     writes):
        # no "Connection: close" from the client: the server hangs up
        # by itself, or exchange() times out
        reply = self.exchange(server, (
            f"POST /publications HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n").encode())
        assert writes == [reply]
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"\r\nConnection: close" in head
        assert "exceeds" in json.loads(body)["error"]


class TestSpanEndsBeforeWrite:
    """The ``http.request`` span is folded into the tracer's totals
    before the response is written, so a client that scrapes
    ``/metrics`` right after its reply finds its request counted."""

    @pytest.mark.parametrize("server", [False, True], indirect=True,
                             ids=["untraced", "traced"])
    def test_request_span_counted_at_the_write(self, server):
        tracer = server.service.tracer
        counts: list[int] = []

        def request_spans(_data) -> int:
            return tracer.totals().get("http.request", {}).get("count", 0)

        class Counting(ReproRequestHandler):
            def setup(self) -> None:
                super().setup()
                self.wfile = _RecordingWriter(self.wfile, counts,
                                              request_spans)

        server.RequestHandlerClass = Counting
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            for path in ("/healthz", "/metrics", "/stats", "/nope"):
                connection.request("GET", path)
                connection.getresponse().read()
        finally:
            connection.close()
        assert counts == [1, 2, 3, 4]


#: Query specs that must be answered 400: before the one-pass query
#: builder these either crashed the handler (500) or were silently read
#: as code 1.
MALFORMED_SPECS = {
    "qi-not-object": {"qi": [1], "sensitive": [0]},
    "codes-not-list": {"qi": {"A": 5}, "sensitive": [0]},
    "string-code": {"qi": {"A": ["x"]}, "sensitive": [0]},
    "null-code": {"qi": {"A": [None]}, "sensitive": [0]},
    "nested-code": {"qi": {"A": [[1]]}, "sensitive": [0]},
    "sensitive-not-list": {"qi": {"A": [1]}, "sensitive": 3},
    "missing-sensitive": {"qi": {"A": [1]}},
    "float-code": {"qi": {"A": [1.7]}, "sensitive": [0]},
    "bool-code": {"qi": {"A": [True]}, "sensitive": [0]},
    "numeric-string-code": {"qi": {"A": ["1"]}, "sensitive": [0]},
    "decoded-qi-not-object": {"qi": [1], "sensitive": [0],
                              "decoded": True},
    "decoded-nested-value": {"qi": {"A": [[1]]}, "sensitive": [0],
                             "decoded": True},
}


class TestMalformedQuerySpecs:
    @pytest.mark.parametrize("batched", [False, True],
                             ids=["single", "batch"])
    @pytest.mark.parametrize("spec", MALFORMED_SPECS.values(),
                             ids=MALFORMED_SPECS.keys())
    def test_answered_with_400(self, server, api, spec, batched):
        create_publication(api)
        body = json.dumps({"queries": [QUERY, spec]} if batched
                          else spec).encode()
        head, reply = raw_exchange(server, (
            f"POST /publications/p/query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: application/json\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert reply["error"]


class TestDecodedValueTypes:
    """On an integer domain, JSON ``true`` and ``1.0`` are not the value
    1, in decoded query specs and in decoded ingest rows alike."""

    @pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
    @pytest.mark.parametrize("where", ["qi", "sensitive"])
    def test_decoded_query_rejected(self, api, value, where):
        create_publication(api)
        spec = {"qi": {"A": [0]}, "sensitive": [0], "decoded": True}
        spec[where] = {"A": [value]} if where == "qi" else [value]
        status, payload = api("POST", "/publications/p/query", spec)
        assert status == 400 and "not in domain" in payload["error"]
        status, payload = api("POST", "/publications/p/query",
                              {"queries": [spec]})
        assert status == 400 and "not in domain" in payload["error"]

    @pytest.mark.parametrize("row", [[True, 0], [1.0, 0], [0, True],
                                     [0, 1.0]],
                             ids=["qi-true", "qi-1.0", "sensitive-true",
                                  "sensitive-1.0"])
    def test_decoded_ingest_rejected(self, api, row):
        create_publication(api)
        status, payload = api("POST", "/publications/p/ingest",
                              {"rows": [row], "decoded": True})
        assert status == 400 and "not in domain" in payload["error"]
        assert api("GET", "/publications/p")[1]["buffered"] == 0


class TestCodeIngestValidation:
    """An ingest of codes is all-or-nothing and takes integers only."""

    @pytest.mark.parametrize("code", [99, "x", None, 1.7, True],
                             ids=["out-of-domain", "string", "null",
                                  "float", "true"])
    def test_bad_row_rejects_the_whole_batch(self, api, code):
        create_publication(api)
        status, payload = api("POST", "/publications/p/ingest",
                              {"rows": [[0, 1], [0, code]]})
        assert status == 400, payload
        state = api("GET", "/publications/p")[1]
        assert (state["version"], state["buffered"]) == (0, 0)
        # The good row of the rejected batch is never published.
        status, result = api("POST", "/publications/p/ingest",
                             {"rows": [[1, 2], [2, 3], [3, 4]]})
        assert status == 200
        assert (result["version"], result["buffered"]) == (1, 0)
        status, release = api(
            "GET", "/publications/p/publish?include_tables=1")
        assert sorted(row[0] for row in release["release"]["qit"]) \
            == [1, 2, 3]


class TestEndToEnd:
    def test_two_wave_ingest_with_cache_invalidation(self, api):
        create_publication(api)

        # wave 1
        status, result = api("POST", "/publications/p/ingest",
                             {"rows": make_rows(60)})
        assert status == 200 and result["sealed_groups"] > 0
        v1 = result["version"]

        status, release1 = api(
            "GET", "/publications/p/publish?include_tables=1")
        assert status == 200
        assert release1["release"]["version"] == v1

        # query, then hit the cache
        status, first = api("POST", "/publications/p/query", QUERY)
        assert status == 200 and not first["cached"]
        assert first["version"] == v1
        status, second = api("POST", "/publications/p/query", QUERY)
        assert second["cached"] and second["answer"] == first["answer"]

        # wave 2: version bumps, old groups unchanged
        status, result = api("POST", "/publications/p/ingest",
                             {"rows": make_rows(60, start=60)})
        v2 = result["version"]
        assert v2 > v1

        status, release2 = api(
            "POST", "/publications/p/publish", {"include_tables": True})
        assert release2["release"]["version"] == v2
        st1 = release1["release"]["st"]
        st2 = release2["release"]["st"]
        assert st2[:len(st1)] == st1  # old ST records identical
        qit1 = release1["release"]["qit"]
        qit2 = release2["release"]["qit"]
        assert qit2[:len(qit1)] == qit1  # old Group-IDs unchanged

        # the version bump invalidated the cached answer by construction
        status, third = api("POST", "/publications/p/query", QUERY)
        assert not third["cached"] and third["version"] == v2

    def test_micro_batch_served_through_batch_engine(self, api):
        create_publication(api)
        api("POST", "/publications/p/ingest", {"rows": make_rows(80)})
        queries = [{"qi": {"A": [i % 50, (i + 1) % 50]},
                    "sensitive": [i % 20]} for i in range(120)]
        status, payload = api("POST", "/publications/p/query",
                              {"queries": queries})
        assert status == 200
        assert len(payload["answers"]) == 120
        versions = {a["version"] for a in payload["answers"]}
        assert len(versions) == 1  # one snapshot for the whole batch

        status, metrics = api("GET", "/metrics?format=json")
        assert status == 200
        spans = metrics["spans"]
        # the whole workload went through repro.query.batch in one
        # micro-batch, not a per-query loop
        assert spans["service.query.batch"]["count"] == 1
        assert spans["query.batch.evaluate"]["count"] == 1
        assert spans["service.ingest"]["count"] == 1
        assert metrics["cache"]["entries"] >= 100

    def test_decoded_rows_and_queries(self, api):
        create_publication(api)
        # codes and decoded values coincide for integer range domains,
        # but go through the encode path
        status, result = api(
            "POST", "/publications/p/ingest",
            {"rows": make_rows(30), "decoded": True})
        assert status == 200 and result["sealed_groups"] > 0
        status, payload = api(
            "POST", "/publications/p/query",
            {"qi": {"A": [0, 1, 2]}, "sensitive": [0], "decoded": True})
        assert status == 200 and payload["version"] > 0

    def test_query_before_first_seal_answers_zero(self, api):
        create_publication(api, l=10)
        status, payload = api("POST", "/publications/p/query", QUERY)
        assert status == 200
        assert payload["answer"] == 0.0 and payload["version"] == 0


@pytest.fixture()
def raw(server):
    """Fetch a path without assuming a JSON body; returns
    (status, content_type, text)."""
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    def fetch(path, accept=None):
        headers = {"Accept": accept} if accept else {}
        request = urllib.request.Request(base + path, headers=headers)
        with urllib.request.urlopen(request, timeout=30) as resp:
            return (resp.status, resp.headers.get("Content-Type"),
                    resp.read().decode("utf-8"))

    return fetch


class TestObservability:
    def _exercise(self, api):
        create_publication(api)
        api("POST", "/publications/p/ingest", {"rows": make_rows(60)})
        api("POST", "/publications/p/query", QUERY)
        api("POST", "/publications/p/query", QUERY)  # cache hit

    def test_metrics_serves_prometheus_by_default(self, api, raw):
        self._exercise(api)
        status, content_type, text = raw("/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        parsed = parse_prometheus_text(text)  # validates every line
        assert parsed["repro_http_requests_total"]["type"] == "counter"
        assert parsed["repro_http_request_seconds"]["type"] \
            == "histogram"
        # per-endpoint latency histogram series exist
        assert any("endpoint=\"/publications/{name}/query\"" in key
                   and "_bucket" in key
                   for key in
                   parsed["repro_http_request_seconds"]["samples"])
        # cache counters (collector-mirrored) show the hit
        assert parsed["repro_cache_hits_total"]["samples"][
            "repro_cache_hits_total"] >= 1
        assert "repro_cache_misses_total" in parsed
        assert "repro_cache_evictions_total" in parsed

    def test_metrics_privacy_audit_gauges(self, api, raw):
        self._exercise(api)
        status, _, text = raw("/metrics")
        parsed = parse_prometheus_text(text)
        gauges = parsed["repro_privacy_breach_probability"]
        assert gauges["type"] == "gauge"
        bounds = parsed["repro_privacy_breach_bound"]["samples"]
        # every audited version respects the 1/l bound, and the ok
        # gauge agrees
        assert gauges["samples"]
        for key, value in gauges["samples"].items():
            assert 'publication="p"' in key and 'version="' in key
            assert value <= 1.0 / 3 + 1e-12
        assert all(v == 1.0 for v in
                   parsed["repro_privacy_audit_ok"]["samples"]
                   .values())
        assert all(v == pytest.approx(1.0 / 3) for v in
                   bounds.values())
        assert "repro_privacy_eligibility_margin" in parsed
        assert "repro_privacy_max_group_frequency" in parsed

    def test_publication_gauges_match_stats_after_ingest(self, api,
                                                         raw):
        create_publication(api)
        api("POST", "/publications/p/ingest", {"rows": make_rows(61)})
        _, stats = api("GET", "/stats")
        (pub,) = stats["publications"]
        assert pub["version"] > 0 and pub["buffered"] > 0
        parsed = parse_prometheus_text(raw("/metrics")[2])
        for name, key in (
                ("repro_service_publication_version", "version"),
                ("repro_service_buffered_rows", "buffered"),
                ("repro_service_published_tuples", "published_tuples")):
            assert parsed[name]["type"] == "gauge"
            assert parsed[name]["samples"] == {
                name + '{publication="p"}': pub[key]}

    def test_metrics_json_format(self, api, raw):
        self._exercise(api)
        status, content_type, text = raw("/metrics?format=json")
        assert status == 200
        assert content_type == "application/json"
        document = json.loads(text)
        assert "spans" in document and "metrics" in document
        typed = document["metrics"]
        assert typed["repro_http_requests_total"]["type"] == "counter"
        # Accept-header negotiation also selects JSON
        status, content_type, text = raw(
            "/metrics", accept="application/json")
        assert content_type == "application/json"
        json.loads(text)

    @pytest.mark.parametrize("server", [False, True], indirect=True,
                             ids=["untraced", "traced"])
    def test_snapshot_span_counts_versions_built(self, server, api):
        """``spans["service.snapshot"]["count"]`` is one per release
        version a snapshot was built for, whether or not the tracer
        keeps span records."""
        create_publication(api)
        versions = set()
        for wave in range(3):
            status, result = api("POST", "/publications/p/ingest",
                                 {"rows": make_rows(30, start=30 * wave)})
            assert status == 200 and result["sealed_groups"] > 0
            for _ in range(2):  # the second query reuses the snapshot
                status, answer = api("POST", "/publications/p/query",
                                     QUERY)
                versions.add(answer["version"])
        status, metrics = api("GET", "/metrics?format=json")
        assert status == 200
        assert metrics["spans"]["service.snapshot"]["count"] == \
            len(versions) == 3
        assert metrics["spans"]["http.request"]["count"] >= 10
        assert ("traces" in metrics) == server.service.trace

    def test_metrics_unknown_format_rejected(self, api):
        assert api("GET", "/metrics?format=xml")[0] == 400

    def test_stats_endpoint(self, api):
        self._exercise(api)
        status, stats = api("GET", "/stats")
        assert status == 200
        cache = stats["cache"]
        assert cache["hits"] >= 1 and cache["misses"] >= 1
        assert {"hits", "misses", "evictions", "entries",
                "capacity"} <= set(cache)
        (pub,) = stats["publications"]
        assert pub["publication"] == "p"
        assert pub["cached_answers"] >= 1
        audit = pub["privacy_audit"]
        assert audit["ok"] is True
        assert audit["breach_probability"] <= audit["breach_bound"]
        assert audit["audited_version"] == pub["version"]

    def test_publication_stats_include_privacy_audit(self, api):
        self._exercise(api)
        status, stats = api("GET", "/publications/p/stats")
        assert status == 200
        assert stats["privacy_audit"]["method"] == "adversary-exact"
        assert stats["privacy_audit"]["eligibility_margin"] >= 0.0

    def test_stats_report_latency_quantiles(self, api):
        self._exercise(api)
        status, stats = api("GET", "/stats")
        assert status == 200
        latency = stats["latency"]
        assert latency  # at least the exercised endpoints
        for series in latency.values():
            assert series["count"] >= 1
            assert 0.0 <= series["p50_s"] <= series["p99_s"]
        assert any(labels.get("endpoint") ==
                   "/publications/{name}/query"
                   for labels in
                   (s["labels"] for s in latency.values()))


@pytest.fixture()
def monitored():
    """A service with the canary monitor and SLO engine enabled;
    yields (api, service) so tests can reach the registries."""
    service = ReproService(
        monitor_config=CanaryConfig(count=8, seed=5, interval_s=60.0),
        slo=SLOConfig(utility_error_degraded=0.2,
                      utility_error_failing=0.5))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    def call(method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            base + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    yield call, service
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestMonitorAndHealth:
    def test_healthz_tri_state(self, monitored):
        api, service = monitored
        status, payload = api("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        assert {"status", "reasons", "slos",
                "publications"} <= set(payload)

        gauge = service.metrics_registry.gauge(
            GAUGE_RELATIVE_ERROR, labelnames=("publication",))
        gauge.set(0.3, publication="p")  # past degraded, below failing
        status, payload = api("GET", "/healthz")
        assert status == 200 and payload["status"] == "degraded"
        assert any("utility" in r for r in payload["reasons"])

        gauge.set(0.9, publication="p")
        status, payload = api("GET", "/healthz")
        assert status == 503 and payload["status"] == "failing"

    def test_canary_reports_surface_in_stats(self, monitored):
        api, service = monitored
        create_publication(api)
        api("POST", "/publications/p/ingest", {"rows": make_rows(60)})
        service.monitor.run_all()
        status, stats = api("GET", "/stats")
        assert status == 200
        report = stats["utility"]["p"]
        assert report["method"] == "ground-truth"
        assert report["relative_error"] >= 0.0

    def test_retain_microdata_false_switches_to_variance_model(
            self, monitored):
        api, service = monitored
        status, payload = api("POST", "/publications", {
            "name": "p", "l": 3, "schema": SCHEMA_SPEC,
            "retain_microdata": False})
        assert status == 201, payload
        api("POST", "/publications/p/ingest", {"rows": make_rows(60)})
        status, stats = api("GET", "/publications/p/stats")
        assert status == 200
        assert stats["retain_microdata"] is False
        (report,) = service.monitor.run_all()
        assert report.method == "variance-model"
