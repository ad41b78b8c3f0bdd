"""End-to-end HTTP latency: what a client of ``repro serve`` waits for.

The other serving benches drive the registry and frontend in process, so
they cannot see the socket.  These drive :func:`repro.service.http.make_server`
on ``127.0.0.1:0`` over one keep-alive :class:`http.client.HTTPConnection`,
the way a real client does, and time each exchange from the first request
byte to the last response byte.  A response written in two segments (headers,
then body) stalls ~40 ms on Nagle's algorithm and the client's delayed ACK;
these spans are the gate's view of that.

Each test records one median through :func:`repro.obs.tracing.record`, so a
host burst on a few requests does not move the gated number.  The server
installs its own tracer while it runs; its spans (``service.*``) stay there
and do not mix into the in-process benches' gated spans.
"""

import contextlib
import http.client
import json
import statistics
import threading
import time

import numpy as np
import pytest

from repro.obs.tracing import record
from repro.query.predicates import query_fingerprint
from repro.query.workload import make_workload
from repro.service.http import ReproService, make_server
from repro.service.registry import schema_to_json

#: Untimed single-query POSTs before the timed ones.
WARMUP_QUERIES = 20
#: Timed single-query POSTs; no query is sent twice, so none is cached.
POINT_QUERIES = 200
#: Rows per ingest in the ingest-then-probe cycle.
CYCLE_ROWS = 100
WARMUP_CYCLES = 3
CYCLES = 30


@pytest.fixture(scope="module")
def census(dataset, bench_config):
    """Code rows (the base load, then every ingest cycle's rows) and
    their schema."""
    cycle_total = (WARMUP_CYCLES + CYCLES) * CYCLE_ROWS
    n = min(bench_config.default_n + cycle_total,
            bench_config.population)
    table = dataset.sample_view(5, "Occupation", n, seed=0)
    return [list(row) for row in table.iter_rows()], table.schema


@pytest.fixture(scope="module")
def query_bodies(census):
    """Distinct single-query request bodies (distinct fingerprints)."""
    _, schema = census
    count = WARMUP_QUERIES + POINT_QUERIES + WARMUP_CYCLES + CYCLES
    seen: set[str] = set()
    queries = []
    for query in make_workload(schema, 5, 0.05, 2 * count, seed=11):
        fingerprint = query_fingerprint(query)
        if fingerprint not in seen:
            seen.add(fingerprint)
            queries.append(query)
    assert len(queries) >= count
    bodies = [json.dumps({
        "qi": {name: sorted(codes)
               for name, codes in q.qi_predicates.items()},
        "sensitive": sorted(q.sensitive_values)}).encode()
        for q in queries[:count]]
    return queries[:count], bodies


@contextlib.contextmanager
def _served():
    """A served ``ReproService`` and one keep-alive connection to it."""
    service = ReproService()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        yield service, connection
    finally:
        connection.close()
        server.shutdown()
        server.server_close()  # also restores the session tracer
        thread.join(timeout=5)


def _post(connection, path: str, body: bytes) -> dict:
    connection.request("POST", path, body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    payload = json.loads(response.read())
    assert response.status in (200, 201), payload
    return payload


def _load(connection, schema, base_rows, l) -> None:
    _post(connection, "/publications", json.dumps({
        "name": "bench", "l": l,
        "schema": schema_to_json(schema)}).encode())
    _post(connection, "/publications/bench/ingest",
          json.dumps({"rows": base_rows}).encode())


def test_service_e2e_point(census, query_bodies, bench_config):
    """Median latency of never-repeated single-query POSTs."""
    table_rows, schema = census
    queries, bodies = query_bodies
    point = slice(0, WARMUP_QUERIES + POINT_QUERIES)
    latencies = []
    answers = []
    with _served() as (service, connection):
        _load(connection, schema, table_rows[:bench_config.default_n],
              bench_config.l)
        for i, body in enumerate(bodies[point]):
            start = time.perf_counter()
            answer = _post(connection, "/publications/bench/query", body)
            elapsed = time.perf_counter() - start
            if i >= WARMUP_QUERIES:
                latencies.append(elapsed)
            answers.append(answer)
        expected = service.registry.get("bench").snapshot() \
            .estimator.estimate_workload(queries[point])
    median = statistics.median(latencies)
    record("bench.e2e_point", median)
    print(f"\ne2e point: median {median * 1e3:.2f} ms over "
          f"{len(latencies)} requests")
    assert not any(a["cached"] for a in answers)
    assert np.array_equal([a["answer"] for a in answers], expected)


def test_service_e2e_ingest_probe(census, query_bodies, bench_config):
    """Median of a 100-row ingest followed by a never-seen probe: the
    time until freshly ingested groups answer a query."""
    table_rows, schema = census
    _, bodies = query_bodies
    probes = bodies[-(WARMUP_CYCLES + CYCLES):]
    cycle_total = (WARMUP_CYCLES + CYCLES) * CYCLE_ROWS
    base_rows, cycle_rows = table_rows[:-cycle_total], \
        table_rows[-cycle_total:]
    cycles = []
    with _served() as (_, connection):
        _load(connection, schema, base_rows, bench_config.l)
        for i, probe in enumerate(probes):
            chunk = cycle_rows[i * CYCLE_ROWS:(i + 1) * CYCLE_ROWS]
            ingest_body = json.dumps({"rows": chunk}).encode()
            start = time.perf_counter()
            ingested = _post(connection, "/publications/bench/ingest",
                             ingest_body)
            answer = _post(connection, "/publications/bench/query", probe)
            elapsed = time.perf_counter() - start
            if i >= WARMUP_CYCLES:
                cycles.append(elapsed)
            assert answer["version"] == ingested["version"]
            assert not answer["cached"]
    median = statistics.median(cycles)
    record("bench.e2e_ingest_probe", median)
    print(f"\ne2e ingest+probe: median {median * 1e3:.2f} ms over "
          f"{len(cycles)} cycles")
