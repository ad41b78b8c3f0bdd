"""Unit tests for the micro-batching query frontend."""

import threading
import time

import pytest

from repro.exceptions import QueryError, ServiceError
from repro.obs import tracing
from repro.query.predicates import CountQuery
from repro.service.frontend import QueryFrontend
from repro.service.registry import PublicationRegistry

from tests.service.conftest import make_rows


@pytest.fixture()
def served(schema):
    """A registry with one 100-row publication plus its frontend."""
    registry = PublicationRegistry()
    publication = registry.create("p", schema, l=4)
    publication.ingest(make_rows(100))
    frontend = QueryFrontend(registry, batch_window_s=0.0005)
    yield registry, publication, frontend
    frontend.close()


@pytest.fixture()
def tracer():
    tracer = tracing.Tracer()
    previous = tracing.set_tracer(tracer)
    yield tracer
    tracing.set_tracer(previous)


def query_pool(schema, count):
    """Distinct single-attribute queries (distinct fingerprints)."""
    return [CountQuery(schema, {"A": [(i * 3) % 50, (i * 3 + 1) % 50]},
                       [i % 20, (i + 1) % 20])
            for i in range(count)]


class TestSingleQueries:
    def test_answer_matches_per_query_estimator(self, served, schema):
        registry, publication, frontend = served
        query = CountQuery(schema, {"A": range(20)}, [0, 1, 2, 3])
        answer = frontend.query("p", query)
        expected = publication.snapshot().estimator.estimate(query)
        assert answer.answer == expected
        assert answer.version == publication.version
        assert not answer.cached

    def test_second_identical_query_hits_cache(self, served, schema):
        _, _, frontend = served
        query = CountQuery(schema, {"A": [1, 2, 3]}, [0, 1])
        first = frontend.query("p", query)
        second = frontend.query("p", query)
        assert not first.cached and second.cached
        assert second.answer == first.answer
        assert frontend.cache_stats()["hits"] >= 1

    def test_ingest_invalidates_cached_answers(self, served, schema):
        _, publication, frontend = served
        query = CountQuery(schema, {"A": range(50)}, list(range(20)))
        before = frontend.query("p", query)
        assert frontend.query("p", query).cached
        publication.ingest(make_rows(100, start=100))
        after = frontend.query("p", query)
        assert not after.cached  # version key changed
        assert after.version > before.version
        # the unconstrained COUNT grows with the release
        assert after.answer > before.answer

    def test_empty_publication_answers_zero(self, schema):
        registry = PublicationRegistry()
        registry.create("empty", schema, l=5)
        with QueryFrontend(registry) as frontend:
            answer = frontend.query(
                "empty", CountQuery(schema, {"A": [0]}, [0]))
        assert answer.answer == 0.0 and answer.version == 0

    def test_unknown_publication_rejected(self, served, schema):
        _, _, frontend = served
        with pytest.raises(ServiceError, match="unknown publication"):
            frontend.query("nope", CountQuery(schema, {"A": [0]}, [0]))

    def test_schema_mismatch_rejected(self, served):
        from repro.dataset.hospital import hospital_schema
        _, _, frontend = served
        other = CountQuery(hospital_schema(), {}, [0])
        with pytest.raises(QueryError, match="does not match"):
            frontend.query("p", other)

    def test_submit_after_close_rejected(self, schema):
        registry = PublicationRegistry()
        registry.create("p", schema, l=4)
        frontend = QueryFrontend(registry)
        frontend.close()
        with pytest.raises(ServiceError, match="closed"):
            frontend.submit("p", CountQuery(schema, {"A": [0]}, [0]))


class TestBatchPath:
    def test_batch_matches_singles(self, served, schema):
        _, publication, frontend = served
        queries = query_pool(schema, 32)
        answers = frontend.query_batch("p", queries)
        estimator = publication.snapshot().estimator
        for query, answer in zip(queries, answers):
            assert answer.answer == estimator.estimate(query)
            assert not answer.cached

    def test_large_batch_goes_through_batch_engine(self, served, schema,
                                                   tracer):
        _, _, frontend = served
        queries = query_pool(schema, 128)
        frontend.query_batch("p", queries)
        totals = tracer.totals()
        # one micro-batch of 128 through the vectorized engine, not a
        # per-query loop
        assert totals["service.query.batch"]["count"] == 1
        assert totals["query.batch.evaluate"]["count"] == 1
        batch, = tracer.find("service.query.batch")
        assert batch["attributes"]["queries"] == 128

    def test_batch_serves_cached_entries_without_reevaluating(
            self, served, schema, tracer):
        _, _, frontend = served
        queries = query_pool(schema, 20)
        frontend.query_batch("p", queries)
        again = frontend.query_batch("p", queries + query_pool(
            schema, 40)[20:])
        assert all(a.cached for a in again[:20])
        assert not any(a.cached for a in again[20:])
        batches = tracer.find("service.query.batch")
        # second call evaluated only the 20 misses
        assert batches[-1]["attributes"]["queries"] == 20

    def test_fast_mode_close_to_exact(self, served, schema):
        registry, publication, _ = served
        fast = QueryFrontend(registry, mode="fast", cache_size=0)
        try:
            queries = query_pool(schema, 64)
            exact = publication.snapshot().estimator.estimate_workload(
                queries)
            answers = fast.query_batch("p", queries)
            for expected, answer in zip(exact, answers):
                assert answer.answer == pytest.approx(expected,
                                                      rel=1e-9, abs=1e-9)
        finally:
            fast.close()

    def test_invalid_mode_rejected(self, schema):
        with pytest.raises(QueryError, match="unknown serving mode"):
            QueryFrontend(PublicationRegistry(), mode="approximate")


class TestCoalescing:
    def test_submits_within_window_coalesce(self, served, schema,
                                            tracer):
        _, _, frontend = served
        frontend.batch_window_s = 0.05  # widen to make the test robust
        queries = query_pool(schema, 40)
        futures = [frontend.submit("p", q) for q in queries]
        answers = [f.result(timeout=10) for f in futures]
        assert all(not a.cached for a in answers)
        batches = tracer.find("service.query.batch")
        # far fewer engine passes than queries, and at least one real
        # micro-batch
        assert len(batches) < len(queries)
        assert max(b["attributes"]["queries"] for b in batches) > 1


class TestCallerEvaluates:
    """With no coalescing window, ``query`` evaluates a miss on the
    calling thread when no batch is running; queries that arrive while
    one runs still pile up for the worker."""

    @pytest.fixture()
    def unwindowed(self, served):
        registry, publication, _ = served
        frontend = QueryFrontend(registry, batch_window_s=0.0)
        yield publication, frontend
        frontend.close()

    @staticmethod
    def record_batches(frontend, gate=None):
        """Patch ``_evaluate`` to log (thread, batch size), optionally
        holding every batch until ``gate`` is set."""
        log = []
        evaluate = frontend._evaluate

        def recording(snapshot, queries):
            log.append((threading.get_ident(), len(queries)))
            if gate is not None:
                assert gate.wait(timeout=10)
            return evaluate(snapshot, queries)

        frontend._evaluate = recording
        return log

    def test_idle_miss_runs_on_the_calling_thread(self, unwindowed,
                                                  schema):
        publication, frontend = unwindowed
        log = self.record_batches(frontend)
        query = CountQuery(schema, {"A": range(20)}, [0, 1, 2, 3])
        answer = frontend.query("p", query)
        assert log == [(threading.get_ident(), 1)]
        assert answer.answer == \
            publication.snapshot().estimator.estimate(query)
        assert not answer.cached
        assert frontend.query("p", query).cached
        assert len(log) == 1

    def test_queries_arriving_during_a_batch_coalesce(self, unwindowed,
                                                      schema):
        _, frontend = unwindowed
        gate = threading.Event()
        log = self.record_batches(frontend, gate)
        first, *rest = query_pool(schema, 6)
        caller = threading.Thread(
            target=frontend.query, args=("p", first), daemon=True)
        caller.start()
        while not log:  # the caller's inline batch is running
            time.sleep(0.001)
        futures = [frontend.submit("p", q) for q in rest]
        gate.set()
        caller.join(timeout=10)
        answers = [f.result(timeout=10) for f in futures]
        assert not any(a.cached for a in answers)
        assert log[0] == (caller.ident, 1)
        # the worker took the five in at most two batches: the first
        # held at the gate while the others piled up behind it
        assert sum(size for _, size in log[1:]) == 5
        assert 1 <= len(log) - 1 <= 2
        assert all(ident != caller.ident for ident, _ in log[1:])


class TestCancellation:
    """A future cancelled before the worker drains it is never
    evaluated (nor cached); the worker skips a group left empty."""

    @staticmethod
    def evaluated(tracer):
        return sum(b["attributes"]["queries"]
                   for b in tracer.find("service.query.batch"))

    def test_cancelled_future_is_not_evaluated(self, served, schema,
                                               tracer):
        _, _, frontend = served
        frontend.batch_window_s = 0.5
        abandoned, kept = query_pool(schema, 2)
        assert frontend.submit("p", abandoned).cancel()
        answer = frontend.submit("p", kept).result(timeout=10)
        assert not answer.cached
        assert self.evaluated(tracer) == 1
        assert frontend.cache_stats()["entries"] == 1

    def test_timed_out_query_is_cancelled(self, served, schema, tracer):
        _, _, frontend = served
        frontend.batch_window_s = 0.5
        abandoned, kept = query_pool(schema, 2)
        with pytest.raises(TimeoutError):
            frontend.query("p", abandoned, timeout=0.01)
        frontend.query("p", kept, timeout=10)
        assert self.evaluated(tracer) == 1
        # the abandoned query was never answered, so it is not cached
        assert not frontend.query("p", abandoned).cached

    def test_batch_of_only_cancelled_queries_evaluates_nothing(
            self, served, schema, tracer):
        _, _, frontend = served
        frontend.batch_window_s = 0.5
        futures = [frontend.submit("p", q)
                   for q in query_pool(schema, 3)]
        assert all(f.cancel() for f in futures)
        frontend.close()  # drains the pending batch
        assert tracer.find("service.query.batch") == []


class TestObservability:
    def test_worker_thread_spans_join_the_submitters_trace(
            self, served, schema):
        """The micro-batch evaluation runs on the frontend's worker
        thread, but its spans must belong to the submitting request's
        trace (captured at submit, attached around the evaluation)."""
        from repro.obs import tracing

        _, _, frontend = served
        tracer = tracing.Tracer()
        previous = tracing.set_tracer(tracer)
        try:
            with tracing.span("http.request") as request:
                frontend.query(
                    "p", CountQuery(schema, {"A": [1, 2]}, [0]))
            evaluate, = tracer.find("query.batch.evaluate")
            batch, = tracer.find("service.query.batch")
        finally:
            tracing.set_tracer(previous)
        assert batch["trace_id"] == request.trace_id
        assert evaluate["trace_id"] == request.trace_id
        # parent chain: request -> service.query.batch -> evaluate
        assert batch["parent_id"] == request.span_id
        assert evaluate["parent_id"] == batch["span_id"]

    def test_coalesce_batch_size_histogram_observed(self, served,
                                                    schema):
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry

        _, _, frontend = served
        frontend.batch_window_s = 0.05  # widen so submits coalesce
        registry = MetricsRegistry()
        previous = metrics.set_registry(registry)
        try:
            futures = [frontend.submit("p", q)
                       for q in query_pool(schema, 16)]
            for future in futures:
                future.result(timeout=10)
        finally:
            metrics.set_registry(previous)
        histogram = registry.get("repro_service_coalesce_batch_size")
        snap = histogram.snapshot()
        # every submitted query was observed in some micro-batch, in
        # fewer batches than queries
        assert snap["sum"] == 16
        assert 1 <= snap["count"] < 16

    def test_cache_entries_for_counts_per_publication(self, served,
                                                      schema):
        _, _, frontend = served
        frontend.query_batch("p", query_pool(schema, 12))
        assert frontend.cache_entries_for("p") == 12
        assert frontend.cache_entries_for("other") == 0
