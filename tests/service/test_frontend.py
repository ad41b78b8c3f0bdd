"""Unit tests for the combining query frontend."""

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
    frontend = QueryFrontend(registry)
    yield registry, publication, frontend
    frontend.close()


@pytest.fixture()
def tracer():
    tracer = tracing.Tracer()
    previous = tracing.set_tracer(tracer)
    yield tracer
    tracing.set_tracer(previous)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def record_batches(frontend, gate=None, *, failing=None,
                   error=RuntimeError):
    """Patch ``_evaluate`` to log (thread, batch size), holding the
    first batch until ``gate`` is set if one is given, and raising
    ``error`` from the batch numbered ``failing`` (1-based)."""
    log = []
    evaluate = frontend._evaluate

    def recording(snapshot, queries):
        log.append((threading.get_ident(), len(queries)))
        if gate is not None and len(log) == 1:
            assert gate.wait(timeout=10)
        if len(log) == failing:
            raise error("batch engine failed")
        return evaluate(snapshot, queries)

    frontend._evaluate = recording
    return log


class Caller(threading.Thread):
    """Runs one ``frontend.query`` and keeps its answer or exception."""

    def __init__(self, frontend, query, name=None, **kwargs) -> None:
        super().__init__(name=name, daemon=True)
        self.frontend = frontend
        self.query = query
        self.kwargs = kwargs
        self.answer = None
        self.error = None

    def run(self) -> None:
        try:
            self.answer = self.frontend.query("p", self.query,
                                              **self.kwargs)
        except BaseException as exc:  # noqa: BLE001 - checked by tests
            self.error = exc

    def finish(self):
        self.join(timeout=10)
        assert not self.is_alive(), "caller never returned"
        return self


def pile_behind_a_gated_batch(frontend, gate, queries):
    """Start a caller whose one-query batch is held at ``gate``, then
    one caller per remaining query; returns once all of those wait in
    the pile."""
    first = Caller(frontend, queries[0], name="caller-0")
    first.start()
    wait_until(lambda: frontend._evaluating)
    rest = [Caller(frontend, q, name=f"caller-{i}")
            for i, q in enumerate(queries[1:], start=1)]
    for caller in rest:
        caller.start()
    wait_until(lambda: len(frontend._pending) == len(rest))
    return first, rest


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

    def test_query_after_close_rejected(self, served, schema):
        _, _, frontend = served
        query = CountQuery(schema, {"A": [0]}, [0])
        frontend.query("p", query)
        frontend.close()
        with pytest.raises(ServiceError, match="closed"):
            frontend.query("p", CountQuery(schema, {"A": [1]}, [0]))
        # a cached answer needs no evaluation, so it is still served
        assert frontend.query("p", query).cached


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


class TestCoalescing:
    def test_queries_behind_a_running_batch_coalesce(
            self, served, schema, tracer):
        _, publication, frontend = served
        gate = threading.Event()
        record_batches(frontend, gate)
        queries = query_pool(schema, 40)
        first, rest = pile_behind_a_gated_batch(frontend, gate, queries)
        gate.set()
        callers = [first.finish()] + [c.finish() for c in rest]
        estimator = publication.snapshot().estimator
        for caller, query in zip(callers, queries):
            assert caller.error is None
            assert not caller.answer.cached
            assert caller.answer.answer == estimator.estimate(query)
        # the 39 that piled up behind the held batch ran as one pass
        sizes = [b["attributes"]["queries"]
                 for b in tracer.find("service.query.batch")]
        assert sizes == [1, 39]


class TestCallerEvaluates:
    """Every batch runs on the thread of a caller in it: the caller that
    finds no batch running takes the whole pile."""

    def test_idle_miss_runs_on_the_calling_thread(self, served, schema):
        _, publication, frontend = served
        log = record_batches(frontend)
        query = CountQuery(schema, {"A": range(20)}, [0, 1, 2, 3])
        answer = frontend.query("p", query)
        assert log == [(threading.get_ident(), 1)]
        assert answer.answer == \
            publication.snapshot().estimator.estimate(query)
        assert not answer.cached
        assert frontend.query("p", query).cached
        assert len(log) == 1

    def test_queries_arriving_during_a_batch_coalesce(self, served,
                                                      schema):
        _, _, frontend = served
        gate = threading.Event()
        log = record_batches(frontend, gate)
        first, rest = pile_behind_a_gated_batch(
            frontend, gate, query_pool(schema, 6))
        gate.set()
        first.finish()
        for caller in rest:
            assert caller.finish().error is None
            assert not caller.answer.cached
        # one of the five waiting callers took the whole pile
        assert log[0] == (first.ident, 1)
        (ident, size), = log[1:]
        assert size == 5
        assert ident in {caller.ident for caller in rest}
        assert not frontend._evaluating and frontend._pending == []

    def test_no_frontend_thread_is_started(self, served, schema,
                                           monkeypatch):
        _, _, frontend = served
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        gate = threading.Event()
        log = record_batches(frontend, gate)
        first, rest = pile_behind_a_gated_batch(
            frontend, gate, query_pool(schema, 4))
        gate.set()
        callers = [first.finish()] + [c.finish() for c in rest]
        assert started == [f"caller-{i}" for i in range(4)]
        assert {ident for ident, _ in log} <= \
            {caller.ident for caller in callers}
        assert "repro-query-frontend" not in \
            {thread.name for thread in threading.enumerate()}


class Interrupt(BaseException):
    """Not an ``Exception``: escapes the per-group handler, as
    ``KeyboardInterrupt`` would."""


class TestFailures:
    """An exception from the batch engine reaches every caller in the
    failed pile, and the combiner releases its claim."""

    @pytest.mark.parametrize("error", [RuntimeError, Interrupt])
    def test_error_reaches_every_caller_in_the_pile(self, served,
                                                    schema, error):
        _, publication, frontend = served
        gate = threading.Event()
        log = record_batches(frontend, gate, failing=2, error=error)
        queries = query_pool(schema, 5)
        first, rest = pile_behind_a_gated_batch(frontend, gate,
                                                queries[:4])
        gate.set()
        assert first.finish().error is None
        errors = [caller.finish().error for caller in rest]
        assert [size for _, size in log] == [1, 3]
        assert all(isinstance(e, error) for e in errors)
        assert not frontend._evaluating and frontend._pending == []
        # nothing from the failed pile was cached, and the next query
        # is answered
        assert frontend.cache_stats()["entries"] == 1
        answer = frontend.query("p", queries[4], timeout=10)
        assert answer.answer == \
            publication.snapshot().estimator.estimate(queries[4])

    def test_error_in_an_idle_callers_batch(self, served, schema):
        _, _, frontend = served
        record_batches(frontend, failing=1)
        failed, kept = query_pool(schema, 2)
        with pytest.raises(RuntimeError, match="batch engine failed"):
            frontend.query("p", failed, timeout=10)
        assert not frontend._evaluating and frontend._pending == []
        assert not frontend.query("p", kept, timeout=10).cached
        assert not frontend.query("p", failed, timeout=10).cached


class TestCancellation:
    """A query whose caller timed out before anyone took it leaves the
    pile: it is never evaluated, nor cached."""

    def test_timed_out_query_is_cancelled(self, served, schema, tracer):
        _, _, frontend = served
        gate = threading.Event()
        log = record_batches(frontend, gate)
        kept, abandoned = query_pool(schema, 2)
        first, _ = pile_behind_a_gated_batch(frontend, gate, [kept])
        with pytest.raises(TimeoutError):
            frontend.query("p", abandoned, timeout=0.01)
        assert frontend._pending == []
        gate.set()
        assert not first.finish().answer.cached
        assert log == [(first.ident, 1)]
        assert frontend.cache_stats()["entries"] == 1
        # the abandoned query was never answered, so it is not cached
        assert not frontend.query("p", abandoned).cached

    def test_batch_of_only_cancelled_queries_evaluates_nothing(
            self, served, schema, tracer):
        _, _, frontend = served
        gate = threading.Event()
        record_batches(frontend, gate)
        kept, *abandoned = query_pool(schema, 4)
        first, _ = pile_behind_a_gated_batch(frontend, gate, [kept])
        callers = [Caller(frontend, q, timeout=0.01) for q in abandoned]
        for caller in callers:
            caller.start()
        for caller in callers:
            assert isinstance(caller.finish().error, TimeoutError)
        assert frontend._pending == []
        gate.set()
        first.finish()
        batches = tracer.find("service.query.batch")
        assert [b["attributes"]["queries"] for b in batches] == [1]
        assert frontend.cache_stats()["entries"] == 1


class TestObservability:
    def test_batch_spans_join_the_first_callers_trace(self, served,
                                                      schema, tracer):
        """A pile may be evaluated on any of its callers' threads, but
        its spans belong to the trace of the caller first in it
        (captured on arrival, attached around the evaluation)."""
        _, _, frontend = served
        with tracing.span("http.request") as request:
            frontend.query("p", CountQuery(schema, {"A": [1, 2]}, [0]))
        evaluate, = tracer.find("query.batch.evaluate")
        batch, = tracer.find("service.query.batch")
        assert batch["trace_id"] == request.trace_id
        assert evaluate["trace_id"] == request.trace_id
        # parent chain: request -> service.query.batch -> evaluate
        assert batch["parent_id"] == request.span_id
        assert evaluate["parent_id"] == batch["span_id"]

        # a pile of two traced callers joins the first one's trace,
        # whichever of the two evaluates it
        tracer.clear()
        gate = threading.Event()
        record_batches(frontend, gate)
        requests = {}

        def traced(name, query):
            with tracing.span("http.request") as span:
                requests[name] = span
                frontend.query("p", query, timeout=10)

        held, early, late = query_pool(schema, 3)
        first, _ = pile_behind_a_gated_batch(frontend, gate, [held])
        for name, query in (("early", early), ("late", late)):
            thread = threading.Thread(target=traced, args=(name, query),
                                      daemon=True)
            thread.start()
            wait_until(lambda: name in requests
                       and len(frontend._pending) == len(requests))
        gate.set()
        first.finish()
        wait_until(lambda: len(tracer.find("service.query.batch")) == 2)
        pile = tracer.find("service.query.batch")[-1]
        assert pile["attributes"]["queries"] == 2
        assert pile["trace_id"] == requests["early"].trace_id
        assert pile["parent_id"] == requests["early"].span_id

    def test_coalesce_batch_size_histogram_observed(self, served,
                                                    schema):
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry

        _, _, frontend = served
        registry = MetricsRegistry()
        previous = metrics.set_registry(registry)
        try:
            gate = threading.Event()
            record_batches(frontend, gate)
            first, rest = pile_behind_a_gated_batch(
                frontend, gate, query_pool(schema, 16))
            gate.set()
            for caller in [first] + rest:
                assert caller.finish().error is None
        finally:
            metrics.set_registry(previous)
        histogram = registry.get("repro_service_coalesce_batch_size")
        snap = histogram.snapshot()
        # every query was observed in some batch: the held one, then
        # the 15 that piled up behind it
        assert snap["sum"] == 16
        assert snap["count"] == 2

    def test_cache_entries_for_counts_per_publication(self, served,
                                                      schema):
        _, _, frontend = served
        frontend.query_batch("p", query_pool(schema, 12))
        assert frontend.cache_entries_for("p") == 12
        assert frontend.cache_entries_for("other") == 0
