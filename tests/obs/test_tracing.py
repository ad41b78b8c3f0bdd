"""Unit tests for hierarchical tracing: IDs, nesting, threads."""

import threading

import pytest

from repro.obs import tracing
from repro.obs.tracing import NOOP_SPAN, ContextSnapshot, Tracer


@pytest.fixture()
def tracer():
    tracer = Tracer()
    previous = tracing.set_tracer(tracer)
    yield tracer
    tracing.set_tracer(previous)


class TestDisabled:
    def test_span_returns_the_shared_noop(self):
        assert tracing.active_tracer() is None
        assert tracing.span("x") is NOOP_SPAN
        assert tracing.span("y", a=1) is NOOP_SPAN  # same object

    def test_noop_span_api_is_inert(self):
        with tracing.span("x") as s:
            s.set_attribute("k", "v")
            assert s.context() is None
        assert tracing.current_context() is None
        assert tracing.capture_context() is None

    def test_attach_none_context_is_a_noop(self):
        with tracing.attach_context(None):
            assert tracing.current_context() is None


class TestSpans:
    def test_nested_spans_share_trace_and_link_parents(self, tracer):
        with tracing.span("outer") as outer:
            with tracing.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        outer_rec, = tracer.find("outer")
        inner_rec, = tracer.find("inner")
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert inner_rec["trace_id"] == outer_rec["trace_id"]

    def test_sibling_roots_get_distinct_traces(self, tracer):
        with tracing.span("a"):
            pass
        with tracing.span("b"):
            pass
        a, b = tracer.finished()
        assert a["trace_id"] != b["trace_id"]
        assert a["span_id"] != b["span_id"]

    def test_finished_records_duration_and_attributes(self, tracer):
        with tracing.span("work", queries=3) as s:
            s.set_attribute("status", 200)
        record, = tracer.finished()
        assert record["duration_s"] >= 0.0
        assert record["attributes"] == {"queries": 3, "status": 200}
        assert "error" not in record

    def test_exception_is_stamped_and_propagates(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracing.span("failing"):
                raise ValueError("boom")
        record, = tracer.finished()
        assert record["error"] == "ValueError: boom"

    def test_current_context_reflects_innermost_span(self, tracer):
        assert tracing.current_context() is None
        with tracing.span("outer"):
            with tracing.span("inner") as inner:
                context = tracing.current_context()
                assert context.span_id == inner.span_id
        assert tracing.current_context() is None

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(max_spans=2)
        previous = tracing.set_tracer(tracer)
        try:
            for name in ("a", "b", "c"):
                with tracing.span(name):
                    pass
        finally:
            tracing.set_tracer(previous)
        assert [s["name"] for s in tracer.finished()] == ["b", "c"]
        assert tracer.dropped == 1

    def test_clear_resets_buffer_and_drop_count(self, tracer):
        with tracing.span("x"):
            pass
        tracer.clear()
        assert tracer.finished() == [] and tracer.dropped == 0
        assert tracer.totals() == {}

    def test_overflow_bumps_the_dropped_spans_counter(self):
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer(max_spans=2)
        previous_tracer = tracing.set_tracer(tracer)
        previous_registry = metrics.set_registry(registry)
        try:
            for name in ("a", "b", "c", "d"):
                with tracing.span(name):
                    pass
        finally:
            tracing.set_tracer(previous_tracer)
            metrics.set_registry(previous_registry)
        counter = registry.get("repro_trace_spans_dropped_total")
        assert counter is not None and counter.value() == 2.0
        assert tracer.dropped == 2


class TestAggregates:
    def test_overflow_still_counts_every_span(self):
        tracer = Tracer(max_spans=2)
        previous = tracing.set_tracer(tracer)
        try:
            for _ in range(100):
                with tracing.span("hot"):
                    pass
        finally:
            tracing.set_tracer(previous)
        assert tracer.totals()["hot"]["count"] == 100
        assert len(tracer) == 2 and tracer.dropped == 98

    def test_aggregates_only_tracer_keeps_no_records(self):
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer(max_spans=0)
        previous_tracer = tracing.set_tracer(tracer)
        previous_registry = metrics.set_registry(registry)
        try:
            for _ in range(5):
                with tracing.span("work"):
                    assert tracing.current_context() is None
            tracing.record("bench.work", 0.25)
        finally:
            tracing.set_tracer(previous_tracer)
            metrics.set_registry(previous_registry)
        assert tracer.finished() == [] and len(tracer) == 0
        assert tracer.dropped == 0
        assert registry.get("repro_trace_spans_dropped_total") is None
        totals = tracer.totals()
        assert totals["work"]["count"] == 5
        assert totals["bench.work"] == {
            "count": 1, "total_s": 0.25, "min_s": 0.25, "max_s": 0.25,
            "mean_s": 0.25}

class TestDrain:
    def test_drain_takes_everything_exactly_once(self, tracer):
        for name in ("a", "b"):
            with tracing.span(name):
                pass
        batch = tracer.drain()
        assert [s["name"] for s in batch] == ["a", "b"]
        assert tracer.finished() == [] and tracer.drain() == []

    def test_drain_preserves_the_drop_tally(self):
        tracer = Tracer(max_spans=1)
        previous = tracing.set_tracer(tracer)
        try:
            for name in ("a", "b"):
                with tracing.span(name):
                    pass
        finally:
            tracing.set_tracer(previous)
        tracer.drain()
        assert tracer.dropped == 1  # cumulative, like a counter

    def test_concurrent_drain_hands_out_each_span_once(self, tracer):
        """The exporter guarantee: under concurrent finishers and
        drainers, every span lands in exactly one drained batch (or
        the final buffer), never two."""
        per_thread, threads_n = 200, 4
        drained: list[dict] = []
        stop = threading.Event()

        def finisher(i):
            for j in range(per_thread):
                with tracing.span(f"t{i}.{j}"):
                    pass

        def drainer():
            while not stop.is_set():
                drained.extend(tracer.drain())

        drain_thread = threading.Thread(target=drainer)
        workers = [threading.Thread(target=finisher, args=(i,))
                   for i in range(threads_n)]
        drain_thread.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        drain_thread.join()
        drained.extend(tracer.drain())
        names = [s["name"] for s in drained]
        assert len(names) == per_thread * threads_n
        assert len(set(names)) == len(names)
        assert tracer.dropped == 0


class TestCrossThread:
    def test_captured_context_parents_spans_on_another_thread(
            self, tracer):
        """The frontend pattern: capture on the submitting thread,
        attach on the worker."""
        captured = {}

        def worker(snapshot):
            with tracing.attach_context(snapshot):
                with tracing.span("worker.batch") as s:
                    captured["trace_id"] = s.trace_id
                    captured["parent_id"] = s.parent_id

        with tracing.span("http.request") as request:
            snapshot = tracing.capture_context()
            assert isinstance(snapshot, ContextSnapshot)
            thread = threading.Thread(target=worker, args=(snapshot,))
            thread.start()
            thread.join()
            assert captured["trace_id"] == request.trace_id
            assert captured["parent_id"] == request.span_id

    def test_unattached_thread_starts_its_own_trace(self, tracer):
        seen = {}

        def worker():
            with tracing.span("orphan") as s:
                seen["parent_id"] = s.parent_id

        with tracing.span("root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["parent_id"] is None

    def test_concurrent_spans_record_without_loss(self, tracer):
        def hammer(i):
            for _ in range(50):
                with tracing.span(f"thread-{i}"):
                    pass

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 8 * 50
        ids = [s["span_id"] for s in tracer.finished()]
        assert len(set(ids)) == len(ids)  # IDs unique across threads
