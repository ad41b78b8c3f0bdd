"""Unit tests for the tracer's span aggregates, the summary writer and
library span coverage."""

import json

import pytest

from repro.core.incremental import IncrementalAnatomizer
from repro.dataset.schema import Attribute, Schema
from repro.obs import tracing
from repro.perf.check import write_summary


@pytest.fixture()
def tracer():
    tracer = tracing.Tracer()
    previous = tracing.set_tracer(tracer)
    yield tracer
    tracing.set_tracer(previous)


class TestTracerAggregates:
    def test_write_creates_missing_parent_directories(self, tmp_path):
        tracer = tracing.Tracer()
        tracer.record("x", 0.5)
        path = tmp_path / "deeply" / "nested" / "summary.json"
        assert write_summary(str(path), tracer.totals()) == str(path)
        document = json.loads(path.read_text())
        assert document["spans"]["x"]["count"] == 1

    def test_write_into_existing_directory_still_works(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(str(path), {}, scale="test")
        assert json.loads(path.read_text()) == {
            "schema_version": 1, "metadata": {"scale": "test"},
            "spans": {}}

    def test_many_spans_under_one_name_fold_into_one_aggregate(self):
        tracer = tracing.Tracer(max_spans=0)
        for i in range(10_000):
            tracer.record("service.query.batch", 0.001 * (i % 7))
        assert list(tracer.totals()) == ["service.query.batch"]
        stats = tracer.totals()["service.query.batch"]
        assert stats["count"] == 10_000
        assert stats["min_s"] == 0.0
        assert stats["max_s"] == pytest.approx(0.006)
        assert stats["mean_s"] == pytest.approx(stats["total_s"] / 10_000)
        assert set(stats) == {"count", "total_s", "min_s", "max_s",
                              "mean_s"}
        assert len(tracer._aggregates) == 1

    def test_span_noop_without_tracer(self):
        assert tracing.active_tracer() is None
        with tracing.span("anything"):  # must not raise, must not record
            pass
        tracing.record("anything", 1.0)


class TestIncrementalSpans:
    def test_ingest_and_seal_paths_are_instrumented(self, tracer):
        schema = Schema([Attribute("A", range(50))],
                        Attribute("S", range(20)))
        inc = IncrementalAnatomizer(schema, l=3)
        sealed = inc.insert_codes([(i, i % 20) for i in range(30)])
        assert sealed == inc.group_count > 0
        totals = tracer.totals()
        assert totals["incremental.ingest"]["count"] == 1
        assert totals["incremental.seal"]["count"] == 1
        ingest_span, = tracer.find("incremental.ingest")
        assert ingest_span["attributes"]["rows"] == 30
        seal_span, = tracer.find("incremental.seal")
        assert seal_span["attributes"]["sealed"] == sealed
        assert seal_span["parent_id"] == ingest_span["span_id"]

    def test_no_seal_span_when_nothing_seals(self, tracer):
        schema = Schema([Attribute("A", range(50))],
                        Attribute("S", range(20)))
        inc = IncrementalAnatomizer(schema, l=5)
        inc.insert_codes([(0, 0), (1, 1)])  # buffers, seals nothing
        totals = tracer.totals()
        assert totals["incremental.ingest"]["count"] == 1
        assert "incremental.seal" not in totals
        assert tracer.find("incremental.seal") == []


class TestThreadSafety:
    def test_concurrent_recording_loses_no_entries(self):
        """Regression test: the serving stack finishes spans from many
        handler threads against one shared tracer; an unguarded
        read-modify-write of an aggregate would lose counts.

        The aggregate map is swapped for one whose reads wait (up to
        1 s) until every thread has read.  Without the lock the threads
        then fold each new name from the same missing aggregate and
        counts are lost; with it no thread can read until the previous
        one has written, so the first wait times out, breaks the
        barrier, and later reads pass straight through."""
        import threading

        tracer = tracing.Tracer(max_spans=0)
        threads_n, rounds = 4, 20
        meet = threading.Barrier(threads_n, timeout=1.0)

        class InterleavingDict(dict):
            def get(self, key, default=None):
                value = super().get(key, default)
                try:
                    meet.wait()
                except threading.BrokenBarrierError:
                    pass
                return value

        tracer._aggregates = InterleavingDict()

        def hammer():
            for k in range(rounds):
                tracer.record(f"recorded-{k}", 0.001)
                with tracer.span(f"span-{k}"):
                    pass

        threads = [threading.Thread(target=hammer)
                   for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        totals = tracer.totals()
        for k in range(rounds):
            assert totals[f"recorded-{k}"]["count"] == threads_n
            assert totals[f"span-{k}"]["count"] == threads_n

    def test_summary_is_consistent_while_recording(self, tmp_path):
        """totals() and the summary writer may run concurrently with
        record()."""
        import threading

        tracer = tracing.Tracer(max_spans=0)
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                tracer.record("w", 0.001)

        def reader():
            try:
                while not stop.is_set():
                    totals = tracer.totals()
                    if "w" in totals:
                        assert totals["w"]["count"] >= 1
                    write_summary(str(tmp_path / "summary.json"), totals)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for t in threads:
            t.start()
        import time as _time
        _time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
