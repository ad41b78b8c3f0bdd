"""Unit tests for the perf recorder and library span coverage."""

import json

import pytest

from repro.core.incremental import IncrementalAnatomizer
from repro.dataset.schema import Attribute, Schema
from repro.obs import tracing
from repro.perf import PerfRecorder, active_recorder, set_recorder, span


@pytest.fixture()
def recorder():
    recorder = PerfRecorder(scale="test")
    previous = set_recorder(recorder)
    yield recorder
    set_recorder(previous)


@pytest.fixture()
def tracer():
    tracer = tracing.Tracer()
    previous = tracing.set_tracer(tracer)
    yield tracer
    tracing.set_tracer(previous)


class TestPerfRecorder:
    def test_write_creates_missing_parent_directories(self, tmp_path):
        recorder = PerfRecorder()
        recorder.record("x", 0.5)
        path = tmp_path / "deeply" / "nested" / "summary.json"
        assert recorder.write(str(path)) == str(path)
        document = json.loads(path.read_text())
        assert document["spans"]["x"]["count"] == 1

    def test_write_into_existing_directory_still_works(self, tmp_path):
        recorder = PerfRecorder()
        path = tmp_path / "summary.json"
        recorder.write(str(path))
        assert path.exists()

    def test_many_spans_under_one_name_fold_into_one_aggregate(self):
        recorder = PerfRecorder()
        for i in range(10_000):
            recorder.record("service.query.batch", 0.001 * (i % 7),
                            queries=i)
        assert list(recorder.totals()) == ["service.query.batch"]
        stats = recorder.totals()["service.query.batch"]
        assert stats["count"] == 10_000
        assert stats["min_s"] == 0.0
        assert stats["max_s"] == pytest.approx(0.006)
        assert stats["mean_s"] == pytest.approx(stats["total_s"] / 10_000)
        assert set(recorder.summary()) == {"schema_version", "metadata",
                                           "spans"}
        assert len(recorder._aggregates) == 1

    def test_span_noop_without_recorder(self):
        assert active_recorder() is None
        with span("anything"):  # must not raise, must not record
            pass


class TestIncrementalSpans:
    def test_ingest_and_seal_paths_are_instrumented(self, recorder,
                                                    tracer):
        schema = Schema([Attribute("A", range(50))],
                        Attribute("S", range(20)))
        inc = IncrementalAnatomizer(schema, l=3)
        sealed = inc.insert_codes([(i, i % 20) for i in range(30)])
        assert sealed == inc.group_count > 0
        totals = recorder.totals()
        assert totals["incremental.ingest"]["count"] == 1
        assert totals["incremental.seal"]["count"] == 1
        ingest_span, = tracer.find("incremental.ingest")
        assert ingest_span["attributes"]["rows"] == 30

    def test_no_seal_span_when_nothing_seals(self, recorder):
        schema = Schema([Attribute("A", range(50))],
                        Attribute("S", range(20)))
        inc = IncrementalAnatomizer(schema, l=5)
        inc.insert_codes([(0, 0), (1, 1)])  # buffers, seals nothing
        totals = recorder.totals()
        assert totals["incremental.ingest"]["count"] == 1
        assert "incremental.seal" not in totals


class TestThreadSafety:
    def test_concurrent_recording_loses_no_entries(self):
        """Regression test: the serving stack records spans from many
        handler threads against one shared recorder; a bare list append
        raced under free-threaded builds and lost entries."""
        import threading

        recorder = PerfRecorder()
        threads_n, per_thread = 8, 500

        def hammer(i):
            for k in range(per_thread):
                recorder.record(f"thread-{i}", 0.001, iteration=k)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        totals = recorder.totals()
        assert sum(s["count"] for s in totals.values()) == \
            threads_n * per_thread
        for i in range(threads_n):
            assert totals[f"thread-{i}"]["count"] == per_thread

    def test_summary_is_consistent_while_recording(self):
        """totals()/summary() may run concurrently with record()."""
        import threading

        recorder = PerfRecorder()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                recorder.record("w", 0.001, i=i)
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    totals = recorder.totals()
                    if "w" in totals:
                        assert totals["w"]["count"] >= 1
                    recorder.summary()
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
