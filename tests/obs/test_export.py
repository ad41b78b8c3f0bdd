"""Unit tests for the batching telemetry exporter."""

import json
import os
import threading

import pytest

from repro.exceptions import ReproError
from repro.obs import tracing
from repro.obs.export import TelemetryExporter, read_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


@pytest.fixture()
def tracer():
    tracer = Tracer()
    previous = tracing.set_tracer(tracer)
    yield tracer
    tracing.set_tracer(previous)


def span_names(records):
    return [r["span"]["name"] for r in records if r["kind"] == "span"]


class TestFlush:
    def test_requires_a_source(self, tmp_path):
        with pytest.raises(ReproError, match="tracer"):
            TelemetryExporter(str(tmp_path / "t.jsonl"))

    def test_writes_spans_and_metric_snapshots(self, tmp_path,
                                               tracer):
        path = str(tmp_path / "telemetry.jsonl")
        registry = MetricsRegistry()
        registry.inc("things_total", 3)
        exporter = TelemetryExporter(path, tracer=tracer,
                                     registry=registry)
        with tracing.span("one"):
            pass
        result = exporter.flush()
        exporter.close()
        assert result["spans"] == 1 and not result["rotated"]
        records = read_telemetry(path)
        assert span_names(records) == ["one"]
        snapshots = [r for r in records if r["kind"] == "metrics"]
        assert snapshots  # one per flush (flush + close's final)
        assert snapshots[0]["metrics"]["things_total"]["value"] == 3.0

    def test_each_span_exported_exactly_once(self, tmp_path, tracer):
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path, tracer=tracer)
        for name in ("a", "b"):
            with tracing.span(name):
                pass
        exporter.flush()
        with tracing.span("c"):
            pass
        exporter.flush()
        exporter.close()
        assert span_names(read_telemetry(path)) == ["a", "b", "c"]

    def test_self_telemetry_counters(self, tmp_path, tracer):
        path = str(tmp_path / "telemetry.jsonl")
        registry = MetricsRegistry()
        exporter = TelemetryExporter(path, tracer=tracer,
                                     registry=registry)
        with tracing.span("x"):
            pass
        exporter.flush()
        exporter.close()
        assert registry.get(
            "repro_telemetry_spans_exported_total").value() == 1.0
        assert registry.get(
            "repro_telemetry_flushes_total").value() == 2.0
        assert registry.get(
            "repro_telemetry_bytes_written_total").value() > 0.0


class TestRotation:
    def test_size_rotation_shifts_and_bounds_files(self, tmp_path,
                                                   tracer):
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path, tracer=tracer,
                                     max_bytes=512, max_files=2)
        for round_no in range(8):
            for j in range(16):
                with tracing.span(f"r{round_no}.s{j}"):
                    pass
            result = exporter.flush()
            assert result["spans"] == 16
        exporter.close()
        suffixes = sorted(p.name for p in tmp_path.iterdir())
        assert suffixes == ["telemetry.jsonl", "telemetry.jsonl.1",
                            "telemetry.jsonl.2"]
        # No span lost, none duplicated, across active + rotated.
        names: list[str] = []
        for name in suffixes:
            names.extend(span_names(
                read_telemetry(str(tmp_path / name))))
        # Rotation drops the oldest files, so the *retained* set has
        # no duplicates and always includes the newest span.
        assert len(names) == len(set(names))
        assert "r7.s15" in names

    def test_rotation_counter(self, tmp_path, tracer):
        path = str(tmp_path / "t.jsonl")
        registry = MetricsRegistry()
        exporter = TelemetryExporter(path, tracer=tracer,
                                     registry=registry, max_bytes=1)
        exporter.flush()
        exporter.close()
        assert registry.get(
            "repro_telemetry_rotations_total").value() >= 1.0


class TestMemoryWatermarks:
    def test_top_level_spans_carry_watermarks(self, tmp_path, tracer):
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path, tracer=tracer,
                                     memory_watermarks=True)
        try:
            with tracing.span("request"):
                with tracing.span("nested"):
                    _ = [0] * 10_000
            exporter.flush()
        finally:
            exporter.close()
        records = {r["span"]["name"]: r["span"]
                   for r in read_telemetry(path)}
        top = records["request"]["attributes"]
        assert top["memory_peak_bytes"] >= \
            top["memory_current_bytes"] >= 0
        assert "memory_peak_bytes" not in \
            records["nested"].get("attributes", {})

    def test_tracemalloc_ownership_is_released(self, tmp_path,
                                               tracer):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        exporter = TelemetryExporter(str(tmp_path / "t.jsonl"),
                                     tracer=tracer,
                                     memory_watermarks=True)
        exporter.close()
        assert tracemalloc.is_tracing() == was_tracing


class TestBackgroundLifecycle:
    def test_background_thread_flushes_until_closed(self, tmp_path,
                                                    tracer):
        import time

        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path, tracer=tracer,
                                     interval_s=0.02)
        with exporter:
            with tracing.span("early"):
                pass
            deadline = time.monotonic() + 5.0
            while not (os.path.exists(path)
                       and "early" in open(path).read()):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with tracing.span("late"):
                pass
        assert span_names(read_telemetry(path)) == ["early", "late"]
        assert not any(t.name == "repro-telemetry-exporter"
                       and t.is_alive()
                       for t in threading.enumerate())

    def test_start_is_idempotent(self, tmp_path, tracer):
        exporter = TelemetryExporter(str(tmp_path / "t.jsonl"),
                                     tracer=tracer, interval_s=10.0)
        exporter.start()
        first = exporter._thread
        exporter.start()
        assert exporter._thread is first
        exporter.close()

