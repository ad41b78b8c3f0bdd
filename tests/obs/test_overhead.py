"""Tier-1 guard: observability hooks cost ~nothing when disabled.

Three probes, from strongest to weakest:

* **identity** — the disabled hooks return the one shared
  :data:`~repro.obs.tracing.NOOP_SPAN` object, so the hot path
  allocates nothing;
* **poisoned registry** — a registry/tracer whose methods raise is NOT
  installed, then the instrumented hot paths (``anatomize`` and the
  batch evaluator) run: if any hook fired despite being disabled, the
  run would blow up;
* **timing** — a tight loop over the disabled ``span`` hook stays
  within an order of magnitude of an empty ``with`` block, i.e. the
  disabled path is a global load and a branch, not real work.
"""

import time

import pytest

from repro.core.anatomize import anatomize
from repro.obs import metrics, tracing
from repro.obs.tracing import NOOP_SPAN
from repro.query.estimators import AnatomyEstimator
from repro.query.predicates import CountQuery


class TestDisabledIdentity:
    def test_all_disabled_hooks_share_one_noop_span(self):
        assert tracing.active_tracer() is None
        assert metrics.active_registry() is None
        spans = {tracing.span("a"), tracing.span("b", x=1)}
        assert spans == {NOOP_SPAN}


def _poison(monkeypatch):
    """Make every module-level metric hook a test failure, so any
    emission from a supposedly-disabled hot path blows up loudly."""
    def boom(*args, **kwargs):
        raise AssertionError(
            "observability hook fired while disabled")
    monkeypatch.setattr(metrics, "inc", boom)
    monkeypatch.setattr(metrics, "set_gauge", boom)
    monkeypatch.setattr(metrics, "observe", boom)


class TestDisabledHotPaths:
    def test_anatomize_emits_nothing_while_disabled(
            self, hospital, monkeypatch):
        assert metrics.active_registry() is None
        _poison(monkeypatch)
        released = anatomize(hospital, l=2)
        assert released.n == 8

    def test_batch_evaluator_emits_nothing_while_disabled(
            self, occ3, occ3_published, monkeypatch):
        assert metrics.active_registry() is None
        assert tracing.active_tracer() is None
        _poison(monkeypatch)
        evaluator = AnatomyEstimator(occ3_published)
        query = CountQuery(
            occ3.schema,
            {occ3.schema.qi_names[0]: [0, 1, 2]}, [0])
        estimates = evaluator.estimate_workload([query])
        assert len(estimates) == 1

    def test_instrumented_paths_work_when_enabled_too(self, hospital):
        """The same code paths do record once sinks are installed."""
        registry = metrics.MetricsRegistry()
        tracer = tracing.Tracer()
        prev_registry = metrics.set_registry(registry)
        prev_tracer = tracing.set_tracer(tracer)
        try:
            anatomize(hospital, l=2)
        finally:
            metrics.set_registry(prev_registry)
            tracing.set_tracer(prev_tracer)
        doc = registry.to_json()
        assert doc["repro_anatomize_total"]["value"] == 1
        assert doc["repro_anatomize_tuples_total"]["value"] == 8
        assert len(tracer.find("core.anatomize")) == 1


class TestDisabledTiming:
    def test_disabled_span_is_within_noise_of_an_empty_block(self):
        assert tracing.active_tracer() is None
        iterations = 20_000

        def empty_blocks():
            start = time.perf_counter()
            for _ in range(iterations):
                with NOOP_SPAN:
                    pass
            return time.perf_counter() - start

        def disabled_spans():
            start = time.perf_counter()
            for _ in range(iterations):
                with tracing.span("hot.loop"):
                    pass
            return time.perf_counter() - start

        empty_blocks(), disabled_spans()  # warm up
        baseline = min(empty_blocks() for _ in range(3))
        disabled = min(disabled_spans() for _ in range(3))
        # the hook adds a global load + branch per iteration; an order
        # of magnitude is far above scheduler noise but would still
        # catch accidental allocation or locking on the disabled path
        assert disabled < baseline * 10 + 0.01, (
            f"disabled span loop took {disabled:.4f}s vs "
            f"{baseline:.4f}s for empty blocks")
