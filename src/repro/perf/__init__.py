"""The benchmark regression gate.

Spans are timed by :mod:`repro.obs.tracing`: the benchmark suite
installs one session-wide :class:`~repro.obs.tracing.Tracer` and writes
its per-name aggregates to ``benchmarks/BENCH_summary.json`` with
:func:`repro.perf.check.write_summary`; ``python -m repro.perf.check``
compares that summary against a recorded baseline and fails on
regressions.
"""
