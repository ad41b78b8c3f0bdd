"""Shared fixtures for the benchmark suite.

Each bench regenerates one of the paper's figures at the reduced
DEFAULT_CONFIG scale (see repro.experiments.config), prints the series the
paper plots, and records headline shape statistics in the
pytest-benchmark ``extra_info``.  Pass a larger config by editing
``BENCH_CONFIG`` below (e.g. to PAPER_CONFIG for a full-scale run).
"""

from __future__ import annotations

import os
import sys
import warnings

# OpenBLAS reads its thread count once, when numpy is first imported.
# With its default two threads, about one process in five on a 2-vCPU
# host stays in a mode where every small dgemm takes ~8 ms instead of
# ~0.5 ms, which the perf gate read as 7-8x ``bench.batch_anatomy``
# regressions.  So the whole benchmark session uses one thread.
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before benchmarks/conftest.py; "
                  "OPENBLAS_NUM_THREADS=1 has no effect on this session")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from repro.dataset.census import CensusDataset
from repro.experiments.config import (
    DEFAULT_CONFIG,
    PAPER_CONFIG,
    SMOKE_CONFIG,
)
from repro.obs import tracing
from repro.perf.check import write_summary

#: The grid every bench runs.  Select with REPRO_BENCH_SCALE =
#: smoke | default | paper (default: default).  "paper" is the faithful
#: 500k-tuple / 10k-query grid and takes hours.
_SCALES = {"smoke": SMOKE_CONFIG, "default": DEFAULT_CONFIG,
           "paper": PAPER_CONFIG}
BENCH_CONFIG = _SCALES[os.environ.get("REPRO_BENCH_SCALE", "default")]


@pytest.fixture(scope="session", autouse=True)
def bench_tracer():
    """Installs a session-wide aggregating Tracer so every instrumented
    span (experiment runners, batch engine, the benches' own records)
    lands in ``benchmarks/BENCH_summary.json`` — the machine-readable
    input of ``python -m repro.perf.check``."""
    tracer = tracing.Tracer(max_spans=0)
    previous = tracing.set_tracer(tracer)
    yield tracer
    tracing.set_tracer(previous)
    write_summary(
        os.path.join(os.path.dirname(__file__), "BENCH_summary.json"),
        tracer.totals(),
        scale=os.environ.get("REPRO_BENCH_SCALE", "default"),
        l=BENCH_CONFIG.l,
        default_n=BENCH_CONFIG.default_n,
        cpu_count=os.cpu_count(),
    )


@pytest.fixture(scope="session")
def bench_config():
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def dataset(bench_config):
    """The generated population shared by all benches."""
    return CensusDataset(n=bench_config.population,
                         seed=bench_config.data_seed)


@pytest.fixture()
def run_figure(bench_config, dataset):
    """Runs one figure driver under pytest-benchmark (single round — the
    drivers are deterministic and expensive) and returns its result."""

    def _run(benchmark, figure_fn):
        return benchmark.pedantic(
            figure_fn,
            kwargs={"config": bench_config, "dataset": dataset},
            rounds=1, iterations=1, warmup_rounds=0)

    return _run


@pytest.fixture()
def record_shape():
    """Attaches per-panel shape statistics to the benchmark record."""
    from repro.experiments.report import summarize_shape

    def _record(benchmark, result):
        for label, stats in summarize_shape(result).items():
            for key, value in stats.items():
                benchmark.extra_info[f"{label}.{key}"] = round(
                    float(value), 3)

    return _record
