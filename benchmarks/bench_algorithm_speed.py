"""Wall-clock computation cost: Anatomize vs Mondrian.

Complements Figures 8-9 (which measure simulated page I/O) with actual
CPU time of the in-memory algorithms: the paper's claim that "anatomized
tables can be computed much faster than generalized tables" should show
up here too, since Anatomize is a single linear pass plus a heap while
Mondrian recursively re-partitions.  Also pits the vectorized fast-path
Anatomize against the heap reference it must beat by >= 3x at the
largest grid cardinality.
"""

import time

from repro.core.anatomize import anatomize_partition
from repro.core.rce import anatomy_rce
from repro.generalization.mondrian import mondrian_partition
from repro.generalization.recoding import census_recoder
from repro.obs.tracing import record


def test_speed_anatomize(benchmark, bench_config, dataset):
    table = dataset.sample_view(5, "Occupation",
                                bench_config.default_n, seed=0)
    partition = benchmark(anatomize_partition, table, bench_config.l,
                          seed=0)
    assert partition.is_l_diverse(bench_config.l)
    benchmark.extra_info["groups"] = partition.m
    benchmark.extra_info["rce"] = round(anatomy_rce(partition), 1)


def test_speed_mondrian(benchmark, bench_config, dataset):
    table = dataset.sample_view(5, "Occupation",
                                bench_config.default_n, seed=0)
    recoder = census_recoder()
    partition = benchmark(mondrian_partition, table, bench_config.l,
                          recoder)
    assert partition.is_l_diverse(bench_config.l)
    benchmark.extra_info["groups"] = partition.m


def test_speed_anatomize_scales_linearly(benchmark, bench_config,
                                         dataset):
    """One timed run at the largest grid cardinality — compare its mean
    against test_speed_anatomize to see the linear scaling."""
    n = max(bench_config.cardinalities)
    table = dataset.sample_view(5, "Occupation", n, seed=0)
    partition = benchmark(anatomize_partition, table, bench_config.l,
                          seed=0)
    assert partition.m == n // bench_config.l


def test_speed_anatomize_fast_vs_heap(benchmark, bench_config, dataset):
    """Fast-path Anatomize vs the heap reference at the largest grid
    cardinality: >= 3x speedup with an equally valid partition."""
    l = bench_config.l
    n = max(bench_config.cardinalities)
    table = dataset.sample_view(5, "Occupation", n, seed=0)
    fast_partition = benchmark(anatomize_partition, table, l, seed=0,
                               method="fast")
    start = time.perf_counter()
    heap_partition = anatomize_partition(table, l, seed=0, method="heap")
    heap_seconds = time.perf_counter() - start
    fast_seconds = benchmark.stats.stats.mean
    assert fast_partition.is_l_diverse(l)
    assert heap_partition.is_l_diverse(l)
    assert (sorted(g.size for g in fast_partition)
            == sorted(g.size for g in heap_partition))
    speedup = heap_seconds / fast_seconds
    record("bench.anatomize_fast", fast_seconds)
    record("bench.anatomize_heap", heap_seconds)
    benchmark.extra_info["heap_ms"] = round(heap_seconds * 1e3, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    # The 3x bar is defined at the default grid's largest cardinality
    # (n=20,000); smaller smoke grids only check equivalence.
    if n >= 20_000:
        assert speedup >= 3.0, (
            f"fast Anatomize only {speedup:.2f}x faster than heap")
