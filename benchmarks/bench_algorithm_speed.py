"""Wall-clock computation cost: Anatomize vs Mondrian.

Complements Figures 8-9 (which measure simulated page I/O) with actual
CPU time of the in-memory algorithms: the paper's claim that "anatomized
tables can be computed much faster than generalized tables" should show
up here too, since Anatomize is a single linear pass plus a heap while
Mondrian recursively re-partitions.
"""

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
    """Anatomize at the largest grid cardinality — compare its time
    against test_speed_anatomize to see the linear scaling.  The perf
    gate reads the median round as ``bench.anatomize_heap``."""
    n = max(bench_config.cardinalities)
    table = dataset.sample_view(5, "Occupation", n, seed=0)
    partition = benchmark(anatomize_partition, table, bench_config.l,
                          seed=0)
    assert partition.m == n // bench_config.l
    record("bench.anatomize_heap", benchmark.stats.stats.median)
