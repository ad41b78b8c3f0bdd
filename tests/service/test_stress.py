"""Concurrency stress tests: mixed ingest + query against one
publication.

The consistency claim under test: every served answer is *exact* for
some published version (the one captured in its snapshot), even while
other threads are sealing new groups.  Because sealed groups are
immutable and append-only, the release at version ``v`` is always the
first ``v`` groups of the final state, so the expected answer for any
(query, version) pair can be recomputed after the run and compared
bit for bit.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.query.estimators import AnatomyEstimator
from repro.query.predicates import CountQuery
from repro.service.frontend import QueryFrontend
from repro.service.registry import PublicationRegistry

N_THREADS = 32
CHUNKS_PER_INGESTER = 12
ROWS_PER_CHUNK = 12
QUERIES_PER_QUERIER = 25
L = 4


def test_mixed_ingest_query_stress(schema):
    registry = PublicationRegistry()
    publication = registry.create("stress", schema, l=L)
    publication.ingest([(i % 50, i % 20) for i in range(40)])

    frontend = QueryFrontend(registry)
    pool = [CountQuery(schema,
                       {"A": [(i * 5 + j) % 50 for j in range(6)]},
                       [i % 20, (i + 3) % 20])
            for i in range(20)]

    results: list[tuple[int, int, float]] = []  # (query idx, version, answer)
    results_lock = threading.Lock()
    errors: list[BaseException] = []
    start = threading.Barrier(N_THREADS + 1)

    def ingester(seed: int) -> None:
        rng = np.random.default_rng(seed)
        start.wait()
        for _ in range(CHUNKS_PER_INGESTER):
            rows = [(int(rng.integers(50)), int(rng.integers(20)))
                    for _ in range(ROWS_PER_CHUNK)]
            publication.ingest(rows)

    def querier(seed: int) -> None:
        rng = np.random.default_rng(seed)
        start.wait()
        for _ in range(QUERIES_PER_QUERIER):
            idx = int(rng.integers(len(pool)))
            answer = frontend.query("stress", pool[idx], timeout=60)
            with results_lock:
                results.append((idx, answer.version, answer.answer))

    def run(target, seed):
        def wrapped():
            try:
                target(seed)
            except BaseException as exc:  # noqa: BLE001 - report below
                errors.append(exc)
        return threading.Thread(target=wrapped, daemon=True)

    threads = [run(ingester, 1000 + i) for i in range(N_THREADS // 2)]
    threads += [run(querier, 2000 + i) for i in range(N_THREADS // 2)]
    for thread in threads:
        thread.start()
    start.wait()
    for thread in threads:
        thread.join(timeout=90)
        # a hung thread means a deadlock: fail, don't wait forever
        assert not thread.is_alive(), "stress thread deadlocked"
    frontend.close()
    assert not errors, errors

    assert len(results) == (N_THREADS // 2) * QUERIES_PER_QUERIER
    served_versions = sorted({version for _, version, _ in results})
    assert served_versions[-1] > served_versions[0], \
        "queries never observed an ingest: stress mix was not concurrent"

    # Every answer must be exact for its reported version.
    expected: dict[tuple[int, int], float] = {}
    for version in served_versions:
        release = publication.release_at(version)
        estimator = AnatomyEstimator(release)
        for idx, query in enumerate(pool):
            expected[(idx, version)] = estimator.estimate(query)
    for idx, version, answer in results:
        assert answer == expected[(idx, version)]

    # ... and the l-diversity audit passes on every version served.
    for version in served_versions:
        release = publication.release_at(version)
        assert release.partition.is_l_diverse(L)
        assert release.breach_probability_bound() <= 1.0 / L + 1e-12


def test_writers_not_starved_by_readers(schema):
    """Ingests take only the ingest mutex, which no reader takes:
    ingest completes promptly under a continuous query stream."""
    registry = PublicationRegistry()
    publication = registry.create("p", schema, l=L)
    publication.ingest([(i % 50, i % 20) for i in range(40)])
    frontend = QueryFrontend(registry, cache_size=0)
    query = CountQuery(schema, {"A": range(25)}, list(range(10)))
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            frontend.query("p", query, timeout=30)

    readers = [threading.Thread(target=reader, daemon=True)
               for _ in range(6)]
    for thread in readers:
        thread.start()
    try:
        for wave in range(5):
            result = publication.ingest(
                [((wave * 13 + i) % 50, i % 20) for i in range(24)])
            assert result["version"] == publication.version
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        frontend.close()
    assert publication.version > 2


def test_unwindowed_queries_evaluated_once_each(schema):
    """Callers evaluate the pile on their own threads: under a tiny
    switch interval every query is answered exactly and evaluated
    exactly once, the pile never holds more queries than there are
    callers inside ``query``, and the frontend ends idle (no query left
    pending, no evaluator claiming the pile)."""
    registry = PublicationRegistry()
    publication = registry.create("p", schema, l=L)
    publication.ingest([(i % 50, i % 20) for i in range(200)])
    frontend = QueryFrontend(registry)
    n_threads, per_thread = 8, 30
    pools = [[CountQuery(schema, {"A": [(t * 7 + i) % 50,
                                        (t * 3 + i * 11) % 50]},
                         [(t + i) % 20, (t * 5 + i) % 20, 19 - t])
              for i in range(per_thread)]
             for t in range(n_threads)]
    evaluated: list[int] = []
    #: (queries in the pile, callers inside ``query``), sampled under
    #: the frontend's lock while a batch is evaluated
    piles: list[tuple[int, int]] = []
    inside = [0]
    inside_lock = threading.Lock()
    evaluate, query = frontend._evaluate, frontend.query

    def counting(snapshot, queries):
        evaluated.append(len(queries))
        with frontend._cond, inside_lock:
            piles.append((len(frontend._pending), inside[0]))
        return evaluate(snapshot, queries)

    def counted(*args, **kwargs):
        with inside_lock:
            inside[0] += 1
        try:
            return query(*args, **kwargs)
        finally:
            with inside_lock:
                inside[0] -= 1

    frontend._evaluate = counting
    frontend.query = counted
    answers: dict[tuple[int, int], float] = {}
    errors: list[BaseException] = []
    start = threading.Barrier(n_threads)

    def caller(t: int) -> None:
        try:
            start.wait()
            for i, query in enumerate(pools[t]):
                answers[(t, i)] = frontend.query("p", query,
                                                 timeout=60).answer
        except BaseException as exc:  # noqa: BLE001 - report below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(t,),
                                    daemon=True)
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "caller thread deadlocked"
    finally:
        sys.setswitchinterval(interval)
    frontend.close()
    assert not errors, errors
    distinct = {query.row.tobytes() for pool in pools for query in pool}
    assert sum(evaluated) == len(distinct)
    assert not frontend._evaluating and frontend._pending == []
    assert piles and all(pile <= callers for pile, callers in piles)
    assert max(pile for pile, _ in piles) < n_threads
    estimator = publication.snapshot().estimator
    for t, pool in enumerate(pools):
        for i, query in enumerate(pool):
            assert answers[(t, i)] == estimator.estimate(query)
