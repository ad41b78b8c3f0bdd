"""Micro-batched, cached COUNT-query serving.

Single queries arriving concurrently are coalesced: ``submit`` captures
the target publication's snapshot, checks the LRU result cache, and on
a miss parks the query on a pending list that a background worker
drains in micro-batches.  Each batch is grouped by ``(publication,
version)`` and evaluated through the vectorized batch engine
(:meth:`repro.query.batch.BatchEvaluator.estimate_workload`) in one
pass — under load the per-query cost collapses to the batch engine's
amortized cost, exactly the regime PR 1 optimized.

The synchronous ``query`` path skips the worker when it can: with no
coalescing window (the default) a miss that finds no batch being
evaluated is evaluated on the calling thread, together with whatever
else is pending.  An idle server then answers without a thread
hand-off or a timer wake-up, whose cost varies with how busy the host
is; queries arriving while a batch runs still pile up for the worker.

``query_batch`` is the synchronous bulk path: an explicit workload
(e.g. one HTTP request carrying many queries) skips the coalescing
window and goes straight through the batch engine, still consulting
and filling the cache per query.

Consistency model: the snapshot is captured at submission time, so
every answer is exact for one published version, reported alongside
the answer.  Cache keys include the version
(:mod:`repro.service.cache`), so ingestion invalidates cached answers
by construction.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from concurrent.futures import Future, TimeoutError as FutureTimeoutError

from repro.exceptions import QueryError, ServiceError
from repro.obs import metrics, tracing
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.obs.tracing import span
from repro.query.predicates import CountQuery
from repro.service.cache import LRUCache, query_fingerprint
from repro.service.registry import (
    PublicationRegistry,
    PublicationSnapshot,
)


class QueryAnswer:
    """One answered COUNT query: estimate, version it is exact for, and
    whether it was served from the result cache."""

    __slots__ = ("answer", "version", "cached", "fingerprint")

    def __init__(self, answer: float, version: int, cached: bool,
                 fingerprint: str) -> None:
        self.answer = float(answer)
        self.version = int(version)
        self.cached = bool(cached)
        self.fingerprint = fingerprint

    def to_json(self) -> dict:
        return {"answer": self.answer, "version": self.version,
                "cached": self.cached, "fingerprint": self.fingerprint}

    def __repr__(self) -> str:
        return (f"QueryAnswer(answer={self.answer}, "
                f"version={self.version}, cached={self.cached})")


class _Pending:
    __slots__ = ("snapshot", "query", "fingerprint", "future",
                 "context")

    def __init__(self, snapshot: PublicationSnapshot, query: CountQuery,
                 fingerprint: str, future: Future,
                 context: tracing.ContextSnapshot | None = None) -> None:
        self.snapshot = snapshot
        self.query = query
        self.fingerprint = fingerprint
        self.future = future
        #: The submitter's trace context, so batch-engine spans executed
        #: on the worker thread stay parented to the submitting request.
        self.context = context


class QueryFrontend:
    """Serves COUNT queries against a registry's publications.

    Parameters
    ----------
    registry:
        The publication registry to serve from.
    cache_size:
        LRU result-cache capacity in entries (0 disables caching).
    batch_window_s:
        How long the worker waits after the first pending query before
        draining, to let concurrent submitters coalesce into one batch.
        With a window, ``query`` always waits for the worker; with none
        it may evaluate on the calling thread.
    max_batch:
        Upper bound on queries drained per micro-batch.
    mode:
        Batch-engine mode: ``"exact"`` (default, bit-identical to the
        per-query estimators) or ``"fast"``.
    """

    def __init__(self, registry: PublicationRegistry, *,
                 cache_size: int = 4096,
                 batch_window_s: float = 0.0,
                 max_batch: int = 1024,
                 mode: str = "exact") -> None:
        if mode not in ("exact", "fast"):
            raise QueryError(
                f"unknown serving mode {mode!r}; expected 'exact' or "
                f"'fast'")
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self.registry = registry
        self.mode = mode
        self.cache = LRUCache(cache_size)
        self.batch_window_s = float(batch_window_s)
        self.max_batch = int(max_batch)
        self._cond = threading.Condition()
        self._pending: list[_Pending] = []
        #: Threads (worker or callers) evaluating a drained batch.
        self._evaluating = 0
        self._worker: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def submit(self, publication: str, query: CountQuery) -> Future:
        """Enqueue one query; the future resolves to a
        :class:`QueryAnswer`.  Cache hits resolve immediately."""
        return self._submit(publication, query, inline=False)[0]

    def query(self, publication: str, query: CountQuery, *,
              timeout: float | None = 30.0) -> QueryAnswer:
        """Synchronous single-query path (submit + wait).  With no
        coalescing window, a miss that finds no batch being evaluated
        is evaluated on the calling thread.  A query still pending for
        the worker when ``timeout`` expires is cancelled, so the worker
        never evaluates it."""
        future, batch = self._submit(publication, query,
                                     inline=self.batch_window_s <= 0)
        if batch:
            self._run_taken(batch)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def query_batch(self, publication: str,
                    queries: Sequence[CountQuery]) -> list[QueryAnswer]:
        """Answer an explicit workload in one batch-engine pass.

        The whole workload is pinned to a single snapshot, so all
        answers are consistent with one published version.
        """
        pub = self.registry.get(publication)
        snapshot = pub.snapshot()
        queries = list(queries)
        answers: list[QueryAnswer | None] = [None] * len(queries)
        misses: list[int] = []
        fingerprints: list[str] = []
        for i, query in enumerate(queries):
            self._check_schema(pub.schema, query)
            fingerprint = query_fingerprint(query)
            fingerprints.append(fingerprint)
            cached = self.cache.get((publication, snapshot.version,
                                     fingerprint))
            if cached is not None:
                answers[i] = QueryAnswer(cached, snapshot.version, True,
                                         fingerprint)
            else:
                misses.append(i)
        if misses:
            values = self._evaluate(
                snapshot, [queries[i] for i in misses])
            for i, value in zip(misses, values):
                self.cache.put(
                    (publication, snapshot.version, fingerprints[i]),
                    value)
                answers[i] = QueryAnswer(value, snapshot.version, False,
                                         fingerprints[i])
        return answers  # type: ignore[return-value]

    def cache_stats(self) -> dict[str, int]:
        return self.cache.stats()

    def cache_entries_for(self, publication: str) -> int:
        """Cached answers currently held for one publication (all
        versions)."""
        return self.cache.count_keys(
            lambda key: key[0] == publication)

    def close(self, timeout: float | None = 5.0) -> None:
        """Stop the worker after draining already-pending queries."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join(timeout=timeout)

    def __enter__(self) -> "QueryFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_schema(schema, query: CountQuery) -> None:
        if query.schema != schema:
            raise QueryError(
                f"query schema {query.schema!r} does not match the "
                f"publication schema {schema!r}")

    def _evaluate(self, snapshot: PublicationSnapshot,
                  queries: Sequence[CountQuery]) -> list[float]:
        """One micro-batch through the batch engine (or all zeros for
        the empty version-0 release)."""
        if snapshot.estimator is None:
            return [0.0] * len(queries)
        with span("service.query.batch", publication=snapshot.name,
                  version=snapshot.version, queries=len(queries),
                  mode=self.mode):
            values = snapshot.estimator.estimate_workload(
                queries, mode=self.mode)
        return [float(v) for v in values]

    def _submit(self, publication: str, query: CountQuery, *,
                inline: bool) -> tuple[Future, list[_Pending]]:
        """Check the cache and enqueue a miss.  With ``inline`` and no
        batch being evaluated, the pending batch (this query included)
        is handed back for the caller to run with :meth:`_run_taken`;
        otherwise the worker is woken and the batch is empty."""
        pub = self.registry.get(publication)
        snapshot = pub.snapshot()
        self._check_schema(pub.schema, query)
        fingerprint = query_fingerprint(query)
        future: Future = Future()
        cached = self.cache.get((publication, snapshot.version,
                                 fingerprint))
        if cached is not None:
            future.set_result(QueryAnswer(cached, snapshot.version,
                                          True, fingerprint))
            return future, []
        with self._cond:
            if self._closed:
                raise ServiceError("frontend is closed")
            self._pending.append(_Pending(snapshot, query, fingerprint,
                                          future,
                                          tracing.capture_context()))
            if inline and not self._evaluating:
                return future, self._take()
            self._wake_worker()
        return future, []

    def _wake_worker(self) -> None:
        """Start the worker on first use and wake it (holding
        ``_cond``)."""
        if self._worker is None:
            self._worker = threading.Thread(
                target=self._worker_loop,
                name="repro-query-frontend", daemon=True)
            self._worker.start()
        self._cond.notify()

    def _take(self) -> list[_Pending]:
        """Drain up to ``max_batch`` pending queries (holding ``_cond``);
        the taker must run them with :meth:`_run_taken`."""
        batch = self._pending[:self.max_batch]
        del self._pending[:self.max_batch]
        if batch:
            self._evaluating += 1
        return batch

    def _run_taken(self, batch: list[_Pending]) -> None:
        """Run a batch from :meth:`_take`, then hand whatever piled up
        meanwhile to the worker."""
        try:
            self._run_batch(batch)
        finally:
            with self._cond:
                self._evaluating -= 1
                if self._pending:
                    self._wake_worker()

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
            # Let concurrent submitters pile into this micro-batch.
            if self.batch_window_s > 0:
                time.sleep(self.batch_window_s)
            with self._cond:
                batch = self._take()
            if batch:  # a caller may have drained it meanwhile
                self._run_taken(batch)

    def _run_batch(self, batch: list[_Pending]) -> None:
        if metrics.enabled():
            metrics.observe("repro_service_coalesce_batch_size",
                            len(batch), buckets=DEFAULT_SIZE_BUCKETS)
        groups: dict[tuple[str, int], list[_Pending]] = {}
        for item in batch:
            # Claims the future, or drops it if its waiter cancelled.
            if not item.future.set_running_or_notify_cancel():
                continue
            key = (item.snapshot.name, item.snapshot.version)
            groups.setdefault(key, []).append(item)
        for (name, version), items in groups.items():
            try:
                # Adopt the first submitter's trace so the batch-engine
                # spans below stay linked to a request's trace even
                # though they run on this worker thread.
                with tracing.attach_context(items[0].context):
                    values = self._evaluate(items[0].snapshot,
                                            [i.query for i in items])
            except Exception as exc:  # propagate to every waiter
                for item in items:
                    item.future.set_exception(exc)
                continue
            for item, value in zip(items, values):
                self.cache.put((name, version, item.fingerprint), value)
                item.future.set_result(
                    QueryAnswer(value, version, False, item.fingerprint))
