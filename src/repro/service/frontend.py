"""Combined, cached COUNT-query serving.

Single queries arriving concurrently are coalesced by combining:
``query`` captures the target publication's snapshot and checks the
LRU result cache, and a miss joins a pending pile.  The caller that
finds no batch being evaluated takes the whole pile and evaluates it on
its own thread; callers that arrive meanwhile wait, and when that batch
ends one of them takes whatever piled up behind it.  The frontend runs
no thread of its own, and the pile holds at most one query per blocked
caller.  An idle server therefore answers a miss on the calling thread,
without a thread hand-off or a timer wake-up.

Each pile is grouped by ``(publication, version)`` and evaluated
through the vectorized batch engine
(:meth:`repro.query.batch.BatchEvaluator.estimate_workload`) in one
pass — under load the per-query cost collapses to the batch engine's
amortized cost.

``query_batch`` is the synchronous bulk path: an explicit workload
(e.g. one HTTP request carrying many queries) skips the pile and goes
straight through the batch engine, still consulting and filling the
cache per query.

Consistency model: the snapshot is captured when the query arrives, so
every answer is exact for one published version, reported alongside
the answer.  Cache keys include the version
(:mod:`repro.service.cache`), so ingestion invalidates cached answers
by construction.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

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
    """One cache miss in the pile; once its batch has run, it holds the
    answer or the exception that batch raised."""

    __slots__ = ("snapshot", "query", "fingerprint", "context",
                 "answer", "error")

    def __init__(self, snapshot: PublicationSnapshot, query: CountQuery,
                 fingerprint: str,
                 context: tracing.ContextSnapshot | None = None) -> None:
        self.snapshot = snapshot
        self.query = query
        self.fingerprint = fingerprint
        #: The caller's trace context, so batch-engine spans executed on
        #: another caller's thread stay parented to the asking request.
        self.context = context
        self.answer: QueryAnswer | None = None
        self.error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self.answer is not None or self.error is not None


class QueryFrontend:
    """Serves COUNT queries against a registry's publications.

    Parameters
    ----------
    registry:
        The publication registry to serve from.
    cache_size:
        LRU result-cache capacity in entries (0 disables caching).
    mode:
        Batch-engine mode: ``"exact"`` (default, bit-identical to the
        per-query estimators) or ``"fast"``.
    """

    def __init__(self, registry: PublicationRegistry, *,
                 cache_size: int = 4096,
                 mode: str = "exact") -> None:
        if mode not in ("exact", "fast"):
            raise QueryError(
                f"unknown serving mode {mode!r}; expected 'exact' or "
                f"'fast'")
        self.registry = registry
        self.mode = mode
        self.cache = LRUCache(cache_size)
        self._cond = threading.Condition()
        self._pending: list[_Pending] = []
        #: Whether some caller is evaluating a pile it took.
        self._evaluating = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def query(self, publication: str, query: CountQuery, *,
              timeout: float | None = 30.0) -> QueryAnswer:
        """Answer one query.  A miss joins the pile; the caller then
        waits until its query is answered or no batch is being
        evaluated, and in the second case evaluates the whole pile
        itself.  A query still in the pile when ``timeout`` expires is
        removed from it, so it is never evaluated."""
        pub = self.registry.get(publication)
        snapshot = pub.snapshot()
        self._check_schema(pub.schema, query)
        fingerprint = query_fingerprint(query)
        cached = self.cache.get((publication, snapshot.version,
                                 fingerprint))
        if cached is not None:
            return QueryAnswer(cached, snapshot.version, True,
                               fingerprint)
        item = _Pending(snapshot, query, fingerprint,
                        tracing.capture_context())
        with self._cond:
            if self._closed:
                raise ServiceError("frontend is closed")
            self._pending.append(item)
            if not self._cond.wait_for(
                    lambda: item.done or not self._evaluating, timeout):
                if item in self._pending:  # nobody took it
                    self._pending.remove(item)
                raise TimeoutError(
                    f"query not answered within {timeout} s")
            batch: list[_Pending] = []
            if not item.done:  # still in the pile: take all of it
                batch, self._pending = self._pending, []
                self._evaluating = True
        if batch:
            try:
                self._run_batch(batch)
            except BaseException as exc:
                # Interrupted between groups: fail what is left, or those
                # callers would wait for a pile that no longer holds them.
                for other in batch:
                    if not other.done:
                        other.error = exc
                raise
            finally:
                with self._cond:
                    self._evaluating = False
                    self._cond.notify_all()
        if item.error is not None:
            raise item.error
        return item.answer  # type: ignore[return-value]

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

    def close(self) -> None:
        """Refuse further queries; queries already waiting are still
        answered."""
        with self._cond:
            self._closed = True

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

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Evaluate a pile taken by :meth:`query`, leaving an answer or
        an exception on every item."""
        if metrics.enabled():
            metrics.observe("repro_service_coalesce_batch_size",
                            len(batch), buckets=DEFAULT_SIZE_BUCKETS)
        groups: dict[tuple[str, int], list[_Pending]] = {}
        for item in batch:
            key = (item.snapshot.name, item.snapshot.version)
            groups.setdefault(key, []).append(item)
        for (name, version), items in groups.items():
            try:
                # Adopt the first caller's trace so the batch-engine
                # spans below stay linked to a request's trace even
                # though they may run on another caller's thread.
                with tracing.attach_context(items[0].context):
                    values = self._evaluate(items[0].snapshot,
                                            [i.query for i in items])
            except Exception as exc:  # propagate to every waiter
                for item in items:
                    item.error = exc
                continue
            for item, value in zip(items, values):
                self.cache.put((name, version, item.fingerprint), value)
                item.answer = QueryAnswer(value, version, False,
                                          item.fingerprint)
