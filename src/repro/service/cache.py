"""Query-result cache: bounded LRU keyed by publication version.

Cache keys are ``(publication, version, fingerprint)`` where the
fingerprint (:func:`~repro.query.predicates.query_fingerprint`,
re-exported here) is a blake2b digest of the query's packed membership
row, so equal accepted code sets give equal fingerprints regardless of
construction order.  The row layout is fixed by the schema and a
publication has one schema, so the publication name in the key keeps
queries over different schemas apart.  Because the version is part of
the key, ingesting new microdata — which bumps the publication version
— invalidates every cached answer *by construction*: stale entries are
never served, they simply age out of the LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.query.predicates import query_fingerprint

__all__ = ["LRUCache", "query_fingerprint"]


class LRUCache:
    """A thread-safe bounded LRU map with hit/miss/eviction counters.

    ``capacity=0`` disables caching entirely (every ``get`` misses and
    ``put`` is a no-op) — benchmarks use that to measure the uncached
    hot path.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def count_keys(self, predicate) -> int:
        """How many current keys satisfy ``predicate`` (O(entries),
        under the lock — stats use only)."""
        with self._lock:
            return sum(1 for key in self._data if predicate(key))

    def stats(self) -> dict[str, int]:
        """Counters since construction (entries is the current size)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._data),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"LRUCache(capacity={s['capacity']}, "
                f"entries={s['entries']}, hits={s['hits']}, "
                f"misses={s['misses']})")
