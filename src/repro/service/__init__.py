"""Concurrent serving of anatomized publications.

The serving layer turns the one-shot anatomize/query workflow into a
living system (the ROADMAP's north star):

* :mod:`repro.service.registry` — named, versioned publications, each
  wrapping an :class:`~repro.core.incremental.IncrementalAnatomizer`;
  ingesting seals new immutable groups and bumps the version, and
  reads never wait for an ingest.
* :mod:`repro.service.frontend` — concurrent COUNT queries, coalesced
  into micro-batches for the vectorized batch engine, answered from an
  LRU result cache keyed by ``(publication, version, fingerprint)``.
* :mod:`repro.service.http` — a stdlib-only HTTP JSON API
  (``python -m repro serve``) serving Prometheus-format ``/metrics``
  (typed counters/gauges/histograms plus per-release privacy-audit
  gauges from :mod:`repro.obs`), ``/stats``, and — under ``--trace`` /
  ``--log-json`` — hierarchical trace spans and a structured JSON
  request log.
* :mod:`repro.service.cache` — the supporting LRU result cache.
"""

from repro.service.cache import LRUCache, query_fingerprint
from repro.service.frontend import QueryAnswer, QueryFrontend
from repro.service.http import (
    ReproHTTPServer,
    ReproService,
    make_server,
)
from repro.service.registry import (
    Publication,
    PublicationRegistry,
    PublicationSnapshot,
    schema_from_json,
    schema_to_json,
)

__all__ = [
    "LRUCache",
    "Publication",
    "PublicationRegistry",
    "PublicationSnapshot",
    "QueryAnswer",
    "QueryFrontend",
    "ReproHTTPServer",
    "ReproService",
    "make_server",
    "query_fingerprint",
    "schema_from_json",
    "schema_to_json",
]
