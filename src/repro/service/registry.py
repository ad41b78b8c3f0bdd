"""Named, versioned anatomized publications behind reader-writer locks.

A :class:`Publication` wraps an
:class:`~repro.core.incremental.IncrementalAnatomizer`: ingesting new
microdata seals new all-distinct groups and bumps the version, while
groups already published are immutable — so every version the registry
has ever served is a prefix of the current group sequence, and an
adversary correlating releases learns nothing about old tuples (see
:mod:`repro.core.incremental`).

Queries never touch the anatomizer directly; they read an immutable
:class:`PublicationSnapshot` — ``(version, release, estimator)`` —
captured under the publication's read lock.  The snapshot for the
current version is built at most once (double-checked under a separate
build mutex) and shared by every concurrent reader, so a query stream
costs one :class:`~repro.query.estimators.AnatomyEstimator`
construction per version, not per query.  Ingestion takes the write
lock, which the lock's writer priority keeps reachable under heavy
query load; a reader can therefore never observe a half-sealed release.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from typing import Any

from repro.core.incremental import IncrementalAnatomizer
from repro.core.tables import AnatomizedTables
from repro.dataset.schema import Attribute, AttributeKind, Schema
from repro.exceptions import ServiceError
from repro.obs import metrics
from repro.obs.audit import (
    PrivacyAudit,
    audit_publication,
    record_publication_audit,
)
from repro.obs.tracing import span
from repro.query.estimators import AnatomyEstimator
from repro.service.locks import RWLock


def schema_to_json(schema: Schema) -> dict:
    """A JSON-serializable description of a schema (see
    :func:`schema_from_json`)."""
    def attr(a: Attribute) -> dict:
        return {"name": a.name, "values": list(a.values),
                "kind": a.kind.value}
    return {"qi": [attr(a) for a in schema.qi_attributes],
            "sensitive": attr(schema.sensitive)}


def schema_from_json(spec: dict) -> Schema:
    """Build a schema from its JSON description.

    Each attribute is ``{"name": ..., "values": [...]}`` or
    ``{"name": ..., "size": k}`` (domain ``0..k-1``), with an optional
    ``"kind"`` of ``"numeric"`` or ``"categorical"`` (default).
    """
    def attr(entry: Any) -> Attribute:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ServiceError(
                f"attribute spec must be an object with a 'name', "
                f"got {entry!r}")
        if "values" in entry:
            values = entry["values"]
        elif "size" in entry:
            values = range(int(entry["size"]))
        else:
            raise ServiceError(
                f"attribute {entry['name']!r} needs 'values' or 'size'")
        kind = AttributeKind(entry.get("kind", "categorical"))
        return Attribute(entry["name"], values, kind=kind)

    if not isinstance(spec, dict):
        raise ServiceError(f"schema spec must be an object, got {spec!r}")
    qi = spec.get("qi")
    sensitive = spec.get("sensitive")
    if not qi or sensitive is None:
        raise ServiceError("schema spec needs 'qi' (non-empty list) "
                           "and 'sensitive'")
    return Schema([attr(a) for a in qi], attr(sensitive))


class PublicationSnapshot:
    """An immutable view of one publication version.

    ``release``, ``estimator``, and ``audit`` are ``None`` at version 0,
    before the first group seals — the empty release answers every COUNT
    with 0.  ``audit`` is the release's
    :class:`~repro.obs.audit.PrivacyAudit`, measured once when the
    snapshot was built.  ``estimator`` is the release's
    :class:`~repro.query.estimators.AnatomyEstimator`.
    """

    __slots__ = ("name", "version", "release", "estimator", "audit")

    def __init__(self, name: str, version: int,
                 release: AnatomizedTables | None,
                 estimator: AnatomyEstimator | None,
                 audit: PrivacyAudit | None = None) -> None:
        self.name = name
        self.version = version
        self.release = release
        self.estimator = estimator
        self.audit = audit

    def __repr__(self) -> str:
        return (f"PublicationSnapshot({self.name!r}, "
                f"version={self.version}, "
                f"groups={0 if self.release is None else self.release.st.group_count()})")


class Publication:
    """One named, growing, l-diverse publication."""

    def __init__(self, name: str, schema: Schema, l: int,
                 seed: int | None = 0, *,
                 retain_microdata: bool = True) -> None:
        self.name = str(name)
        #: Policy switch for ground-truth access: with
        #: ``retain_microdata=False`` the publication refuses to hand
        #: out the rows behind its releases (the canary monitor then
        #: falls back to the Section-5.4 error model).  The anatomizer
        #: still holds the sealed rows — it needs them to extend the
        #: release — but nothing outside the write path reads them.
        self.retain_microdata = bool(retain_microdata)
        self._anatomizer = IncrementalAnatomizer(schema, l, seed=seed)
        self._rwlock = RWLock()
        self._build_lock = threading.Lock()
        self._snapshot = PublicationSnapshot(self.name, 0, None, None)

    @property
    def schema(self) -> Schema:
        return self._anatomizer.schema

    @property
    def l(self) -> int:
        return self._anatomizer.l

    @property
    def version(self) -> int:
        return self._anatomizer.version

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def ingest(self, rows: Iterable[Sequence[Any]], *,
               decoded: bool = False) -> dict:
        """Insert rows (code tuples, or domain values with
        ``decoded=True``); seals as many new groups as the buffer
        allows and returns ingest statistics."""
        rows = list(rows)
        with span("service.ingest", publication=self.name,
                  rows=len(rows)):
            with self._rwlock.write_locked():
                if decoded:
                    sealed = self._anatomizer.insert_rows(rows)
                else:
                    sealed = self._anatomizer.insert_codes(rows)
                result = {
                    "publication": self.name,
                    "rows": len(rows),
                    "sealed_groups": sealed,
                    "version": self._anatomizer.version,
                    "published_tuples":
                        self._anatomizer.published_tuple_count,
                    "buffered": self._anatomizer.buffered_count,
                }
        if metrics.enabled():
            metrics.inc("repro_service_ingest_rows_total", len(rows),
                        publication=self.name)
        return result

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def snapshot(self) -> PublicationSnapshot:
        """The current version's immutable snapshot (shared, built at
        most once per version)."""
        with self._rwlock.read_locked():
            version = self._anatomizer.version
            snap = self._snapshot
            if snap.version == version:
                return snap
            # Readers may race here; the build mutex elects one builder
            # per version while writers stay excluded by the read lock.
            with self._build_lock:
                snap = self._snapshot
                if snap.version == version:
                    return snap
                with span("service.snapshot", publication=self.name,
                          version=version):
                    release = self._anatomizer.publish()
                    estimator = AnatomyEstimator(release)
                    audit = audit_publication(release,
                                              self._anatomizer.l)
                record_publication_audit(self.name, version, audit)
                snap = PublicationSnapshot(self.name, version, release,
                                           estimator, audit)
                self._snapshot = snap
                return snap

    def ground_truth_table(self, at_version: int | None = None):
        """The published microdata behind one release, or ``None``.

        ``None`` when the publication was created with
        ``retain_microdata=False`` (ground truth is policy-walled) or
        when nothing has been published yet.  Taken under the read
        lock so a concurrent ingest can never hand back rows from a
        half-sealed release.
        """
        if not self.retain_microdata:
            return None
        with self._rwlock.read_locked():
            version = self._anatomizer.version if at_version is None \
                else int(at_version)
            if version == 0:
                return None
            return self._anatomizer.microdata(at_version=version)

    def release_at(self, version: int) -> AnatomizedTables:
        """The historical release at ``version`` (groups are immutable,
        so it is the first ``version`` groups of the current state)."""
        with self._rwlock.read_locked():
            return self._anatomizer.publish(at_version=version)

    def stats(self) -> dict:
        with self._rwlock.read_locked():
            anat = self._anatomizer
            snap = self._snapshot
            audit = None
            if snap.audit is not None:
                audit = dict(snap.audit.to_json(),
                             audited_version=snap.version)
            return {
                "publication": self.name,
                "l": anat.l,
                "retain_microdata": self.retain_microdata,
                "version": anat.version,
                "groups": anat.group_count,
                "published_tuples": anat.published_tuple_count,
                "buffered": anat.buffered_count,
                "breach_probability_bound":
                    (1.0 / anat.l) if anat.group_count else 0.0,
                "privacy_audit": audit,
                "flush_report": anat.flush_report(),
            }

    def __repr__(self) -> str:
        return (f"Publication({self.name!r}, l={self.l}, "
                f"version={self.version})")


class PublicationRegistry:
    """A thread-safe name -> :class:`Publication` map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._publications: dict[str, Publication] = {}

    def create(self, name: str, schema: Schema, l: int,
               seed: int | None = 0, *,
               retain_microdata: bool = True) -> Publication:
        publication = Publication(name, schema, l, seed=seed,
                                  retain_microdata=retain_microdata)
        with self._lock:
            if name in self._publications:
                raise ServiceError(
                    f"publication {name!r} already exists")
            self._publications[name] = publication
        return publication

    def get(self, name: str) -> Publication:
        with self._lock:
            try:
                return self._publications[name]
            except KeyError:
                raise ServiceError(
                    f"unknown publication {name!r}; registry has "
                    f"{sorted(self._publications)}") from None

    def drop(self, name: str) -> None:
        with self._lock:
            publication = self._publications.pop(name, None)
        if publication is None:
            raise ServiceError(f"unknown publication {name!r}")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._publications)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._publications

    def __len__(self) -> int:
        with self._lock:
            return len(self._publications)

    def stats(self) -> list[dict]:
        """Per-publication statistics, outside the registry lock."""
        with self._lock:
            publications = list(self._publications.values())
        return [p.stats() for p in publications]
