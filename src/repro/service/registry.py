"""Named, versioned anatomized publications that readers never wait on.

A :class:`Publication` wraps an
:class:`~repro.core.incremental.IncrementalAnatomizer`: ingesting new
microdata seals new all-distinct groups and bumps the version, while
groups already published are immutable — so every version the registry
has ever served is a prefix of the current group sequence, and an
adversary correlating releases learns nothing about old tuples (see
:mod:`repro.core.incremental`).

One mutex serializes ingests.  Before it releases that mutex, an ingest
replaces the publication's *head* — an immutable record of the
acknowledged version and counts — in one assignment.  Reads take no
lock an ingest holds: they load the head, and because groups are only
appended, the release at the head's version stays readable while later
groups seal.  Queries read an immutable :class:`PublicationSnapshot` —
``(version, release, estimator)`` — of the head's version or a later
one.  Each version's snapshot is built at most once (double-checked
under a build mutex that no writer takes) and shared by every
concurrent reader, so a query stream costs one
:class:`~repro.query.estimators.AnatomyEstimator` construction per
version, not per query, and an ingest never waits for a build.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from typing import Any, NamedTuple

from repro.core.incremental import IncrementalAnatomizer
from repro.core.tables import AnatomizedTables
from repro.dataset.schema import Attribute, AttributeKind, Schema
from repro.exceptions import ReproError, SchemaError, ServiceError
from repro.obs import metrics
from repro.obs.audit import (
    PrivacyAudit,
    audit_publication,
    record_publication_audit,
)
from repro.obs.tracing import span
from repro.query.estimators import AnatomyEstimator

#: Largest attribute domain a JSON schema may declare.  The largest
#: domain in the paper's data is Country's 83 values (Table 6); the
#: bound keeps a short request from allocating a huge domain.
MAX_DOMAIN_SIZE = 1 << 16


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
    ``"kind"`` of ``"numeric"`` or ``"categorical"`` (default).  A
    malformed spec, or a domain of more than :data:`MAX_DOMAIN_SIZE`
    values, raises :class:`~repro.exceptions.SchemaError`.
    """
    def attr(entry: Any) -> Attribute:
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(
                f"attribute spec must be an object with a 'name', "
                f"got {entry!r}")
        name = entry["name"]
        if "values" in entry:
            values = entry["values"]
            if not isinstance(values, list) \
                    or len(values) > MAX_DOMAIN_SIZE \
                    or any(isinstance(v, (list, dict)) for v in values):
                raise SchemaError(
                    f"attribute {name!r}: 'values' must be a list of at "
                    f"most {MAX_DOMAIN_SIZE} scalars")
        elif "size" in entry:
            size = entry["size"]
            if type(size) is not int or not 1 <= size <= MAX_DOMAIN_SIZE:
                raise SchemaError(
                    f"attribute {name!r}: 'size' must be an integer in "
                    f"[1, {MAX_DOMAIN_SIZE}], got {size!r}")
            values = range(size)
        else:
            raise SchemaError(
                f"attribute {name!r} needs 'values' or 'size'")
        try:
            kind = AttributeKind(entry.get("kind", "categorical"))
        except ValueError:
            raise SchemaError(
                f"attribute {name!r}: unknown kind "
                f"{entry['kind']!r}") from None
        return Attribute(name, values, kind=kind)

    if not isinstance(spec, dict):
        raise SchemaError(f"schema spec must be an object, got {spec!r}")
    qi = spec.get("qi")
    sensitive = spec.get("sensitive")
    if not isinstance(qi, list) or not qi or sensitive is None:
        raise SchemaError("schema spec needs 'qi' (non-empty list) "
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


class _Head(NamedTuple):
    """The counts of a publication's last acknowledged ingest."""

    version: int
    published_tuples: int
    buffered: int
    flush_report: dict[str, int]


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
        self._ingest_lock = threading.Lock()
        self._build_lock = threading.Lock()
        self._head = self._acknowledged()
        self._snapshot = PublicationSnapshot(self.name, 0, None, None)

    @property
    def schema(self) -> Schema:
        return self._anatomizer.schema

    @property
    def l(self) -> int:
        return self._anatomizer.l

    @property
    def version(self) -> int:
        """The version of the last acknowledged ingest."""
        return self._head.version

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def _acknowledged(self) -> _Head:
        """The anatomizer's counts; called only where no ingest runs
        concurrently (under the ingest mutex, or at construction)."""
        anat = self._anatomizer
        return _Head(anat.version, anat.published_tuple_count,
                     anat.buffered_count, anat.flush_report())

    def ingest(self, rows: Iterable[Sequence[Any]], *,
               decoded: bool = False) -> dict:
        """Insert rows (code tuples, or domain values with
        ``decoded=True``); seals as many new groups as the buffer
        allows and returns ingest statistics."""
        rows = list(rows)
        with span("service.ingest", publication=self.name,
                  rows=len(rows)):
            with self._ingest_lock:
                if decoded:
                    sealed = self._anatomizer.insert_rows(rows)
                else:
                    sealed = self._anatomizer.insert_codes(rows)
                head = self._head = self._acknowledged()
        if metrics.enabled():
            metrics.inc("repro_service_ingest_rows_total", len(rows),
                        publication=self.name)
        return {
            "publication": self.name,
            "rows": len(rows),
            "sealed_groups": sealed,
            "version": head.version,
            "published_tuples": head.published_tuples,
            "buffered": head.buffered,
        }

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def snapshot(self) -> PublicationSnapshot:
        """The snapshot of the last acknowledged version, or of a later
        one (shared, built at most once per version)."""
        version = self._head.version
        snap = self._snapshot
        if snap.version >= version:
            return snap
        # Readers may race here; the build mutex, which no writer
        # takes, elects one builder per version.
        with self._build_lock:
            snap = self._snapshot
            if snap.version >= version:
                return snap
            with span("service.snapshot", publication=self.name,
                      version=version):
                release = self._anatomizer.publish(at_version=version)
                estimator = AnatomyEstimator(release)
                audit = audit_publication(release, self._anatomizer.l)
            record_publication_audit(self.name, version, audit)
            snap = PublicationSnapshot(self.name, version, release,
                                       estimator, audit)
            self._snapshot = snap
            return snap

    def _checked_version(self, at_version: int | None) -> int:
        """``at_version`` (default: the acknowledged one), refused if
        no acknowledged ingest reached it yet."""
        head = self._head.version
        version = head if at_version is None else int(at_version)
        if version > head:
            raise ReproError(f"no release at version {version}; current "
                             f"version is {head}")
        return version

    def ground_truth_table(self, at_version: int | None = None):
        """The published microdata behind one release, or ``None``.

        ``None`` when the publication was created with
        ``retain_microdata=False`` (ground truth is policy-walled) or
        when nothing has been published yet.
        """
        if not self.retain_microdata:
            return None
        version = self._checked_version(at_version)
        if version == 0:
            return None
        return self._anatomizer.microdata(at_version=version)

    def release_at(self, version: int) -> AnatomizedTables:
        """The historical release at ``version`` (groups are immutable,
        so it is the first ``version`` groups of the current state)."""
        return self._anatomizer.publish(
            at_version=self._checked_version(version))

    def stats(self) -> dict:
        head = self._head
        snap = self._snapshot
        audit = None
        if snap.audit is not None:
            audit = dict(snap.audit.to_json(),
                         audited_version=snap.version)
        return {
            "publication": self.name,
            "l": self.l,
            "retain_microdata": self.retain_microdata,
            "version": head.version,
            "groups": head.version,
            "published_tuples": head.published_tuples,
            "buffered": head.buffered,
            "breach_probability_bound":
                (1.0 / self.l) if head.version else 0.0,
            "privacy_audit": audit,
            "flush_report": dict(head.flush_report),
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
