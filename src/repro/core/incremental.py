"""Incremental anatomization for growing microdata.

The paper anatomizes a static table.  Real registries grow, and
re-running Anatomize from scratch re-shuffles every tuple into a new
group — which both costs a full pass and, worse, lets an adversary
intersect group memberships across releases.  This module provides the
natural incremental scheme:

* **groups are immutable once published** — a tuple's Group-ID never
  changes across releases, so the adversary's view of any old tuple is
  identical in every release (no cross-release intersection attack on
  the grouping itself);
* newly inserted tuples accumulate in a private *buffer*; whenever the
  buffer can form new all-distinct groups of ``l`` tuples, those groups
  are sealed and published.  Sealing is the group-creation step of
  Figure 3 applied to the buffer alone, with the same bucket heap as
  :func:`repro.core.anatomize.anatomize`; ties between equal bucket
  sizes go to the sensitive code that reached the buffer first;
* tuples still in the buffer are withheld from the publication — the
  release is always exactly l-diverse, at the price of publishing some
  tuples late.  After each batch the buffer holds tuples of at most
  ``l - 1`` distinct sensitive values; how many depends on the
  stream's skew.

Concurrency: one writer (:meth:`insert_codes` and the methods that
call it) and any number of readers (:attr:`version`, :meth:`publish`,
:meth:`microdata`) may use an anatomizer at once without a lock.  The
read side changes no state, groups are only ever appended, and a
group's row list is complete before it is appended, so a reader that
asks for version ``v <= version`` always sees the same ``v`` groups.
Writers must be serialized by the caller.

Scope note: this addresses *insertions* only.  Full re-publication
semantics with deletions and counterfeit tuples is the m-invariance
line of follow-up work and is out of scope for this reproduction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro.core.anatomize import _BucketHeap
from repro.core.partition import Partition
from repro.core.tables import AnatomizedTables
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.exceptions import ReproError, SchemaError
from repro.obs import metrics
from repro.obs.tracing import span


class IncrementalAnatomizer:
    """Maintains an l-diverse publication over a growing tuple stream.

    Parameters
    ----------
    schema:
        The microdata schema.
    l:
        Diversity parameter; every sealed group has exactly ``l``
        tuples with pairwise distinct sensitive values.
    seed:
        Seed for the (arbitrary) tuple draws.

    Examples
    --------
    >>> from repro.dataset.hospital import hospital_schema
    >>> inc = IncrementalAnatomizer(hospital_schema(), l=2)
    >>> inc.insert_rows([(23, "M", 11000, "pneumonia"),
    ...                  (27, "M", 13000, "dyspepsia")])  # seals 1 group
    1
    >>> inc.published_tuple_count
    2
    >>> inc.buffered_count
    0
    """

    def __init__(self, schema: Schema, l: int,
                 seed: int | None = 0) -> None:
        if l < 1:
            raise ReproError(f"l must be >= 1, got {l}")
        self.schema = schema
        self.l = int(l)
        self._rng = np.random.default_rng(seed)
        #: Sealed groups: list of (group_id, list of row code-tuples).
        self._groups: list[list[tuple[int, ...]]] = []
        #: Buffered rows per sensitive code (Figure 3's hash buckets,
        #: maintained incrementally).
        self._buffer: dict[int, list[tuple[int, ...]]] = {}
        self._buffered = 0

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def insert_codes(self, rows: Iterable[Sequence[int]]) -> int:
        """Insert rows given as code tuples ``(qi..., sensitive)``.

        A batch is all-or-nothing: a row of the wrong arity, a code that
        is not an integer (``bool`` included) or a code outside its
        attribute's domain raises :class:`SchemaError` before any row is
        buffered, leaving :attr:`version` and :attr:`buffered_count`
        unchanged.  Returns the number of new groups sealed by this
        batch.
        """
        rows = list(rows)
        with span("incremental.ingest", rows=len(rows)):
            for row in self._checked_rows(rows):
                self._buffer.setdefault(row[-1], []).append(row)
            self._buffered += len(rows)
            sealed = self._drain_buffer()
        if metrics.enabled():
            metrics.inc("repro_incremental_rows_total", len(rows))
            if sealed:
                metrics.inc("repro_incremental_sealed_groups_total",
                            sealed)
        return sealed

    def _checked_rows(self, rows: list) -> list[tuple[int, ...]]:
        """``rows`` as tuples of Python ints, checked over the whole
        batch in order: arity, integer type (``bool`` rejected, as for
        query codes), then domain.  Each check is one C-level pass, so
        a large batch costs no Python loop here."""
        attrs = self.schema.attributes
        width = len(attrs)
        try:
            arities = set(map(len, rows))
        except TypeError:
            raise SchemaError("each row must be a sequence of codes") \
                from None
        if arities - {width}:
            arity = next(len(row) for row in rows if len(row) != width)
            raise SchemaError(
                f"row has {arity} codes, schema expects {width}")
        kinds = set(map(type, chain.from_iterable(rows)))
        invalid = {kind for kind in kinds if kind is bool
                   or not issubclass(kind, (int, np.integer))}
        if invalid:
            code = next(c for c in chain.from_iterable(rows)
                        if type(c) in invalid)
            raise SchemaError(f"non-integer code {code!r}")
        columns = list(zip(*rows))
        if kinds - {int}:
            columns = [tuple(map(int, column)) for column in columns]
        for column, attr in zip(columns, attrs):
            if column and not 0 <= min(column) <= max(column) < attr.size:
                code = next(c for c in column if not 0 <= c < attr.size)
                raise SchemaError(
                    f"code {code} out of domain for {attr.name!r}")
        return list(zip(*columns))

    def insert_rows(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert rows given as decoded values."""
        attrs = self.schema.attributes
        encoded = []
        for row in rows:
            if len(row) != len(attrs):
                raise SchemaError(
                    f"row has {len(row)} values, schema expects "
                    f"{len(attrs)}")
            encoded.append(tuple(a.encode(v)
                                 for a, v in zip(attrs, row)))
        return self.insert_codes(encoded)

    def insert_table(self, table: Table) -> int:
        """Insert every row of a table (schema must match)."""
        if table.schema != self.schema:
            raise SchemaError("table schema does not match")
        return self.insert_codes(table.iter_rows())

    def _drain_buffer(self) -> int:
        """Seal as many all-distinct groups of l tuples as the buffer
        allows: Figure 3's group-creation restricted to the buffer, over
        one bucket heap whose size ties go to the earliest-arrived
        code."""
        heap = _BucketHeap({code: len(rows)
                            for code, rows in self._buffer.items()})
        if heap.nonempty_count < self.l:
            return 0
        sealed = 0
        with span("incremental.seal") as seal:
            while heap.nonempty_count >= self.l:
                group = []
                for code in heap.pop_largest(self.l):
                    rows = self._buffer[code]
                    pick = int(self._rng.integers(len(rows)))
                    rows[pick], rows[-1] = rows[-1], rows[pick]
                    group.append(rows.pop())
                self._groups.append(group)
                sealed += 1
            self._buffered -= sealed * self.l
            seal.set_attribute("sealed", sealed)
        return sealed

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Monotonically increasing release version.

        The version equals the number of sealed groups, so it bumps
        exactly when the release changes and, because groups are
        immutable and append-only, the release at version ``v`` is
        always the first ``v`` groups (see :meth:`publish`).
        """
        return len(self._groups)

    @property
    def published_tuple_count(self) -> int:
        return self.l * len(self._groups)

    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def buffered_count(self) -> int:
        """Tuples withheld from the current release."""
        return self._buffered

    def buffered_histogram(self) -> dict[int, int]:
        return {c: len(rows) for c, rows in self._buffer.items()
                if rows}

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #

    def publish(self, at_version: int | None = None) -> AnatomizedTables:
        """The release at ``at_version`` (default: current) as QIT/ST.

        Group-IDs are stable across successive calls — group ``j`` in
        one release is group ``j`` in every later release, with
        identical membership — so the release at version ``v`` is the
        first ``v`` sealed groups.  Each call builds a new release and
        changes no state; a caller that serves one version repeatedly
        caches it (as :meth:`~repro.service.registry.Publication.snapshot`
        does).
        """
        version = self._check_version(at_version)
        table = self._rows_table(version)
        groups = [range(j * self.l, (j + 1) * self.l)
                  for j in range(version)]
        partition = Partition(table, groups, validate=False)
        return AnatomizedTables.from_partition(partition)

    def microdata(self, at_version: int | None = None) -> Table:
        """The *published* rows at ``at_version`` as a microdata table.

        This is the retained ground truth behind the release
        :meth:`publish` builds from the same sealed groups: row order
        follows Group-ID order, buffered (unpublished) tuples are
        excluded, so COUNT queries evaluated on it are the exact
        answers the release's anatomized estimate approximates — the
        canary utility monitor measures the paper's Section-7 relative
        error against exactly this table.
        """
        return self._rows_table(self._check_version(at_version))

    def _check_version(self, at_version: int | None) -> int:
        """``at_version`` (default: current) after checking that a
        release exists there."""
        version = self.version if at_version is None else int(at_version)
        if not 1 <= version <= len(self._groups):
            raise ReproError(
                "nothing to publish yet: fewer than l distinct "
                "sensitive values have arrived"
                if not self._groups else
                f"no release at version {version}; current version is "
                f"{self.version}")
        return version

    def _rows_table(self, version: int) -> Table:
        """The rows of the first ``version`` sealed groups, in Group-ID
        order, as a table."""
        rows = [row for group in self._groups[:version] for row in group]
        return Table.from_codes(self.schema,
                                np.asarray(rows, dtype=np.int32))

    def flush_report(self) -> dict[str, int]:
        """Why the buffered tuples cannot be sealed yet: per sensitive
        code, how many are waiting (fewer than l distinct codes have
        non-empty buckets)."""
        return {
            "buffered": self._buffered,
            "distinct_values_waiting": len(self.buffered_histogram()),
            "needed_distinct_values": self.l,
        }
