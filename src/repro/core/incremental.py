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
  buffer can form new all-distinct groups of ``l`` tuples (the
  group-creation step of Figure 3 applied to the buffer alone), those
  groups are sealed and published;
* tuples still in the buffer are withheld from the publication — the
  release is always exactly l-diverse, at the price of publishing a few
  tuples late (at most ``λ_buffer * (ceil(n_buffer / λ) )``... bounded
  in practice by the buffer's own eligibility).

Scope note: this addresses *insertions* only.  Full re-publication
semantics with deletions and counterfeit tuples is the m-invariance
line of follow-up work and is out of scope for this reproduction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

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
        #: Cached (version, release) pair backing snapshot semantics.
        self._release_cache: tuple[int, AnatomizedTables] | None = None

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def insert_codes(self, rows: Iterable[Sequence[int]]) -> int:
        """Insert rows given as code tuples ``(qi..., sensitive)``.

        Returns the number of new groups sealed by this batch.
        """
        rows = list(rows)
        with span("incremental.ingest", rows=len(rows)):
            width = len(self.schema.attributes)
            for row in rows:
                row = tuple(int(v) for v in row)
                if len(row) != width:
                    raise SchemaError(
                        f"row has {len(row)} codes, schema expects "
                        f"{width}")
                for code, attr in zip(row, self.schema.attributes):
                    if not 0 <= code < attr.size:
                        raise SchemaError(
                            f"code {code} out of domain for "
                            f"{attr.name!r}")
                sens = row[-1]
                self._buffer.setdefault(sens, []).append(row)
                self._buffered += 1
            sealed = self._drain_buffer()
        if metrics.enabled():
            metrics.inc("repro_incremental_rows_total", len(rows))
            if sealed:
                metrics.inc("repro_incremental_sealed_groups_total",
                            sealed)
        return sealed

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
        allows (the group-creation step restricted to the buffer)."""
        nonempty = [c for c, rows in self._buffer.items() if rows]
        if len(nonempty) < self.l:
            return 0
        sealed = 0
        with span("incremental.seal") as seal:
            while len(nonempty) >= self.l:
                nonempty.sort(key=lambda c: len(self._buffer[c]),
                              reverse=True)
                chosen = nonempty[:self.l]
                group = []
                for code in chosen:
                    rows = self._buffer[code]
                    pick = int(self._rng.integers(len(rows)))
                    rows[pick], rows[-1] = rows[-1], rows[pick]
                    group.append(rows.pop())
                self._groups.append(group)
                self._buffered -= self.l
                sealed += 1
                nonempty = [c for c, rows in self._buffer.items() if rows]
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
        first ``v`` sealed groups.  Repeated calls are side-effect-free
        snapshots: the current release is built once per version and
        the same (immutable) object is returned until new groups seal.
        """
        version = self._check_version(at_version)
        cached = self._release_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        table = self._rows_table(version)
        groups = [range(j * self.l, (j + 1) * self.l)
                  for j in range(version)]
        partition = Partition(table, groups, validate=False)
        release = AnatomizedTables.from_partition(partition)
        if at_version is None or version == self.version:
            self._release_cache = (version, release)
        return release

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
