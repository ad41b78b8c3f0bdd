"""The anatomized publication: quasi-identifier table and sensitive table.

Anatomy (Definition 3) publishes two tables derived from an l-diverse
partition:

* the **QIT** with schema ``(A1_qi, ..., Ad_qi, Group-ID)`` — every tuple's
  exact QI values plus its group membership, in an order that does not
  reveal the original row identity;
* the **ST** with schema ``(Group-ID, As, Count)`` — one record per
  (group, sensitive value) pair with the in-group count ``c_j(v)``.

:class:`AnatomizedTables` bundles the pair, implements the natural join of
Lemma 1, and exposes the adversary-facing probability interface used by
:mod:`repro.core.privacy`.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.core.partition import Partition
from repro.dataset.schema import Schema
from repro.exceptions import PartitionError, SchemaError


class QuasiIdentifierTable:
    """The published QIT: exact QI codes plus a ``Group-ID`` column.

    Rows are stored grouped by Group-ID (ascending).  Within a group the
    order is the partition's internal order, which carries no information
    about original row positions because Anatomize fills groups by random
    draws.
    """

    __slots__ = ("schema", "qi_codes", "group_ids")

    def __init__(self, schema: Schema, qi_codes: np.ndarray,
                 group_ids: np.ndarray) -> None:
        self.schema = schema
        self.qi_codes = np.asarray(qi_codes, dtype=np.int32)
        self.group_ids = np.asarray(group_ids, dtype=np.int32)
        if self.qi_codes.ndim != 2 or self.qi_codes.shape[1] != schema.d:
            raise SchemaError(
                f"QIT code matrix must be (n, {schema.d}); got "
                f"{self.qi_codes.shape}")
        if len(self.group_ids) != len(self.qi_codes):
            raise SchemaError("QIT group-id column length mismatch")
        self.qi_codes.setflags(write=False)
        self.group_ids.setflags(write=False)

    def __len__(self) -> int:
        return len(self.group_ids)

    @property
    def n(self) -> int:
        return len(self.group_ids)

    def qi_column(self, name: str) -> np.ndarray:
        """Code column of one QI attribute."""
        return self.qi_codes[:, self.schema.qi_index(name)]

    def group_count(self) -> int:
        """Number of distinct groups referenced (``m``)."""
        return int(self.group_ids.max()) if len(self.group_ids) else 0

    def rows_of_group(self, group_id: int) -> np.ndarray:
        """Positions (within the QIT) of the rows in one group."""
        return np.flatnonzero(self.group_ids == group_id)

    def decode_row(self, i: int) -> tuple[Any, ...]:
        """Row ``i`` as decoded QI values followed by its Group-ID."""
        values = tuple(
            attr.decode(self.qi_codes[i, k])
            for k, attr in enumerate(self.schema.qi_attributes))
        return values + (int(self.group_ids[i]),)

    def iter_rows(self) -> Iterator[tuple[int, ...]]:
        """Rows as code tuples ``(qi_1, ..., qi_d, group_id)``."""
        for i in range(len(self.group_ids)):
            yield tuple(int(v) for v in self.qi_codes[i]) + (
                int(self.group_ids[i]),)

    def __repr__(self) -> str:
        return (f"QuasiIdentifierTable(n={self.n}, "
                f"groups={self.group_count()})")


class SensitiveTable:
    """The published ST: ``(Group-ID, As, Count)`` records.

    Records are stored sorted by Group-ID, then sensitive code.
    """

    __slots__ = ("schema", "group_ids", "sensitive_codes", "counts",
                 "_group_slices", "_group_sizes")

    def __init__(self, schema: Schema, group_ids: np.ndarray,
                 sensitive_codes: np.ndarray, counts: np.ndarray) -> None:
        self.schema = schema
        order = np.lexsort((np.asarray(sensitive_codes),
                            np.asarray(group_ids)))
        self.group_ids = np.asarray(group_ids, dtype=np.int32)[order]
        self.sensitive_codes = np.asarray(
            sensitive_codes, dtype=np.int32)[order]
        self.counts = np.asarray(counts, dtype=np.int64)[order]
        if not (len(self.group_ids) == len(self.sensitive_codes)
                == len(self.counts)):
            raise SchemaError("ST column length mismatch")
        if len(self.counts) and self.counts.min() < 1:
            raise SchemaError("ST counts must be positive")
        for arr in (self.group_ids, self.sensitive_codes, self.counts):
            arr.setflags(write=False)
        self._group_slices: dict[int, slice] = {}
        if len(self.group_ids):
            boundaries = np.flatnonzero(np.diff(self.group_ids)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [len(self.group_ids)]))
            for s, e in zip(starts, ends):
                self._group_slices[int(self.group_ids[s])] = slice(
                    int(s), int(e))
        self._group_sizes: dict[int, int] = {
            gid: int(self.counts[sl].sum())
            for gid, sl in self._group_slices.items()
        }

    def __len__(self) -> int:
        """Number of ST records (one per group × distinct sensitive
        value)."""
        return len(self.group_ids)

    def group_count(self) -> int:
        return len(self._group_slices)

    def group_size(self, group_id: int) -> int:
        """``|QI_j|`` — reconstructed from the ST as the sum of the group's
        counts."""
        try:
            return self._group_sizes[group_id]
        except KeyError:
            raise PartitionError(
                f"Group-ID {group_id} not present in ST") from None

    def group_histogram(self, group_id: int) -> dict[int, int]:
        """``{sensitive code: c_j(v)}`` for one group."""
        try:
            sl = self._group_slices[group_id]
        except KeyError:
            raise PartitionError(
                f"Group-ID {group_id} not present in ST") from None
        return {int(c): int(k) for c, k in
                zip(self.sensitive_codes[sl], self.counts[sl])}

    def group_distribution(self, group_id: int) -> dict[int, float]:
        """Adversary's posterior over sensitive codes for a tuple known to
        lie in ``group_id`` (Equation 2): ``c_j(v) / |QI_j|``."""
        size = self.group_size(group_id)
        return {code: count / size
                for code, count in self.group_histogram(group_id).items()}

    def sensitive_total(self, code: int) -> int:
        """Total count of one sensitive code across all groups.

        Used by the anatomy query estimator: the ST reveals exactly how
        many microdata tuples carry each sensitive value.
        """
        mask = self.sensitive_codes == code
        return int(self.counts[mask].sum())

    def groups_with_sensitive(self, code: int) -> np.ndarray:
        """Group-IDs whose histogram includes ``code``."""
        return self.group_ids[self.sensitive_codes == code]

    def decode_record(self, i: int) -> tuple[int, Any, int]:
        """Record ``i`` as ``(group_id, decoded sensitive value, count)``."""
        return (int(self.group_ids[i]),
                self.schema.sensitive.decode(self.sensitive_codes[i]),
                int(self.counts[i]))

    def iter_records(self) -> Iterator[tuple[int, int, int]]:
        """Records as code triples ``(group_id, sensitive_code, count)``."""
        for gid, code, count in zip(self.group_ids, self.sensitive_codes,
                                    self.counts):
            yield int(gid), int(code), int(count)

    def __repr__(self) -> str:
        return (f"SensitiveTable(records={len(self)}, "
                f"groups={self.group_count()})")


class AnatomizedTables:
    """A published QIT/ST pair, optionally with its originating partition.

    The partition is publisher-side information (it identifies which QIT
    row came from which microdata row); it is retained for analysis and
    verification but is *not* part of the publication — everything an
    adversary or analyst may use is reachable through :attr:`qit` and
    :attr:`st` alone.
    """

    __slots__ = ("schema", "qit", "st", "partition", "__weakref__")

    def __init__(self, schema: Schema, qit: QuasiIdentifierTable,
                 st: SensitiveTable,
                 partition: Partition | None = None) -> None:
        self.schema = schema
        self.qit = qit
        self.st = st
        self.partition = partition
        if qit.schema is not schema or st.schema is not schema:
            raise SchemaError("QIT/ST schema mismatch")

    @classmethod
    def from_partition(cls, partition: Partition) -> "AnatomizedTables":
        """Render a partition as QIT and ST (lines 13-18 of Figure 3)."""
        table = partition.table
        schema = table.schema
        qi_matrix = table.qi_matrix()

        qit_rows: list[np.ndarray] = []
        qit_gids: list[np.ndarray] = []
        st_gids: list[int] = []
        st_codes: list[int] = []
        st_counts: list[int] = []
        for group in partition:
            qit_rows.append(qi_matrix[group.indices])
            qit_gids.append(
                np.full(group.size, group.group_id, dtype=np.int32))
            for code, count in sorted(group.sensitive_histogram().items()):
                st_gids.append(group.group_id)
                st_codes.append(code)
                st_counts.append(count)

        if qit_rows:
            qi_codes = np.vstack(qit_rows)
            group_ids = np.concatenate(qit_gids)
        else:
            qi_codes = np.empty((0, schema.d), dtype=np.int32)
            group_ids = np.empty(0, dtype=np.int32)
        qit = QuasiIdentifierTable(schema, qi_codes, group_ids)
        st = SensitiveTable(schema,
                            np.asarray(st_gids, dtype=np.int32),
                            np.asarray(st_codes, dtype=np.int32),
                            np.asarray(st_counts, dtype=np.int64))
        return cls(schema, qit, st, partition=partition)

    @property
    def n(self) -> int:
        """Microdata cardinality (equals the QIT row count)."""
        return self.qit.n

    def breach_probability_bound(self) -> float:
        """The worst-case inference probability over all tuples
        (Corollary 1): ``max_j c_j(v_max) / |QI_j|``.

        For tables produced from an l-diverse partition this is at most
        ``1/l``; 0.0 for an empty ST.
        """
        st = self.st
        if not len(st):
            return 0.0
        sizes = np.bincount(st.group_ids, weights=st.counts)
        return float((st.counts / sizes[st.group_ids]).max())

    def natural_join(self) -> list[tuple[int, ...]]:
        """The natural join QIT ⋈ ST on Group-ID (Lemma 1).

        Each result record has the form
        ``(qi_1, ..., qi_d, group_id, sensitive_code, count)`` — exactly the
        paper's Table 4.  The join has ``sum_j |QI_j| * lambda_j`` records,
        so call it on small publications only; the probability interface
        (:meth:`SensitiveTable.group_distribution`) answers the same
        questions without materializing the join.
        """
        result: list[tuple[int, ...]] = []
        for i in range(self.qit.n):
            gid = int(self.qit.group_ids[i])
            qi = tuple(int(v) for v in self.qit.qi_codes[i])
            for code, count in sorted(
                    self.st.group_histogram(gid).items()):
                result.append(qi + (gid, code, count))
        return result

    def tuple_distribution(self, qit_row: int) -> dict[int, float]:
        """Adversary's posterior over sensitive codes for one QIT row
        (Equation 2)."""
        if not 0 <= qit_row < self.qit.n:
            raise SchemaError(
                f"QIT row {qit_row} out of range [0, {self.qit.n})")
        return self.st.group_distribution(int(self.qit.group_ids[qit_row]))

    def __repr__(self) -> str:
        return (f"AnatomizedTables(n={self.n}, "
                f"groups={self.st.group_count()}, "
                f"breach_bound={self.breach_probability_bound():.3g})")
