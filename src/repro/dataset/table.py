"""A lightweight numpy-backed columnar table for microdata.

pandas is deliberately not a dependency: a purpose-built columnar structure
keeps the storage layer in control of byte-level layout (needed to meter
I/O in :mod:`repro.storage`) and keeps the hot paths — predicate evaluation
over hundreds of thousands of rows, sensitive-value histograms — on plain
numpy arrays.

All cell values are stored as ``int32`` codes into the owning attribute's
domain (:class:`repro.dataset.schema.Attribute`).  Rows are addressed by
position; a table is immutable once built (filtering and sampling return new
tables that share column arrays where possible).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.dataset.schema import Attribute, Schema
from repro.exceptions import SchemaError


class Table:
    """An immutable columnar table conforming to a :class:`Schema`.

    Parameters
    ----------
    schema:
        The table schema (QI attributes + sensitive attribute).
    columns:
        Mapping from attribute name to a 1-D integer array of domain codes.
        Every schema attribute must be present and all columns must have the
        same length.
    validate:
        When true (default), verify that all codes are within their
        attribute's domain.  Disable for trusted internal construction on
        large arrays.

    Examples
    --------
    >>> from repro.dataset.schema import Attribute, Schema
    >>> age = Attribute("Age", range(100))
    >>> disease = Attribute("Disease", ["flu", "gastritis"])
    >>> t = Table.from_rows(Schema([age], disease),
    ...                     [(30, "flu"), (40, "gastritis")])
    >>> len(t)
    2
    >>> t.decode_row(0)
    (30, 'flu')
    """

    __slots__ = ("schema", "_columns", "_n")

    def __init__(self, schema: Schema,
                 columns: Mapping[str, np.ndarray],
                 validate: bool = True) -> None:
        self.schema = schema
        cols: dict[str, np.ndarray] = {}
        n = None
        for attr in schema.attributes:
            if attr.name not in columns:
                raise SchemaError(f"missing column {attr.name!r}")
            arr = np.asarray(columns[attr.name], dtype=np.int32)
            if arr.ndim != 1:
                raise SchemaError(f"column {attr.name!r} must be 1-D")
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise SchemaError(
                    f"column {attr.name!r} has length {len(arr)}, "
                    f"expected {n}")
            if validate and len(arr):
                lo, hi = int(arr.min()), int(arr.max())
                if lo < 0 or hi >= attr.size:
                    raise SchemaError(
                        f"column {attr.name!r} has codes in [{lo}, {hi}] "
                        f"outside domain [0, {attr.size - 1}]")
            arr.setflags(write=False)
            cols[attr.name] = arr
        extra = set(columns) - set(cols)
        if extra:
            raise SchemaError(f"unexpected columns: {sorted(extra)}")
        self._columns = cols
        self._n = n or 0

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(cls, schema: Schema,
                  rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from decoded rows ``(qi_1, ..., qi_d, sensitive)``.

        Each row value is encoded through its attribute's domain; a value
        outside the domain raises :class:`~repro.exceptions.SchemaError`.
        """
        attrs = schema.attributes
        buffers: list[list[int]] = [[] for _ in attrs]
        for row in rows:
            if len(row) != len(attrs):
                raise SchemaError(
                    f"row has {len(row)} values, schema expects {len(attrs)}")
            for buf, attr, value in zip(buffers, attrs, row):
                buf.append(attr.encode(value))
        columns = {
            attr.name: np.asarray(buf, dtype=np.int32)
            for attr, buf in zip(attrs, buffers)
        }
        return cls(schema, columns, validate=False)

    @classmethod
    def from_codes(cls, schema: Schema,
                   codes: np.ndarray) -> "Table":
        """Build a table from an ``(n, d+1)`` integer code matrix.

        Column order must match ``schema.attributes``.
        """
        codes = np.asarray(codes, dtype=np.int32)
        if codes.ndim != 2 or codes.shape[1] != len(schema.attributes):
            raise SchemaError(
                f"code matrix must be (n, {len(schema.attributes)}); "
                f"got {codes.shape}")
        columns = {
            attr.name: np.ascontiguousarray(codes[:, i])
            for i, attr in enumerate(schema.attributes)
        }
        return cls(schema, columns)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        """Cardinality of the table (the paper's ``n``)."""
        return self._n

    def column(self, name: str) -> np.ndarray:
        """The (read-only) code array for an attribute.

        Raises
        ------
        SchemaError
            If the attribute is not part of the schema.
        """
        self.schema.attribute(name)  # raises on unknown name
        return self._columns[name]

    @property
    def sensitive_column(self) -> np.ndarray:
        """Code array of the sensitive attribute."""
        return self._columns[self.schema.sensitive.name]

    def qi_matrix(self) -> np.ndarray:
        """The QI codes as an ``(n, d)`` matrix (column order = schema)."""
        return np.column_stack(
            [self._columns[a.name] for a in self.schema.qi_attributes]
        ) if self._n else np.empty((0, self.schema.d), dtype=np.int32)

    def code_matrix(self) -> np.ndarray:
        """All codes as an ``(n, d+1)`` matrix, sensitive attribute last."""
        return np.column_stack(
            [self._columns[a.name] for a in self.schema.attributes]
        ) if self._n else np.empty(
            (0, len(self.schema.attributes)), dtype=np.int32)

    def row_codes(self, i: int) -> tuple[int, ...]:
        """Codes of row ``i`` in schema attribute order."""
        if not 0 <= i < self._n:
            raise IndexError(f"row {i} out of range [0, {self._n})")
        return tuple(int(self._columns[a.name][i])
                     for a in self.schema.attributes)

    def decode_row(self, i: int) -> tuple[Any, ...]:
        """Row ``i`` decoded through each attribute's domain."""
        return tuple(
            a.decode(self._columns[a.name][i])
            for a in self.schema.attributes)

    def iter_rows(self) -> Iterable[tuple[int, ...]]:
        """Iterate over rows as code tuples (schema attribute order)."""
        return map(tuple, self.code_matrix().tolist())

    # ------------------------------------------------------------------ #
    # relational-ish operations
    # ------------------------------------------------------------------ #

    def take(self, indices: np.ndarray) -> "Table":
        """A new table containing the rows at ``indices`` (in that order)."""
        indices = np.asarray(indices)
        columns = {
            name: np.ascontiguousarray(col[indices])
            for name, col in self._columns.items()
        }
        return Table(self.schema, columns, validate=False)

    def select(self, mask: np.ndarray) -> "Table":
        """A new table with the rows where boolean ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._n:
            raise SchemaError(
                f"mask length {len(mask)} != table length {self._n}")
        return self.take(np.flatnonzero(mask))

    def sample(self, k: int, rng: np.random.Generator) -> "Table":
        """Uniform random sample of ``k`` rows without replacement.

        The paper's cardinality experiments (Figure 7) sample ``n`` tuples
        from the full 500k CENSUS table.
        """
        if not 0 <= k <= self._n:
            raise SchemaError(f"cannot sample {k} rows from {self._n}")
        indices = rng.choice(self._n, size=k, replace=False)
        return self.take(np.sort(indices))

    def project_qi(self, names: Sequence[str]) -> "Table":
        """Keep only the named QI attributes (plus the sensitive attribute).

        Derives the OCC-d / SAL-d views used throughout the evaluation.
        """
        sub_schema = self.schema.project_qi(names)
        columns = {a.name: self._columns[a.name]
                   for a in sub_schema.attributes}
        return Table(sub_schema, columns, validate=False)

    def with_sensitive(self, sensitive: Attribute,
                       column: np.ndarray) -> "Table":
        """A new table replacing the sensitive attribute and its column."""
        schema = Schema(self.schema.qi_attributes, sensitive)
        columns = {a.name: self._columns[a.name]
                   for a in self.schema.qi_attributes}
        columns[sensitive.name] = np.asarray(column, dtype=np.int32)
        return Table(schema, columns)

    def sensitive_histogram(self) -> dict[int, int]:
        """Counts of each sensitive code present in the table."""
        codes, counts = np.unique(self.sensitive_column, return_counts=True)
        return {int(c): int(k) for c, k in zip(codes, counts)}

    def distinct_sensitive_count(self) -> int:
        """Number of distinct sensitive values present (the paper's lambda)."""
        if self._n == 0:
            return 0
        return int(len(np.unique(self.sensitive_column)))

    def __repr__(self) -> str:
        return f"Table(n={self._n}, schema={self.schema!r})"
