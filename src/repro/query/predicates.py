"""COUNT query representation (paper Section 6.1).

The evaluation workload consists of queries of the form::

    SELECT COUNT(*) FROM Unknown-Microdata
    WHERE pred(A1_qi) AND ... AND pred(Aqd_qi) AND pred(As)

where each ``pred(A)`` is a disjunction of equality conditions
``A = x_1 OR ... OR A = x_b`` over ``b`` random domain values.  A query
therefore reduces to: per attribute, a *set* of accepted codes; a row
qualifies when every constrained attribute's code is in its set.

A :class:`CountQuery` holds exactly that as one read-only uint8
*membership row* over the schema's concatenated domains
(:attr:`~repro.dataset.schema.Schema.domain_slices`); an all-zero QI
slice means "unconstrained" (empty predicates are rejected).  The
fingerprint, the batch encoding and the lookup tables all read the row.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.dataset.schema import Schema
from repro.exceptions import QueryError


def _membership_rows(schema: Schema, specs: Sequence[tuple[
        Mapping[str, Iterable[int]], Iterable[int]]]) -> np.ndarray:
    """The read-only ``(Q, width)`` uint8 membership rows of
    ``(qi_predicates, sensitive_values)`` specs.  Structure is checked
    per spec, integer type and domain range once for all of them; every
    malformed spec raises :class:`QueryError`."""
    slices = schema.domain_slices
    names = list(slices)
    index = {name: k for k, name in enumerate(names)}
    sensitive = schema.sensitive.name
    flat: list[Any] = []
    #: Per predicate: owning spec, attribute index, number of codes.
    owners: list[int] = []
    attrs: list[int] = []
    lengths: list[int] = []

    def subject(name: str) -> str:
        return ("sensitive predicate" if name == sensitive
                else f"predicate on {name!r}")

    def reject(position: int, problem: str) -> QueryError:
        k = np.searchsorted(np.cumsum(lengths), position, side="right")
        return QueryError(f"{subject(names[attrs[k]])} has {problem}")

    for q, (qi_predicates, sensitive_values) in enumerate(specs):
        if not isinstance(qi_predicates, Mapping):
            raise QueryError(f"QI predicates must map attribute names "
                             f"to codes, got {qi_predicates!r}")
        if sensitive in qi_predicates:
            raise QueryError(
                f"{sensitive!r} is the sensitive attribute; pass its "
                f"predicate as sensitive_values")
        for name, codes in (*qi_predicates.items(),
                            (sensitive, sensitive_values)):
            if name not in index:
                raise QueryError(f"unknown attribute {name!r}; schema "
                                 f"has {names}")
            before = len(flat)
            try:
                flat.extend(codes)
            except TypeError:
                raise QueryError(f"{subject(name)} must be a collection "
                                 f"of integer codes, got {codes!r}") \
                    from None
            if len(flat) == before:
                raise QueryError(f"empty {subject(name)}")
            owners.append(q)
            attrs.append(index[name])
            lengths.append(len(flat) - before)
    invalid = {kind for kind in set(map(type, flat)) if kind is bool
               or not issubclass(kind, (int, np.integer))}
    if invalid:
        position = next(i for i, c in enumerate(flat) if type(c) in invalid)
        raise reject(position, f"non-integer code {flat[position]!r}")
    try:
        codes = np.array(flat, dtype=np.int64)
    except OverflowError:
        raise reject(next(i for i, c in enumerate(flat)
                          if not -2**63 <= c < 2**63),
                     "out-of-domain codes") from None
    bounds = np.array([(c.start, c.stop) for c in slices.values()],
                      dtype=np.int64)
    lo, hi = bounds[np.array(attrs, dtype=np.intp).repeat(lengths)].T
    codes += lo
    bad = (codes < lo) | (codes >= hi)
    if bad.any():
        raise reject(int(np.argmax(bad)), "out-of-domain codes")
    rows = np.zeros((len(specs), bounds[-1, 1]), dtype=np.uint8)
    rows[np.array(owners, dtype=np.intp).repeat(lengths), codes] = 1
    rows.flags.writeable = False
    return rows


def query_fingerprint(query: "CountQuery") -> str:
    """A stable, canonical identifier of a COUNT query's predicate: the
    blake2b-128 hex digest of its packed membership row.

    Two queries over the same schema get equal fingerprints iff they
    accept the same code sets per attribute (an unconstrained attribute
    differs from one listing every code).  The digest is stable across
    processes, so fingerprints can be logged, compared, and used as HTTP
    cache keys.

    Examples
    --------
    >>> from repro.dataset.hospital import hospital_schema
    >>> schema = hospital_schema()
    >>> a = CountQuery(schema, {"Age": [0, 1]}, [2])
    >>> b = CountQuery(schema, {"Age": [1, 0]}, [2])
    >>> query_fingerprint(a) == query_fingerprint(b)
    True
    """
    return hashlib.blake2b(np.packbits(query.row).tobytes(),
                           digest_size=16).hexdigest()


class CountQuery:
    """A conjunctive COUNT query with disjunctive per-attribute predicates.

    Parameters
    ----------
    schema:
        The microdata schema the query targets.
    qi_predicates:
        Mapping from QI attribute name to the set of accepted codes.
        Attributes not present are unconstrained.
    sensitive_values:
        Accepted codes of the sensitive attribute (the paper's workload
        always constrains ``As``).

    The query is held as :attr:`row` (see the module docstring); the
    predicate views below are derived from it.
    """

    __slots__ = ("schema", "row")

    def __init__(self, schema: Schema,
                 qi_predicates: Mapping[str, Iterable[int]],
                 sensitive_values: Iterable[int]) -> None:
        self.schema = schema
        self.row: np.ndarray = _membership_rows(
            schema, ((qi_predicates, sensitive_values),))[0]

    @classmethod
    def many(cls, schema: Schema, specs: Sequence[tuple[
            Mapping[str, Iterable[int]], Iterable[int]]]
             ) -> list["CountQuery"]:
        """``[CountQuery(schema, *spec) for spec in specs]`` in one
        vectorized pass (the rows are views of one matrix); raises iff
        some spec alone would."""
        queries = []
        for row in _membership_rows(schema, specs):
            query = cls.__new__(cls)
            query.schema, query.row = schema, row
            queries.append(query)
        return queries

    @classmethod
    def from_ranges(cls, schema: Schema,
                    qi_ranges: Mapping[str, tuple[Any, Any]],
                    sensitive_values: Iterable[Any]) -> "CountQuery":
        """Build a query from inclusive *value* ranges and decoded
        sensitive values — the form range predicates like the paper's
        query A arrive in.

        ``qi_ranges[name] = (lo, hi)`` selects a contiguous run of the
        attribute's *domain order*: when both endpoints are domain
        members, every value positioned between them (inclusive) is
        accepted — so ``("Bachelors", "Doctorate")`` on an ordinal
        education attribute includes the degrees in between.  When an
        endpoint is not a domain member (an open numeric bound such as
        ``(0, 30)`` on an age domain starting at 20), values are
        compared directly with ``lo <= v <= hi``.
        ``sensitive_values`` are decoded domain values.

        Examples
        --------
        >>> from repro.dataset.hospital import hospital_table
        >>> schema = hospital_table().schema
        >>> q = CountQuery.from_ranges(
        ...     schema,
        ...     {"Age": (0, 30), "Zipcode": (10001, 20000)},
        ...     ["pneumonia"])           # the paper's query A
        >>> q.qd
        2
        """
        predicates: dict[str, list[int]] = {}
        for name, (lo, hi) in qi_ranges.items():
            attr = schema.attribute(name)
            if lo in attr and hi in attr:
                code_lo, code_hi = attr.encode(lo), attr.encode(hi)
                if code_lo > code_hi:
                    raise QueryError(
                        f"range endpoints for {name!r} are in reverse "
                        f"domain order: {lo!r} after {hi!r}")
                codes = list(range(code_lo, code_hi + 1))
            else:
                codes = [c for c, v in enumerate(attr.values)
                         if lo <= v <= hi]
            if not codes:
                raise QueryError(
                    f"range [{lo!r}, {hi!r}] matches no value of "
                    f"{name!r}")
            predicates[name] = codes
        sens = schema.sensitive
        sens_codes = [sens.encode(v) for v in sensitive_values]
        return cls(schema, predicates, sens_codes)

    def qi_lookup_tables(self) -> dict[str, np.ndarray]:
        """Boolean membership tables of the constrained QI attributes,
        in schema order (views of :attr:`row`)."""
        # ``1 in bytes`` is a membership test per attribute without a
        # NumPy reduction's fixed cost (the per-query estimators call
        # this once per query).
        flags, lut = self.row.tobytes(), self.row.view(bool)
        tables = {}
        for attr in self.schema.qi_attributes:
            columns = self.schema.domain_slices[attr.name]
            if 1 in flags[columns]:
                tables[attr.name] = lut[columns]
        return tables

    @property
    def qd(self) -> int:
        """Query dimensionality: number of constrained QI attributes."""
        return len(self.qi_lookup_tables())

    @property
    def qi_predicates(self) -> dict[str, frozenset[int]]:
        """Constrained QI attribute -> accepted codes, in schema order."""
        return {name: frozenset(np.flatnonzero(lut).tolist())
                for name, lut in self.qi_lookup_tables().items()}

    @property
    def sensitive_values(self) -> frozenset[int]:
        """Accepted codes of the sensitive attribute."""
        return frozenset(np.flatnonzero(
            self.lookup_table(self.schema.sensitive.name)).tolist())

    def lookup_table(self, name: str) -> np.ndarray:
        """Boolean membership table over the attribute's domain.

        ``lut[code]`` is true iff the code satisfies the predicate; enables
        O(n) predicate evaluation via fancy indexing.  A read-only view
        of :attr:`row`.
        """
        self.schema.attribute(name)  # SchemaError on unknown names
        lut = self.row[self.schema.domain_slices[name]].view(bool)
        if not self.schema.is_sensitive(name) and not lut.any():
            raise QueryError(f"query does not constrain {name!r}")
        return lut

    def describe(self) -> str:
        """Human-readable SQL-ish rendering, with decoded values."""
        parts = []
        for name, codes in (*sorted(self.qi_predicates.items()),
                            (self.schema.sensitive.name,
                             self.sensitive_values)):
            attr = self.schema.attribute(name)
            values = ", ".join(
                repr(attr.decode(c)) for c in sorted(codes)[:4])
            suffix = ", ..." if len(codes) > 4 else ""
            parts.append(f"{name} IN ({values}{suffix})")
        return "SELECT COUNT(*) WHERE " + " AND ".join(parts)

    def __repr__(self) -> str:
        dims = sorted(self.qi_predicates)
        return (f"CountQuery(qd={self.qd}, dims={dims}, "
                f"|sensitive|={len(self.sensitive_values)})")
