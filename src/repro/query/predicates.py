"""COUNT query representation (paper Section 6.1).

The evaluation workload consists of queries of the form::

    SELECT COUNT(*) FROM Unknown-Microdata
    WHERE pred(A1_qi) AND ... AND pred(Aqd_qi) AND pred(As)

where each ``pred(A)`` is a disjunction of equality conditions
``A = x_1 OR ... OR A = x_b`` over ``b`` random domain values.  A query
therefore reduces to: per attribute, a *set* of accepted codes; a row
qualifies when every constrained attribute's code is in its set.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

import numpy as np

from repro.dataset.schema import Schema
from repro.exceptions import QueryError


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
    """

    __slots__ = ("schema", "qi_predicates", "sensitive_values",
                 "_qi_code_arrays", "_sensitive_code_array")

    def __init__(self, schema: Schema,
                 qi_predicates: Mapping[str, Iterable[int]],
                 sensitive_values: Iterable[int]) -> None:
        self.schema = schema
        staged: dict[str, frozenset[int]] = {}
        for name, codes in qi_predicates.items():
            attr = schema.attribute(name)
            if schema.is_sensitive(name):
                raise QueryError(
                    f"{name!r} is the sensitive attribute; pass its "
                    f"predicate as sensitive_values")
            codes = frozenset(int(c) for c in codes)
            if not codes:
                raise QueryError(f"empty predicate on {name!r}")
            if any(c < 0 or c >= attr.size for c in codes):
                raise QueryError(
                    f"predicate on {name!r} has out-of-domain codes")
            staged[name] = codes
        # Canonical schema order: batch and per-query evaluation then
        # combine per-attribute factors in the same sequence, which keeps
        # their floating-point results bit-identical.
        self.qi_predicates: dict[str, frozenset[int]] = {
            attr.name: staged[attr.name]
            for attr in schema.qi_attributes if attr.name in staged
        }
        sens = frozenset(int(c) for c in sensitive_values)
        if not sens:
            raise QueryError("empty sensitive predicate")
        if any(c < 0 or c >= schema.sensitive.size for c in sens):
            raise QueryError("sensitive predicate has out-of-domain codes")
        self.sensitive_values = sens
        self._qi_code_arrays = {
            name: np.fromiter(sorted(codes), dtype=np.int64,
                              count=len(codes))
            for name, codes in self.qi_predicates.items()
        }
        self._sensitive_code_array = np.fromiter(
            sorted(sens), dtype=np.int64, count=len(sens))

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

    @property
    def qd(self) -> int:
        """Query dimensionality: number of constrained QI attributes."""
        return len(self.qi_predicates)

    def qi_code_array(self, name: str) -> np.ndarray | None:
        """Sorted int64 array of the accepted codes on a QI attribute, or
        ``None`` when the attribute is unconstrained.  Cached at
        construction; the batch engine encodes workloads from these."""
        return self._qi_code_arrays.get(name)

    @property
    def sensitive_code_array(self) -> np.ndarray:
        """Sorted int64 array of the accepted sensitive codes."""
        return self._sensitive_code_array

    def lookup_table(self, name: str) -> np.ndarray:
        """Boolean membership table over the attribute's domain.

        ``lut[code]`` is true iff the code satisfies the predicate; enables
        O(n) predicate evaluation via fancy indexing.
        """
        attr = self.schema.attribute(name)
        lut = np.zeros(attr.size, dtype=bool)
        codes = (self._sensitive_code_array
                 if self.schema.is_sensitive(name)
                 else self._qi_code_arrays.get(name))
        if codes is None:
            raise QueryError(f"query does not constrain {name!r}")
        lut[codes] = True
        return lut

    def describe(self) -> str:
        """Human-readable SQL-ish rendering, with decoded values."""
        parts = []
        for name, codes in sorted(self.qi_predicates.items()):
            attr = self.schema.attribute(name)
            values = ", ".join(
                repr(attr.decode(c)) for c in sorted(codes)[:4])
            suffix = ", ..." if len(codes) > 4 else ""
            parts.append(f"{name} IN ({values}{suffix})")
        sens = self.schema.sensitive
        values = ", ".join(
            repr(sens.decode(c)) for c in sorted(self.sensitive_values)[:4])
        suffix = ", ..." if len(self.sensitive_values) > 4 else ""
        parts.append(f"{sens.name} IN ({values}{suffix})")
        return "SELECT COUNT(*) WHERE " + " AND ".join(parts)

    def __repr__(self) -> str:
        dims = sorted(self.qi_predicates)
        return (f"CountQuery(qd={self.qd}, dims={dims}, "
                f"|sensitive|={len(self.sensitive_values)})")
