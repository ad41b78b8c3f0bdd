"""Attribute and schema definitions for microdata tables.

The paper treats every attribute as *discrete* (Section 6: "recall that all
attributes are discrete"), with quasi-identifier attributes that are either
numerical or categorical and a sensitive attribute that must be categorical
(the l-diversity assumption, Section 3).  We model an attribute as a named,
finite, totally ordered domain: values are stored in tables as integer codes
``0 .. size-1`` and decoded through the attribute on demand.

Using integer codes keeps the columnar :class:`~repro.dataset.table.Table`
numpy-friendly and makes domain-size computations (needed by the workload
generator, Equation 14 of the paper) exact.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from enum import Enum
from typing import Any

import numpy as np

from repro.exceptions import SchemaError

#: Types that hash like an integer (``True == 1 == 1.0``) but are not one:
#: such a value matches a domain value only of its own kind.
_BOOLS = (bool, np.bool_)
_FLOATS = (float, np.floating)


class AttributeKind(Enum):
    """Role and type of an attribute within a microdata schema."""

    #: Discrete numerical quasi-identifier (e.g. Age); generalized to free
    #: intervals.
    NUMERIC = "numeric"
    #: Categorical quasi-identifier (e.g. Work-class); generalized through a
    #: taxonomy tree, per the paper's Table 6.
    CATEGORICAL = "categorical"


class Attribute:
    """A named discrete attribute with a finite, totally ordered domain.

    Parameters
    ----------
    name:
        Attribute name, unique within a schema.
    values:
        The ordered domain.  Values may be of any hashable type; their order
        in this sequence defines the total order the paper assumes for
        categorical attributes (Definition 4, footnote 2).
    kind:
        Whether the attribute is numeric or categorical.  This only affects
        how the *generalization* baseline recodes it; anatomy publishes exact
        values either way.

    Examples
    --------
    >>> age = Attribute("Age", range(20, 80), kind=AttributeKind.NUMERIC)
    >>> age.size
    60
    >>> age.encode(23)
    3
    >>> age.decode(3)
    23
    """

    __slots__ = ("name", "kind", "_values", "_index")

    def __init__(self, name: str, values: Iterable[Any],
                 kind: AttributeKind = AttributeKind.CATEGORICAL) -> None:
        self.name = str(name)
        self.kind = kind
        self._values: tuple[Any, ...] = tuple(values)
        if not self._values:
            raise SchemaError(f"attribute {name!r} has an empty domain")
        self._index: dict[Any, int] = {v: i for i, v in enumerate(self._values)}
        if len(self._index) != len(self._values):
            raise SchemaError(f"attribute {name!r} has duplicate domain values")

    @property
    def values(self) -> tuple[Any, ...]:
        """The ordered domain of the attribute."""
        return self._values

    @property
    def size(self) -> int:
        """Domain size ``|A|`` (used by Equation 14 of the paper)."""
        return len(self._values)

    @property
    def is_numeric(self) -> bool:
        return self.kind is AttributeKind.NUMERIC

    def encode(self, value: Any) -> int:
        """Map a domain value to its integer code.

        Raises
        ------
        SchemaError
            If ``value`` is not in the domain.  A ``bool`` or ``float``
            that only hash-matches a domain value of another type
            (``True == 1 == 1.0``) is not in the domain.
        """
        code = self._lookup(value)
        if code is None:
            raise SchemaError(
                f"value {value!r} not in domain of attribute {self.name!r}"
            )
        return code

    def _lookup(self, value: Any) -> int | None:
        """The code of ``value``, or None when it is not in the domain."""
        try:
            code = self._index[value]
        except (KeyError, TypeError):
            return None
        if isinstance(value, _BOOLS + _FLOATS):
            stored = self._values[code]
            if isinstance(stored, _BOOLS) != isinstance(value, _BOOLS) or \
                    isinstance(stored, _FLOATS) != isinstance(value, _FLOATS):
                return None
        return code

    def decode(self, code: int) -> Any:
        """Map an integer code back to its domain value."""
        try:
            return self._values[int(code)]
        except IndexError:
            raise SchemaError(
                f"code {code} out of range for attribute {self.name!r} "
                f"(domain size {self.size})"
            ) from None

    def encode_many(self, values: Iterable[Any]) -> list[int]:
        """Encode a sequence of domain values to integer codes."""
        return [self.encode(v) for v in values]

    def decode_many(self, codes: Iterable[int]) -> list[Any]:
        """Decode a sequence of integer codes to domain values."""
        return [self.decode(c) for c in codes]

    def __contains__(self, value: Any) -> bool:
        return self._lookup(value) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return (self.name == other.name and self.kind == other.kind
                and self._values == other._values)

    def __hash__(self) -> int:
        return hash((self.name, self.kind, self._values))

    def __repr__(self) -> str:
        return (f"Attribute({self.name!r}, size={self.size}, "
                f"kind={self.kind.value})")


class Schema:
    """An ordered collection of attributes: ``d`` quasi-identifiers plus one
    sensitive attribute.

    Following Section 3 of the paper, a microdata table ``T`` has QI
    attributes ``A1_qi .. Ad_qi`` and a single sensitive attribute ``As``.
    The multi-sensitive extension (:mod:`repro.core.multi_sensitive`) builds
    its own composite schema on top of this class.

    Parameters
    ----------
    qi_attributes:
        The quasi-identifier attributes, in order.
    sensitive:
        The sensitive attribute.
    """

    __slots__ = ("qi_attributes", "sensitive", "_by_name", "domain_slices")

    def __init__(self, qi_attributes: Sequence[Attribute],
                 sensitive: Attribute) -> None:
        self.qi_attributes: tuple[Attribute, ...] = tuple(qi_attributes)
        self.sensitive = sensitive
        if not self.qi_attributes:
            raise SchemaError("schema needs at least one QI attribute")
        names = [a.name for a in self.qi_attributes] + [sensitive.name]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        self._by_name: dict[str, Attribute] = {
            a.name: a for a in self.qi_attributes
        }
        self._by_name[sensitive.name] = sensitive
        #: Each attribute's columns in the concatenation of all domains
        #: (QI in order, then sensitive): the layout of a query's row.
        ends = itertools.accumulate(a.size for a in self.attributes)
        self.domain_slices = {a.name: slice(end - a.size, end)
                              for a, end in zip(self.attributes, ends)}

    @property
    def d(self) -> int:
        """Number of QI attributes (the paper's ``d``)."""
        return len(self.qi_attributes)

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """All attributes: QI attributes followed by the sensitive one."""
        return self.qi_attributes + (self.sensitive,)

    @property
    def names(self) -> tuple[str, ...]:
        """All attribute names, QI first, sensitive last."""
        return tuple(a.name for a in self.attributes)

    @property
    def qi_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.qi_attributes)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name.

        Raises
        ------
        SchemaError
            If no attribute with that name exists.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {list(self.names)}"
            ) from None

    def is_sensitive(self, name: str) -> bool:
        return name == self.sensitive.name

    def qi_index(self, name: str) -> int:
        """Position of a QI attribute within the QI list (0-based)."""
        for i, a in enumerate(self.qi_attributes):
            if a.name == name:
                return i
        raise SchemaError(f"{name!r} is not a QI attribute of this schema")

    def project_qi(self, names: Sequence[str]) -> "Schema":
        """A new schema keeping only the named QI attributes (same sensitive).

        Used to derive the paper's OCC-d / SAL-d microdata views from the
        full 9-attribute CENSUS schema.
        """
        kept = [self.attribute(n) for n in names]
        for a in kept:
            if a.name == self.sensitive.name:
                raise SchemaError(
                    f"cannot use sensitive attribute {a.name!r} as QI")
        return Schema(kept, self.sensitive)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (self.qi_attributes == other.qi_attributes
                and self.sensitive == other.sensitive)

    def __hash__(self) -> int:
        return hash((self.qi_attributes, self.sensitive))

    def __repr__(self) -> str:
        qi = ", ".join(a.name for a in self.qi_attributes)
        return f"Schema(qi=[{qi}], sensitive={self.sensitive.name})"
