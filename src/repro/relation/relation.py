"""In-memory relation instances.

A :class:`Relation` is a bag (multiset) of tuples over a :class:`Schema`.
Tuples are stored positionally as Python tuples; the class exposes both
positional and by-name access, projection, selection, and CSV round-tripping.
The CFD machinery treats relations as *bags* because the paper's experiments
generate synthetic data that may contain duplicate rows.
"""

from __future__ import annotations

import csv
from collections.abc import Mapping as MappingABC
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import SchemaError
from repro.relation.schema import Schema

Row = Tuple[Any, ...]

#: Rows :meth:`Relation.extend` validates and stores per step: small enough
#: to keep one in-flight block cheap, large enough to amortise each step.
INGEST_BLOCK_ROWS = 1_024


def project_tuples(
    rows: Iterable[Row], positions: Sequence[int], length: int
) -> Iterator[Row]:
    """``rows`` (``length`` of them) projected onto ``positions`` as tuples.

    ``itemgetter`` yields a bare value for one position and cannot take
    none, so those two shapes are built here.
    """
    if not positions:
        return repeat((), length)
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    return map(itemgetter(*positions), rows)


class _RowView(MappingABC):
    """A read-only attribute-name view over one positional row.

    :meth:`Relation.select` hands these to predicates instead of building a
    fresh ``dict`` per row: the name → position map is resolved once per
    relation and shared by every view, so a cheap predicate no longer pays a
    full dict allocation per tuple just to read one or two cells.
    """

    __slots__ = ("_row", "_positions")

    def __init__(self, row: Row, positions: Mapping[str, int]) -> None:
        self._row = row
        self._positions = positions

    def __getitem__(self, name: str) -> Any:
        try:
            return self._row[self._positions[name]]
        except KeyError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __repr__(self) -> str:
        return repr(dict(self))


class Relation:
    """A mutable in-memory instance of a relation schema.

    >>> schema = Schema("r", ["A", "B"])
    >>> rel = Relation(schema)
    >>> rel.insert({"A": 1, "B": 2})
    0
    >>> rel.insert((3, 4))
    1
    >>> len(rel)
    2
    >>> rel.value(0, "B")
    2
    """

    __slots__ = ("_schema", "_rows", "_version")

    def __init__(self, schema: Schema, rows: Optional[Iterable[Union[Row, Mapping[str, Any]]]] = None) -> None:
        self._schema = schema
        self._rows: List[Row] = []
        self._version = 0
        if rows is not None:
            self.extend(rows)

    # ------------------------------------------------------------------ basics
    @property
    def schema(self) -> Schema:
        """The schema of this relation."""
        return self._schema

    @property
    def version(self) -> int:
        """A counter bumped by every mutation (insert, update, delete).

        Index structures built over the relation (partition indexes, the
        incremental repair state) snapshot this counter and refuse to serve
        reads once it moves without them — a deleted or inserted tuple shifts
        or extends the index space, so a stale index would silently return
        wrong answers.  See :meth:`repro.repair.incremental.RepairState.apply_changes`
        for the sanctioned way to mutate under a live repair state.
        """
        return self._version

    @property
    def rows(self) -> Tuple[Row, ...]:
        """A snapshot of all rows as positional tuples."""
        return tuple(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._rows == other._rows

    def __repr__(self) -> str:
        return f"Relation({self._schema.name!r}, {len(self._rows)} rows)"

    # ------------------------------------------------------------------ mutation
    def insert(self, row: Union[Row, Sequence[Any], Mapping[str, Any]]) -> int:
        """Insert a row given positionally or as a mapping; return its index."""
        self.extend((row,))
        return len(self) - 1

    def extend(self, rows: Iterable[Union[Row, Mapping[str, Any]]]) -> None:
        """Insert several rows, validated and stored a block at a time.

        As with row-by-row inserts, the version goes up by one per row and a
        bad row raises the same error after every row before it is stored.
        A positional tuple of the right width needs no other check unless
        the schema has a finite domain; every other row goes through
        :meth:`_coerce`.
        """
        width = len(self._schema)
        trusted = not any(attribute.has_finite_domain for attribute in self._schema)
        iterator = iter(rows)
        while True:
            block: List[Row] = []
            error: Optional[Exception] = None
            try:
                for row in islice(iterator, INGEST_BLOCK_ROWS):
                    if not (trusted and type(row) is tuple and len(row) == width):
                        row = self._coerce(row)
                    block.append(row)
            except Exception as exc:  # a bad row or a failing source
                error = exc
            if block:
                self._extend_validated(block)
                self._version += len(block)
            if error is not None:
                raise error
            if len(block) < INGEST_BLOCK_ROWS:
                return

    def _extend_validated(self, block: List[Row]) -> None:
        """Store a block of validated rows: the one storage hook of ingestion."""
        self._rows.extend(block)

    def update(self, index: int, attribute: str, value: Any) -> None:
        """Set ``attribute`` of the row at ``index`` to ``value`` in place."""
        position = self._schema.position(attribute)
        self._schema[attribute].check(value)
        row = list(self._rows[index])
        row[position] = value
        self._rows[index] = tuple(row)
        self._version += 1

    def delete(self, index: int) -> Row:
        """Remove and return the row at ``index``.

        Deleting shifts every later tuple index, so any live
        :class:`~repro.detection.partition_index.PartitionIndexCache` or
        :class:`~repro.repair.incremental.RepairState` over the relation is
        invalidated; the :attr:`version` bump makes their next read raise a
        :class:`~repro.errors.DetectionError` instead of answering stale.
        """
        row = self._rows.pop(index)
        self._version += 1
        return row

    def _coerce(self, row: Union[Row, Sequence[Any], Mapping[str, Any]]) -> Row:
        if isinstance(row, MappingABC):
            missing = [name for name in self._schema.names if name not in row]
            if missing:
                raise SchemaError(f"row is missing attributes {missing} for schema {self._schema.name!r}")
            extra = [name for name in row if name not in self._schema]
            if extra:
                raise SchemaError(f"row has unknown attributes {extra} for schema {self._schema.name!r}")
            values = tuple(row[name] for name in self._schema.names)
        else:
            values = tuple(row)
            if len(values) != len(self._schema):
                raise SchemaError(
                    f"row has {len(values)} values but schema {self._schema.name!r} "
                    f"has {len(self._schema)} attributes"
                )
        for attribute, value in zip(self._schema, values):
            attribute.check(value)
        return values

    # ------------------------------------------------------------------ access
    def value(self, index: int, attribute: str) -> Any:
        """The value of ``attribute`` in the row at ``index``."""
        return self._rows[index][self._schema.position(attribute)]

    def row_dict(self, index: int) -> Dict[str, Any]:
        """The row at ``index`` as an attribute-name → value mapping."""
        return dict(zip(self._schema.names, self._rows[index]))

    def project_row(self, index: int, attributes: Sequence[str]) -> Row:
        """Project the row at ``index`` onto ``attributes`` (positional result)."""
        positions = self._schema.positions(attributes)
        row = self._rows[index]
        return tuple(row[position] for position in positions)

    def project_rows(self, attributes: Sequence[str]) -> Iterator[Row]:
        """Every row projected onto ``attributes``, in row order.

        Yields what :meth:`project_row` returns for each index, with the
        positions resolved once for the whole pass.
        """
        return project_tuples(self._rows, self._schema.positions(attributes), len(self))

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        """Iterate over rows as dictionaries."""
        names = self._schema.names
        for row in self:
            yield dict(zip(names, row))

    # ------------------------------------------------------------------ algebra
    def select(self, predicate: Callable[[Mapping[str, Any]], bool]) -> Relation:
        """Return a new relation with the rows whose mapping satisfies ``predicate``.

        The predicate receives a read-only by-name mapping over each row.
        Attribute positions are resolved once for the whole pass and rows are
        handed over positionally behind the mapping facade, so selection no
        longer allocates a dict per row.
        """
        positions = {name: position for position, name in enumerate(self._schema.names)}
        matching = [
            index
            for index, row in enumerate(self)
            if predicate(_RowView(row, positions))
        ]
        return self.take(matching)

    def project(self, attributes: Sequence[str], distinct: bool = False) -> Relation:
        """Project onto ``attributes``; optionally de-duplicate the result."""
        projected_schema = self._schema.project(attributes)
        positions = self._schema.positions(attributes)
        result = Relation(projected_schema)
        seen = set()
        for row in self:
            values = tuple(row[position] for position in positions)
            if distinct:
                if values in seen:
                    continue
                seen.add(values)
            result._rows.append(values)
        return result

    def group_by(self, attributes: Sequence[str]) -> Dict[Row, List[int]]:
        """Group row indices by their projection onto ``attributes``."""
        positions = self._schema.positions(attributes)
        groups: Dict[Row, List[int]] = {}
        for index, row in enumerate(self):
            key = tuple(row[position] for position in positions)
            groups.setdefault(key, []).append(index)
        return groups

    def copy(self) -> Relation:
        """A shallow copy (rows are immutable tuples, so this is safe)."""
        clone = Relation(self._schema)
        clone._rows = list(self._rows)
        return clone

    def take(self, indices: Sequence[int]) -> Relation:
        """The rows at ``indices``, in that order, as a new relation.

        Preserves the storage class: a row relation yields a row relation, a
        :class:`~repro.relation.columnar.ColumnStore` yields a column store
        (the sharding planner relies on that to ship encoded shards).
        """
        rows = self._rows
        return Relation.from_validated_rows(
            self._schema, (rows[index] for index in indices)
        )

    @classmethod
    def from_validated_rows(cls, schema: Schema, rows: Iterable[Row]) -> Relation:
        """Build a relation from positional rows already validated for ``schema``.

        For moving tuples between same-schema relations (copying, sharding).
        Ingestion need not use it for speed: for a schema without finite
        domains, :meth:`extend` costs one type and width test per positional
        tuple.  Rows
        from untrusted sources belong in :meth:`insert`/:meth:`extend`.
        """
        relation = cls(schema)
        relation._rows = list(rows)
        return relation

    def active_domain(self, attribute: str) -> Tuple[Any, ...]:
        """Distinct values of ``attribute`` occurring in the relation, sorted."""
        position = self._schema.position(attribute)
        values = {row[position] for row in self._rows}
        try:
            return tuple(sorted(values))
        except TypeError:
            return tuple(sorted(values, key=repr))

    # ------------------------------------------------------------------ I/O
    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the relation to a CSV file with a header row."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(self._schema.names)
            writer.writerows(self)

    @classmethod
    def from_csv(cls, schema: Schema, path: Union[str, Path]) -> Relation:
        """Load a relation from a CSV file whose header matches ``schema``.

        Cells are parsed through the schema's attribute types, then
        :meth:`extend` checks the row widths and any finite domains.
        """
        attributes = schema.attributes
        relation = cls(schema)
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is not None and tuple(header) != schema.names:
                raise SchemaError(
                    f"CSV header {tuple(header)} does not match schema attributes {schema.names}"
                )
            relation.extend(
                tuple(
                    attribute.parse(cell) for attribute, cell in zip(attributes, cells)
                )
                for cells in reader
            )
        return relation

    @classmethod
    def from_dicts(cls, schema: Schema, rows: Iterable[Mapping[str, Any]]) -> Relation:
        """Build a relation from an iterable of attribute-name → value mappings."""
        return cls(schema, rows)
