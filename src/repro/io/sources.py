"""Pluggable row sources feeding the cleaning pipeline.

A :class:`RowSource` is the single ingestion abstraction of the pipeline: it
exposes a :class:`~repro.relation.schema.Schema` and an iterator of
positional rows, so the same :class:`~repro.pipeline.Cleaner` (and the
streaming detector, :func:`repro.detection.indexed.detect_stream`) can run
over an in-memory relation, a CSV file, a SQLite table, or any row iterable
without the caller hand-rolling ingestion — previously each entry point (the
CLI's CSV loader, ``detect_stream``'s raw ``(schema, rows)`` pair,
``Relation.from_csv``) did its own.

Adapters:

* :class:`RelationSource` — an in-memory :class:`~repro.relation.relation.Relation`;
* :class:`CSVSource` — a CSV path with a header row (string-typed schema
  inferred from the header unless one is given), streamed row by row;
* :class:`SQLiteSource` — a table in a SQLite database file or connection;
* :class:`IterableSource` — any iterable of positional tuples or
  attribute-name mappings, with an explicit schema.

:func:`as_source` coerces the common inputs (``Relation``, path, iterable)
so APIs can accept "anything row-shaped".
"""

from __future__ import annotations

import abc
import csv
import sqlite3
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.config import resolve_storage
from repro.errors import ReproError
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation, Row
from repro.relation.schema import Schema


def _relation_class(storage: Optional[str]) -> type:
    """The relation class for a storage name (``None`` keeps the row default).

    Validation is the config layer's (:data:`repro.config.STORAGES`), so an
    unknown name fails with the same :class:`~repro.errors.ConfigError`
    everywhere a storage is named.
    """
    storage = resolve_storage(storage)
    if storage == "columnar":
        return ColumnStore
    if storage == "mmap":
        return MmapColumnStore
    return Relation


class RowSource(abc.ABC):
    """One pass over a row collection, with a known schema."""

    @property
    @abc.abstractmethod
    def schema(self) -> Schema:
        """The schema the rows conform to."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[Row]:
        """Yield rows as positional tuples in schema attribute order."""

    def to_relation(
        self,
        storage: Optional[str] = None,
        spill_dir: Optional[str] = None,
        chunk_rows: Optional[int] = None,
    ) -> Relation:
        """Materialise the source into a relation.

        ``storage="columnar"`` dictionary-encodes the rows as they stream in
        (:class:`~repro.relation.columnar.ColumnStore`) — encoding at
        ingestion is what lets every later detection and repair pass run
        over integer codes.  ``storage="mmap"`` streams the codes straight
        into memory-mapped spill files
        (:class:`~repro.relation.mmap_store.MmapColumnStore` under
        ``spill_dir``, flushing every ``chunk_rows`` rows) so the full
        relation is never held as Python rows — the out-of-core ingestion
        path.  ``None`` keeps the tuple-list layout.
        """
        if storage == "mmap":
            relation: Relation = MmapColumnStore(
                self.schema, spill_dir=spill_dir, chunk_rows=chunk_rows
            )
        else:
            relation = _relation_class(storage)(self.schema)
        relation.extend(self)
        return relation

    def describe(self) -> str:
        """A short human-readable label for audit trails."""
        return type(self).__name__


class RelationSource(RowSource):
    """An in-memory relation, passed through as-is.

    >>> from repro.datagen.cust import cust_relation
    >>> source = RelationSource(cust_relation())
    >>> len(source.to_relation())
    6
    """

    def __init__(self, relation: Relation) -> None:
        self._relation = relation

    @property
    def schema(self) -> Schema:
        return self._relation.schema

    def __iter__(self) -> Iterator[Row]:
        return iter(self._relation)

    def to_relation(
        self,
        storage: Optional[str] = None,
        spill_dir: Optional[str] = None,
        chunk_rows: Optional[int] = None,
    ) -> Relation:
        # No copy when the storage already matches: the pipeline copies
        # before mutating (repair works on a copy), so handing back the
        # original keeps ingestion free.  An explicit storage request that
        # does not match converts (never mutating the original).
        storage = resolve_storage(storage)
        if storage is None:
            return self._relation
        if storage == "mmap":
            if isinstance(self._relation, MmapColumnStore):
                return self._relation
            return MmapColumnStore.from_relation(
                self._relation, spill_dir=spill_dir, chunk_rows=chunk_rows
            )
        if isinstance(self._relation, ColumnStore):
            return self._relation
        return ColumnStore.from_relation(self._relation)

    def describe(self) -> str:
        return f"relation {self._relation.schema.name!r} ({len(self._relation)} rows)"


class IterableSource(RowSource):
    """Rows from any iterable — positional tuples or attribute mappings.

    The iterable is consumed lazily and only once; build a fresh source (or
    materialise with :meth:`to_relation`) to read it again.
    """

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Union[Row, Sequence[Any], Mapping[str, Any]]],
    ) -> None:
        self._schema = schema
        self._rows = rows

    @property
    def schema(self) -> Schema:
        return self._schema

    def __iter__(self) -> Iterator[Row]:
        names = self._schema.names
        for row in self._rows:
            if isinstance(row, Mapping):
                yield tuple(row[name] for name in names)
            else:
                yield tuple(row)

    def describe(self) -> str:
        return f"iterable over schema {self._schema.name!r}"


class CSVSource(RowSource):
    """A CSV file with a header row, streamed row by row.

    Without an explicit ``schema``, every column is a string attribute named
    by the header (the CLI's historical behaviour); with one, cells are
    parsed through the schema's attribute types the way
    :meth:`Relation.from_csv` does.
    """

    def __init__(
        self,
        path: Union[str, Path],
        schema: Optional[Schema] = None,
        relation_name: Optional[str] = None,
    ) -> None:
        self._path = Path(path)
        self._explicit_schema = schema
        self._relation_name = relation_name
        self._schema: Optional[Schema] = schema

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            with open(self._path, newline="", encoding="utf-8") as handle:
                header = next(csv.reader(handle), None)
            if not header:
                raise ReproError(f"{self._path}: CSV file is empty or has no header row")
            self._schema = Schema(self._relation_name or self._path.stem, header)
        return self._schema

    def __iter__(self) -> Iterator[Row]:
        schema = self.schema
        parse = self._explicit_schema is not None
        with open(self._path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header:
                raise ReproError(f"{self._path}: CSV file is empty or has no header row")
            if tuple(header) != schema.names:
                raise ReproError(
                    f"{self._path}: CSV header {tuple(header)} does not match "
                    f"schema attributes {schema.names}"
                )
            for line_number, row in enumerate(reader, start=2):
                if len(row) != len(schema):
                    raise ReproError(
                        f"{self._path}: row {line_number} has {len(row)} fields, "
                        f"expected {len(schema)}"
                    )
                if parse:
                    yield tuple(
                        attribute.parse(cell)
                        for attribute, cell in zip(schema.attributes, row)
                    )
                else:
                    yield tuple(row)

    def describe(self) -> str:
        return f"csv {self._path}"


class SQLiteSource(RowSource):
    """A table in a SQLite database (path or open connection).

    The schema is read from ``PRAGMA table_info`` (string-typed attributes
    named by the columns) unless one is given; rows stream through a server
    cursor, so the table is never materialised twice.
    """

    def __init__(
        self,
        database: Union[str, Path, sqlite3.Connection],
        table: str,
        schema: Optional[Schema] = None,
    ) -> None:
        if not table.replace("_", "").isalnum():
            raise ReproError(f"unsafe SQLite table name {table!r}")
        self._database = database
        self._table = table
        self._schema = schema

    def _connect(self) -> sqlite3.Connection:
        if isinstance(self._database, sqlite3.Connection):
            return self._database
        return sqlite3.connect(str(self._database))

    def _close(self, connection: sqlite3.Connection) -> None:
        if not isinstance(self._database, sqlite3.Connection):
            connection.close()

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            connection = self._connect()
            try:
                columns = [
                    row[1]
                    for row in connection.execute(f'PRAGMA table_info("{self._table}")')
                ]
            finally:
                self._close(connection)
            if not columns:
                raise ReproError(f"SQLite table {self._table!r} does not exist or has no columns")
            self._schema = Schema(self._table, columns)
        return self._schema

    def __iter__(self) -> Iterator[Row]:
        schema = self.schema
        quoted = ", ".join(f'"{name}"' for name in schema.names)
        connection = self._connect()
        try:
            for row in connection.execute(f'SELECT {quoted} FROM "{self._table}"'):
                yield tuple(row)
        finally:
            self._close(connection)

    def describe(self) -> str:
        database = (
            "<connection>"
            if isinstance(self._database, sqlite3.Connection)
            else str(self._database)
        )
        return f"sqlite {database}:{self._table}"


def as_source(
    data: Union[RowSource, Relation, str, Path, Iterable],
    schema: Optional[Schema] = None,
) -> RowSource:
    """Coerce ``data`` into a :class:`RowSource`.

    * a ``RowSource`` passes through unchanged;
    * a ``Relation`` becomes a :class:`RelationSource`;
    * a ``str``/``Path`` becomes a :class:`CSVSource` (optionally typed by
      ``schema``);
    * any other iterable becomes an :class:`IterableSource` — ``schema`` is
      required then.
    """
    if isinstance(data, RowSource):
        return data
    if isinstance(data, Relation):
        return RelationSource(data)
    if isinstance(data, (str, Path)):
        return CSVSource(data, schema=schema)
    if isinstance(data, Iterable):
        if schema is None:
            raise ReproError(
                "a schema is required to read rows from a plain iterable; "
                "pass as_source(rows, schema=...)"
            )
        return IterableSource(schema, data)
    raise ReproError(f"cannot build a RowSource from {type(data).__name__}")
