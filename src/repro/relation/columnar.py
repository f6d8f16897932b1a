"""Dictionary-encoded columnar storage behind the :class:`Relation` API.

Every engine in the repo ultimately asks equality questions — *which tuples
agree on these attributes?* (the heart of the paper's ``Q^C``/``Q^V``
violation queries) — and with row storage each pass pays Python-object
hashing per cell.  A :class:`ColumnStore` holds the relation column-wise and
dictionary-encodes each attribute at most once:

* per attribute, a **dictionary** maps each distinct value to a dense
  integer *code* (``value → code``) and back (``code → value``);
* the attribute's cells become one **code column** — an ``array('i')`` of
  small ints, not a slice of value tuples.

Work is **lazy per column**.  The store keeps the ingested rows as one
*pending* block, and a column is dictionary-encoded only when something asks
for its codes — which in practice means exactly the attributes some CFD
groups or checks on.  Every other column is read from the pending block.  A
near-unique free-text column that no constraint mentions is never encoded;
it would cost a dictionary as large as the column and buy nothing.  Encoding
changes no observable content, so it does not bump the mutation
:attr:`~Relation.version`.

Two properties make the encoding invisible to everything above it:

1. **Bijection per attribute** — two cells hold equal values *iff* they hold
   equal codes, so grouping, distinct-counting and equality filtering can run
   entirely over codes (int hashing, or no hashing at all for single-column
   grouping) and still produce byte-identical answers.
2. **Code stability** — a code, once assigned, always decodes to the same
   value.  Updates swap one cell's code (appending a dictionary entry when
   the value is new); they never renumber.  Dictionary entries orphaned by
   updates or deletes are left in place rather than compacted — stale entries
   cost a little memory, renumbering would invalidate every live code.

The class subclasses :class:`Relation` and overrides every accessor and
mutator, so all existing call sites keep working; the hot layers
(:mod:`repro.detection.partition_index`, :mod:`repro.repair.incremental`,
:mod:`repro.parallel.sharding`) detect the columnar storage and consume the
fast-path protocol — :meth:`codes`, :meth:`project_codes`, :meth:`encode`,
:meth:`decode` — directly.  ``docs/columnar.md``
covers the encoding model, the invariants above, and when the row backend
still wins.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import count, filterfalse, repeat
from operator import itemgetter
from typing import (
    Any,
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
from repro.kernels import active_kernel
from repro.relation.relation import INGEST_BLOCK_ROWS, Relation, Row, project_tuples
from repro.relation.schema import Schema


class ColumnStore(Relation):
    """A relation stored as lazily dictionary-encoded columns.

    Drop-in replacement for :class:`Relation` (same constructor, same
    methods, equality across storage classes compares decoded rows), plus
    the code-level protocol the hot layers use.

    Each column is in one of two states, promoted on demand and never
    demoted: *pending* (read from the ingested row block) or *encoded* (code
    array + dictionary).  The row block is ``None`` only when every column
    is encoded.  A cell written to an encoded column leaves its stale copy
    in the row block; reads of that column come from its codes, so the
    staleness is unobservable.

    >>> from repro.relation.schema import Schema
    >>> store = ColumnStore(Schema("r", ["A", "B"]), [("x", 1), ("y", 2), ("x", 2)])
    >>> store[2]
    ('x', 2)
    >>> list(store.codes("A"))
    [0, 1, 0]
    >>> store.decode("A", 1)
    'y'
    >>> store == Relation(Schema("r", ["A", "B"]), [("x", 1), ("y", 2), ("x", 2)])
    True
    """

    __slots__ = ("_pending", "_codes", "_values", "_value_maps", "_length")

    def __init__(
        self,
        schema: Schema,
        rows: Optional[Iterable[Union[Row, Mapping[str, Any]]]] = None,
    ) -> None:
        self._schema = schema
        self._version = 0
        width = len(schema)
        #: The ingested rows, current in every column not encoded; ``None``
        #: only when every column is encoded.
        self._pending: Optional[List[Row]] = []
        self._codes: List[Optional[array]] = [None] * width
        self._values: List[List[Any]] = [[] for _ in range(width)]
        self._value_maps: List[Dict[Any, int]] = [{} for _ in range(width)]
        self._length = 0
        if rows is not None:
            self.extend(rows)

    # ------------------------------------------------------------------ lazy encoding
    def _ensure_encoded(self, position: int) -> array:
        """The code column at ``position``, encoding it on first demand.

        Encoding never changes observable content, so the mutation version
        is untouched.
        """
        codes = self._codes[position]
        if codes is not None:
            return codes
        raw = list(map(itemgetter(position), self._pending))
        # A column's dictionary starts empty, so one pass both assigns codes
        # in first-occurrence order and maps every cell: a missing value gets
        # the next code from the defaultdict's factory.
        interner: Dict[Any, int] = defaultdict(count().__next__)
        intern = interner.__getitem__
        codes = array("i")
        for start in range(0, len(raw), INGEST_BLOCK_ROWS):
            codes.fromlist(list(map(intern, raw[start : start + INGEST_BLOCK_ROWS])))
        self._value_maps[position] = dict(interner)
        self._values[position] = list(interner)
        self._codes[position] = codes
        return codes

    def is_encoded(self, attribute: str) -> bool:
        """Whether ``attribute``'s column has been dictionary-encoded yet."""
        return self._codes[self._schema.position(attribute)] is not None

    def _intern(self, position: int, value: Any) -> int:
        """The code of ``value`` in an *encoded* column, assigning one if new."""
        code = self._value_maps[position].get(value, -1)
        if code < 0:
            values = self._values[position]
            code = len(values)
            self._value_maps[position][value] = code
            values.append(value)
        return code

    def _column_values(self, position: int) -> Sequence[Any]:
        """The column at ``position`` as values (no copy where avoidable)."""
        codes = self._codes[position]
        if codes is not None:
            # Decode block by block through ``tolist()``: iterating a
            # memory-mapped column yields one numpy scalar per cell, each
            # converted anew by the list index.
            decode = self._values[position].__getitem__
            values: List[Any] = []
            for start in range(0, len(codes), INGEST_BLOCK_ROWS):
                block = codes[start : start + INGEST_BLOCK_ROWS]
                values.extend(map(decode, block.tolist()))
            return values
        return list(map(itemgetter(position), self._pending))

    # ------------------------------------------------------------------ basics
    @property
    def rows(self) -> Tuple[Row, ...]:
        """A decoded snapshot of all rows as positional tuples."""
        return tuple(self)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return self.project_rows(self._schema.names)

    def __getitem__(self, index: int) -> Row:
        pending = self._pending
        columns = zip(self._codes, self._values)
        return tuple(
            pending[index][position] if codes is None else values[codes[index]]
            for position, (codes, values) in enumerate(columns)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._schema != other.schema or self._length != len(other):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        encoded = sum(1 for codes in self._codes if codes is not None)
        entries = sum(len(values) for values in self._values)
        return (
            f"ColumnStore({self._schema.name!r}, {self._length} rows, "
            f"{encoded}/{len(self._schema)} columns encoded, "
            f"{entries} dictionary entries)"
        )

    # ------------------------------------------------------------------ mutation
    def update(self, index: int, attribute: str, value: Any) -> None:
        """Set ``attribute`` of the row at ``index`` to ``value`` (a code swap)."""
        position = self._schema.position(attribute)
        self._schema[attribute].check(value)
        codes = self._codes[position]
        if codes is None:
            # Replace the row's tuple.  Encoding the column instead would
            # change is_encoded and collapse equal values such as 1 and 1.0.
            row = self._pending[index]  # IndexError on a bad index
            self._pending[index] = (*row[:position], value, *row[position + 1 :])
        else:
            # Probe the array bound first: an out-of-range index must fail
            # the way the row backend does, before a dictionary entry is
            # created for a value that never lands.
            codes[index]
            codes[index] = self._intern(position, value)
        self._version += 1

    def delete(self, index: int) -> Row:
        """Remove and return the row at ``index``.

        As on :class:`Relation`, this invalidates any live index built over
        the relation; the version bump turns their next read into a
        :class:`~repro.errors.DetectionError`.  Dictionary entries that lose
        their last reference are kept (code stability beats compaction).
        """
        row = self[index]
        if self._pending is not None:
            self._pending.pop(index)
        for codes in self._codes:
            if codes is not None:
                codes.pop(index)
        self._length -= 1
        self._version += 1
        return row

    def _extend_validated(self, block: List[Row]) -> None:
        """Store a validated block: interned into the encoded columns first,
        so a cell that cannot be interned fails the whole block, then
        appended to the pending rows."""
        self._intern_columns(
            [
                (position, list(map(itemgetter(position), block)), codes)
                for position, codes in enumerate(self._codes)
                if codes is not None
            ]
        )
        if self._pending is not None:
            self._pending.extend(block)
        self._length += len(block)

    def _intern_columns(self, jobs: List[Tuple[int, Sequence[Any], array]]) -> None:
        """Append the codes of each ``(position, column, out)`` job to ``out``.

        All or nothing: ``dict.fromkeys`` hashes every cell of every column
        first, so an unhashable cell raises before any dictionary or ``out``
        changes.  Then, in C-level passes, the values a dictionary lacks get
        the next codes in first-occurrence order, as per-cell interning
        would assign them.
        """
        fresh = [
            list(filterfalse(self._value_maps[p].__contains__, dict.fromkeys(column)))
            for p, column, _ in jobs
        ]
        for (position, column, out), new in zip(jobs, fresh):
            value_map = self._value_maps[position]
            value_map.update(zip(new, count(len(self._values[position]))))
            self._values[position].extend(new)
            # fromlist over block-sized lists: growing ``out`` item by item
            # from an iterator costs more peak RSS, and a whole column must
            # not become one transient list.
            for start in range(0, len(column), INGEST_BLOCK_ROWS):
                block = column[start : start + INGEST_BLOCK_ROWS]
                out.fromlist(list(map(value_map.__getitem__, block)))

    # ------------------------------------------------------------------ access
    def value(self, index: int, attribute: str) -> Any:
        """The value of ``attribute`` in the row at ``index``."""
        position = self._schema.position(attribute)
        codes = self._codes[position]
        if codes is not None:
            return self._values[position][codes[index]]
        return self._pending[index][position]

    def row_dict(self, index: int) -> Dict[str, Any]:
        """The row at ``index`` as an attribute-name → value mapping."""
        return dict(zip(self._schema.names, self[index]))

    def project_row(self, index: int, attributes: Sequence[str]) -> Row:
        """Project the row at ``index`` onto ``attributes`` (positional result)."""
        return tuple(self.value(index, attribute) for attribute in attributes)

    def project_rows(self, attributes: Sequence[str]) -> Iterator[Row]:
        """Every row projected onto ``attributes``, in row order.

        When no requested column is encoded they are read row-wise from the
        pending block; otherwise each requested column is read whole (no
        column is encoded by reading) and the columns are zipped.
        """
        positions = self._schema.positions(attributes)
        pending = self._pending
        if pending is not None and all(
            self._codes[position] is None for position in positions
        ):
            if positions == tuple(range(len(self._schema))):
                # The pending block *is* the rows.
                return iter(pending)
            return project_tuples(pending, positions, self._length)
        if not positions:
            return repeat((), self._length)
        return zip(*(self._column_values(position) for position in positions))

    # ------------------------------------------------------------------ the code protocol
    def codes(self, attribute: str) -> array:
        """The live code column of ``attribute`` (treat as read-only).

        Encodes the column on first demand.  Aligned with tuple indices:
        ``codes(A)[i]`` is the code of tuple ``i``'s ``A`` cell.  The array
        object is stable across updates (cells are swapped in place), so hot
        loops may hold it across a detection pass; inserts and deletes resize
        it, which the version counter turns into a loud consumer-side error.
        """
        return self._ensure_encoded(self._schema.position(attribute))

    def project_codes(self, attributes: Sequence[str]) -> Tuple[array, ...]:
        """The code columns of ``attributes``, aligned with the given order."""
        return tuple(self.codes(attribute) for attribute in attributes)

    def encode(self, attribute: str, value: Any) -> Optional[int]:
        """The code of ``value`` in ``attribute``'s dictionary, or ``None``.

        ``None`` means the value occurs nowhere in the column's history — a
        constant pattern looking for it can only match nothing.
        """
        position = self._schema.position(attribute)
        self._ensure_encoded(position)
        return self._value_maps[position].get(value)

    def decode(self, attribute: str, code: int) -> Any:
        """The value a code stands for in ``attribute``'s dictionary."""
        return self._values[self._schema.position(attribute)][code]

    def dictionary(self, attribute: str) -> Tuple[Any, ...]:
        """The dictionary of ``attribute``: position ``c`` decodes code ``c``.

        May contain entries no live cell references (see the module notes on
        code stability); :meth:`active_domain` reports occurring values only.
        """
        position = self._schema.position(attribute)
        self._ensure_encoded(position)
        return tuple(self._values[position])

    def dictionary_size(self, attribute: str) -> int:
        """Number of dictionary entries (assigned codes) of ``attribute``."""
        position = self._schema.position(attribute)
        self._ensure_encoded(position)
        return len(self._values[position])

    def dictionary_version(self, attribute: str) -> int:
        """A counter that changes exactly when ``attribute``'s dictionary grows.

        Dictionaries are append-only (codes are never renumbered), so the
        entry count *is* a version: any cached artifact derived from the
        dictionary — an encoded constant, a code-pair distance memo — stays
        valid while this number stands still, and existing entries stay
        valid even across growth.  The repair layer keys its per-evaluation
        caches on this instead of re-encoding every call.
        """
        return self.dictionary_size(attribute)

    def group_indices(
        self, attributes: Sequence[str]
    ) -> Iterator[Tuple[Row, List[int]]]:
        """Group the row indices by their projection onto ``attributes``.

        The grouping pass runs entirely over codes — delegated to the active
        kernel (:func:`repro.kernels.active_kernel`) — and each group key is
        decoded to values exactly once at the end, so the yielded
        ``(value_key, indices)`` pairs are indistinguishable from
        :meth:`Relation.group_by` output: same keys, same members in
        ascending row order, same first-occurrence iteration order.  This is
        the pass behind :meth:`group_by`.
        """
        positions = self._schema.positions(attributes)
        if not positions:
            # A pattern whose LHS is all don't-care groups every tuple
            # together (the row backend's key is () for every row).
            if self._length:
                yield (), list(range(self._length))
            return
        columns = [self._ensure_encoded(position) for position in positions]
        value_lists = [self._values[position] for position in positions]
        sizes = [len(values) for values in value_lists]
        kernel = active_kernel()
        for key_codes, members in kernel.group_codes(
            columns, 0, self._length, sizes=sizes
        ):
            yield (
                tuple(values[code] for values, code in zip(value_lists, key_codes)),
                members,
            )

    # ------------------------------------------------------------------ algebra
    def project(self, attributes: Sequence[str], distinct: bool = False) -> ColumnStore:
        """Project onto ``attributes``; optionally de-duplicate the result."""
        projected_schema = self._schema.project(attributes)
        positions = self._schema.positions(attributes)
        result = ColumnStore(projected_schema)
        result._pending = None
        keep: Optional[List[int]] = None
        if distinct:
            # Distinct over code tuples is distinct over value tuples
            # (bijection), keeping first occurrences in row order like the
            # row backend.  Every projected column is encoded by then.
            seen = set()
            keep = []
            key_columns = [self._ensure_encoded(position) for position in positions]
            for index, key in enumerate(zip(*key_columns)):
                if key in seen:
                    continue
                seen.add(key)
                keep.append(index)
        elif self._pending is not None:
            result._pending = list(
                project_tuples(self._pending, positions, self._length)
            )
        for target, position in enumerate(positions):
            if self._codes[position] is not None:
                self._copy_column(position, result, target, keep)
        result._length = self._length if keep is None else len(keep)
        return result

    def group_by(self, attributes: Sequence[str]) -> Dict[Row, List[int]]:
        """Group row indices by their projection onto ``attributes``."""
        return dict(self.group_indices(attributes))

    def _copy_column(
        self,
        position: int,
        target_store: ColumnStore,
        target_position: int,
        indices: Optional[Sequence[int]],
    ) -> None:
        """Copy one encoded column into ``target_store``.

        ``indices`` of ``None`` copies the column whole; otherwise the listed
        rows are gathered in order.  The column travels as a code array plus
        a copy of its dictionary (codes stay valid even when the subset
        references only part of the dictionary).
        """
        codes = self._codes[position]
        target_store._codes[target_position] = (
            codes[:]
            if indices is None
            else array("i", (codes[index] for index in indices))
        )
        target_store._values[target_position] = list(self._values[position])
        target_store._value_maps[target_position] = dict(self._value_maps[position])

    def copy(self) -> ColumnStore:
        """An independent copy sharing no mutable state.

        Column states are preserved: copying must not encode a column the
        original never needed encoded.
        """
        return self._gather(None)

    def take(self, indices: Sequence[int]) -> ColumnStore:
        """The rows at ``indices``, in that order, as a new column store.

        Encoded columns are gathered code-wise with their dictionaries copied
        as-is, so a shard of an encoded relation ships to a worker process as
        small int arrays plus one dictionary per attribute — not as
        re-materialised value tuples.  The pending rows are gathered in one
        row pass, and the columns read from them stay pending in the result.
        """
        return self._gather(list(indices))

    def _gather(self, indices: Optional[List[int]]) -> ColumnStore:
        """A new store with all rows (``None``) or the rows at ``indices``,
        every column keeping its current state."""
        clone = ColumnStore(self._schema)
        pending = self._pending
        clone._pending = None
        if pending is not None:
            clone._pending = (
                list(pending)
                if indices is None
                else [pending[index] for index in indices]
            )
        for position, codes in enumerate(self._codes):
            if codes is not None:
                self._copy_column(position, clone, position, indices)
        clone._length = self._length if indices is None else len(indices)
        return clone

    @classmethod
    def from_validated_rows(cls, schema: Schema, rows: Iterable[Row]) -> ColumnStore:
        """Adopt positional rows already validated for ``schema``.

        Adoption is O(1) per row (the block is kept pending); each column is
        split out and dictionary-encoded only when something asks for it.
        That is what makes "encode at ingestion" affordable even for wide
        relations: the per-cell dictionary cost is paid only for the
        attributes the workload actually groups or checks on.
        """
        store = cls(schema)
        materialised = list(rows)
        if materialised and len(materialised[0]) != len(schema):
            raise SchemaError(
                f"validated rows have {len(materialised[0])} values but schema "
                f"{schema.name!r} has {len(schema)} attributes"
            )
        store._extend_validated(materialised)
        return store

    @classmethod
    def from_relation(cls, relation: Relation) -> ColumnStore:
        """Columnar view of an existing relation (rows trusted, no re-coercion)."""
        if isinstance(relation, ColumnStore):
            return relation.copy()
        return cls.from_validated_rows(relation.schema, relation)

    def active_domain(self, attribute: str) -> Tuple[Any, ...]:
        """Distinct values of ``attribute`` occurring in the relation, sorted."""
        position = self._schema.position(attribute)
        codes = self._codes[position]
        if codes is not None:
            values = self._values[position]
            occurring = {values[code] for code in set(codes)}
        else:
            occurring = set(self._column_values(position))
        try:
            return tuple(sorted(occurring))
        except TypeError:
            return tuple(sorted(occurring, key=repr))
