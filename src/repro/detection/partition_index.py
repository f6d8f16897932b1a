"""Partition indexes: one grouping pass shared by every CFD over the same LHS.

The in-memory oracle (:mod:`repro.core.satisfaction`) re-scans the whole
relation once per pattern tuple, so a CFD with a 1K-row tableau costs 1K
passes.  But every pattern of a CFD — and every CFD sharing the same
``@``-free LHS attribute set — asks the same structural question: *which
tuples agree on these attributes?*  A :class:`PartitionIndex` answers it once:
it groups tuple indices by their projection onto a fixed attribute tuple in a
single pass, after which

* a **constant-pattern lookup** (all LHS cells constant) is a dictionary
  ``get`` — ``O(1)``;
* a **mixed pattern** (constants plus wildcards) filters partition *keys*
  rather than tuples — ``O(#partitions)`` instead of ``O(#tuples)``;
* a **variable-CFD check** inspects each candidate partition's distinct RHS
  projections — ``O(partition size)`` per partition, linear overall.

:class:`PartitionIndexCache` keeps the most recently used indexes (LRU) so a
batch of CFDs sharing LHS attribute sets builds each partition map exactly
once.  Grouping always runs over the dictionary codes of a
:class:`~repro.relation.columnar.ColumnStore` (a plain relation is encoded
once on entry), and ingestion is chunked (:meth:`PartitionIndex.add_encoded`),
so an index can be grown batch-by-batch while streaming a relation that is
never fully materialised (see :func:`repro.detection.indexed.detect_stream`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.pattern import PatternValue
from repro.errors import DetectionError
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation, Row
from repro.relation.schema import Schema

#: Default batch size for chunked ingestion.
DEFAULT_CHUNK_SIZE = 8_192


class PartitionIndex:
    """Tuple indices grouped by their projection onto a fixed attribute tuple.

    The grouping key of a tuple is its projection onto ``attributes`` (in the
    given order).  Within each partition, indices are kept in ingestion order,
    which for a relation fed front-to-back is ascending tuple-index order —
    the same order the in-memory oracle reports.  Keys are value tuples,
    decoded once per partition from the codes the grouping runs over.

    >>> from repro.relation.schema import Schema
    >>> from repro.relation.relation import Relation
    >>> rel = Relation(Schema("r", ["A", "B"]), [(1, "x"), (2, "y"), (1, "z")])
    >>> index = PartitionIndex.from_relation(rel, ("A",))
    >>> index.get((1,))
    (0, 2)
    >>> len(index)
    2
    """

    __slots__ = ("_attributes", "_positions", "_groups", "_next_index", "_tuple_count")

    def __init__(self, schema: Schema, attributes: Sequence[str]) -> None:
        self._attributes: Tuple[str, ...] = tuple(attributes)
        self._positions: Tuple[int, ...] = schema.positions(self._attributes)
        self._groups: Dict[Row, List[int]] = {}
        self._next_index = 0
        self._tuple_count = 0

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_relation(cls, relation: Relation, attributes: Sequence[str]) -> PartitionIndex:
        """Build an index over ``relation`` in one pass.

        The grouping runs over integer codes through :meth:`add_encoded`; a
        relation that is not a :class:`~repro.relation.columnar.ColumnStore`
        is encoded first.  Batch-by-batch construction (for sources not
        materialised as a :class:`Relation`) calls :meth:`add_encoded`
        directly, as :func:`repro.detection.indexed.detect_stream` does.
        """
        index = cls(relation.schema, attributes)
        index.add_encoded(_encoded(relation))
        return index

    def add_encoded(
        self, store: ColumnStore, start: Optional[int] = None, stop: Optional[int] = None
    ) -> int:
        """Ingest rows ``[start, stop)`` of an encoded store; return the next free index.

        The grouping pass runs over dictionary codes
        (:meth:`ColumnStore.group_indices`) and each partition key is decoded
        to values once per *partition*, not once per row — same keys, same
        members and same first-occurrence order as grouping the values
        directly, without hashing a value tuple per tuple.  Batches must be
        contiguous with what was already ingested.
        """
        start = self._next_index if start is None else start
        if start != self._next_index:
            raise DetectionError(
                f"encoded batch starts at {start} but the next free index is "
                f"{self._next_index}; batches must be contiguous"
            )
        stop = len(store) if stop is None else stop
        groups = self._groups
        for key, indices in store.group_indices(self._attributes, start, stop):
            existing = groups.get(key)
            if existing is None:
                groups[key] = indices
            else:
                existing.extend(indices)
        self._tuple_count += max(0, stop - start)
        self._next_index = stop
        return stop

    def reindex_tuple(self, tuple_index: int, old_row: Row, new_row: Row) -> bool:
        """Move one tuple between partitions after a cell change (in place).

        ``old_row`` is the tuple's full positional row *before* the change and
        ``new_row`` the row after it.  When the change does not touch this
        index's attributes the call is a no-op (returns ``False``); otherwise
        the tuple's index is removed from its old equivalence class (dropping
        the class when it empties) and inserted into the new one, keeping each
        class sorted in ascending tuple-index order — the order ingestion
        produces and detection reports.  This is the hook that lets the repair
        engine maintain indexes across cell modifications instead of
        rebuilding them (:mod:`repro.repair.incremental`).
        """
        positions = self._positions
        old_key = tuple(old_row[position] for position in positions)
        new_key = tuple(new_row[position] for position in positions)
        if old_key == new_key:
            return False
        group = self._groups.get(old_key)
        slot = bisect_left(group, tuple_index) if group is not None else 0
        if group is None or slot >= len(group) or group[slot] != tuple_index:
            raise DetectionError(
                f"tuple {tuple_index} is not in the partition of {old_key!r}; "
                "reindex_tuple must be given the row exactly as it was ingested"
            )
        group.pop(slot)
        if not group:
            del self._groups[old_key]
        target = self._groups.get(new_key)
        if target is None:
            self._groups[new_key] = [tuple_index]
        else:
            insort(target, tuple_index)
        return True

    # ------------------------------------------------------------------ basics
    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attribute tuple this index partitions by."""
        return self._attributes

    @property
    def tuple_count(self) -> int:
        """How many tuples have been ingested."""
        return self._tuple_count

    def __len__(self) -> int:
        """The number of distinct partitions."""
        return len(self._groups)

    def __contains__(self, key: object) -> bool:
        return key in self._groups

    def get(self, key: Sequence[Any]) -> Tuple[int, ...]:
        """The indices in the partition of ``key`` (empty tuple when absent)."""
        group = self._groups.get(tuple(key))
        return tuple(group) if group is not None else ()

    def partitions(self) -> Iterator[Tuple[Row, List[int]]]:
        """Iterate over ``(key, indices)`` pairs in first-occurrence order.

        The yielded lists are the index's internal groups (copying every
        group would cost a full pass per query, defeating the index); treat
        them as read-only — mutating one corrupts the partition map.
        """
        return iter(self._groups.items())

    def keys(self) -> Iterator[Row]:
        return iter(self._groups)

    # ------------------------------------------------------------------ queries
    def matching(self, cells: Sequence[PatternValue]) -> Iterator[Tuple[Row, List[int]]]:
        """Partitions whose key matches the pattern ``cells``.

        ``cells`` is aligned with :attr:`attributes`; constants pin their
        position, wildcard / don't-care cells leave it free.  When every cell
        is a constant this is a single dictionary lookup; otherwise the scan
        touches partition keys, never tuples.  As with :meth:`partitions`,
        the yielded index lists are internal read-only views.
        """
        if len(cells) != len(self._attributes):
            raise DetectionError(
                f"pattern has {len(cells)} cells but index partitions by "
                f"{len(self._attributes)} attributes {self._attributes}"
            )
        if all(cell.is_constant for cell in cells):
            key = tuple(cell.value for cell in cells)
            group = self._groups.get(key)
            if group is not None:
                yield key, group
            return
        constants = [
            (position, cell.value)
            for position, cell in enumerate(cells)
            if cell.is_constant
        ]
        if not constants:
            yield from self._groups.items()
            return
        for key, group in self._groups.items():
            if all(key[position] == value for position, value in constants):
                yield key, group

    def multi_tuple_partitions(self) -> Iterator[Tuple[Row, List[int]]]:
        """Partitions holding at least two tuples — the variable-CFD candidates."""
        for key, group in self._groups.items():
            if len(group) > 1:
                yield key, group

    def __repr__(self) -> str:
        return (
            f"PartitionIndex({list(self._attributes)}, "
            f"{len(self._groups)} partitions over {self._tuple_count} tuples)"
        )


class PartitionIndexCache:
    """An LRU cache of :class:`PartitionIndex` objects for one relation.

    Detection over a CFD batch requests one index per distinct ``@``-free LHS
    attribute tuple; the cache builds each on first use and serves repeats —
    including across separate :meth:`~repro.detection.indexed.IndexedDetector.detect`
    calls — from memory.  The cache assumes the relation does not change while
    it is alive; after mutating the relation either call :meth:`clear` (drop
    everything) or :meth:`apply_update` (delta-maintain the cached indexes in
    place, the repair engine's path).

    Indexes are built over :attr:`store`: the relation itself when it is a
    :class:`~repro.relation.columnar.ColumnStore`, else an encoded copy made
    once here (and again by :meth:`clear`).
    """

    def __init__(self, relation: Relation, maxsize: int = 32) -> None:
        if maxsize <= 0:
            raise DetectionError(f"cache maxsize must be positive, got {maxsize}")
        self._relation = relation
        self._store = _encoded(relation)
        self._maxsize = maxsize
        self._indexes: "OrderedDict[Tuple[str, ...], PartitionIndex]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._expected_version = relation.version

    def _check_synchronized(self) -> None:
        """Raise when the relation mutated outside :meth:`apply_update`.

        Inserts and deletes shift or extend the tuple-index space, and raw
        updates move tuples between equivalence classes behind the cached
        indexes' backs; serving a read afterwards would silently return wrong
        answers.  The relation's version counter makes that a loud error.
        """
        if self._relation.version != self._expected_version:
            raise DetectionError(
                "the relation was mutated while partition indexes were live "
                f"(version {self._relation.version}, indexes built at "
                f"{self._expected_version}); route cell updates through "
                "apply_update, or call clear() to rebuild from scratch"
            )

    # ------------------------------------------------------------------ access
    def get(self, attributes: Sequence[str]) -> PartitionIndex:
        """The index over ``attributes``, building (and caching) it on a miss.

        Raises :class:`~repro.errors.DetectionError` when the relation was
        mutated since the cache last synchronised with it (see
        :meth:`apply_update` / :meth:`clear`).
        """
        self._check_synchronized()
        key = tuple(attributes)
        index = self._indexes.get(key)
        if index is not None:
            self._hits += 1
            self._indexes.move_to_end(key)
            return index
        self._misses += 1
        index = PartitionIndex.from_relation(self._store, key)
        self.seed(index)
        return index

    def peek(self, attributes: Sequence[str]) -> Optional[PartitionIndex]:
        """The cached index over ``attributes``, or ``None`` — never builds.

        For callers that have a cheaper strategy than grouping (the fused
        kernel scan of a pure wildcard pattern): an index that already
        exists beats regrouping, but its absence should not force
        construction.  Counts as a hit only when an index is served.
        """
        self._check_synchronized()
        key = tuple(attributes)
        index = self._indexes.get(key)
        if index is not None:
            self._hits += 1
            self._indexes.move_to_end(key)
        return index

    def seed(self, index: PartitionIndex) -> None:
        """Insert a pre-built index (used by the streaming ingestion path).

        The index must cover the cache's relation in full: a partial or
        foreign index would serve tuple indices that do not line up with
        the relation later passed to detection.
        """
        self._check_synchronized()
        if index.tuple_count != len(self._relation):
            raise DetectionError(
                f"cannot seed an index covering {index.tuple_count} tuples into a "
                f"cache for a {len(self._relation)}-tuple relation"
            )
        self._indexes[index.attributes] = index
        self._indexes.move_to_end(index.attributes)
        while len(self._indexes) > self._maxsize:
            self._indexes.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached index (required after mutating the relation)."""
        self._indexes.clear()
        if self._store is not self._relation:
            self._store = _encoded(self._relation)
        self._expected_version = self._relation.version

    def apply_update(self, tuple_index: int, attribute: str, old_row: Row) -> int:
        """Delta-maintain the cached indexes after one cell of the relation changed.

        Call *after* ``relation.update(tuple_index, attribute, ...)``, passing
        the row as it was *before* the change.  Only the indexes whose
        attribute tuple mentions ``attribute`` are touched (the others cannot
        be affected by the change); each moves the tuple between its
        equivalence classes via :meth:`PartitionIndex.reindex_tuple` instead
        of being rebuilt — on a :class:`~repro.relation.columnar.ColumnStore`
        the cell change itself was a single code swap.  Returns the number of
        indexes updated.

        This is the *only* sanctioned mutation path while indexes are live:
        it must follow exactly one ``update`` call (anything else — a second
        update, an insert, a delete — raises instead of maintaining a lie).
        """
        if self._relation.version != self._expected_version + 1:
            raise DetectionError(
                "apply_update must follow exactly one relation.update call "
                f"(relation version {self._relation.version}, cache expected "
                f"{self._expected_version + 1}); for inserts, deletes or "
                "batched updates rebuild via clear()"
            )
        self._expected_version = self._relation.version
        new_row = self._relation[tuple_index]
        if self._store is not self._relation:
            position = self._relation.schema.position(attribute)
            self._store.update(tuple_index, attribute, new_row[position])
        updated = 0
        for attributes, index in self._indexes.items():
            if attribute in attributes:
                index.reindex_tuple(tuple_index, old_row, new_row)
                updated += 1
        return updated

    # ------------------------------------------------------------------ introspection
    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def store(self) -> ColumnStore:
        """The encoded relation the indexes group (the relation itself if encoded)."""
        return self._store

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        return len(self._indexes)

    def __contains__(self, attributes: object) -> bool:
        return attributes in self._indexes

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus the current size, for tests and reporting."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._indexes),
            "maxsize": self._maxsize,
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"PartitionIndexCache({stats['size']}/{stats['maxsize']} indexes, "
            f"{stats['hits']} hits, {stats['misses']} misses)"
        )


def _encoded(relation: Relation) -> ColumnStore:
    if isinstance(relation, ColumnStore):
        return relation
    return ColumnStore.from_relation(relation)


class CodePartitionIndex:
    """An array-backed partition map over a :class:`ColumnStore`'s code columns.

    The repair engine's batched counterpart of :class:`PartitionIndex`: where
    the dict index materialises one python list per equivalence class (10K+
    list allocations on a 50K relation, the dominant cost of building a
    :class:`~repro.repair.incremental.RepairState`), this one keeps the whole
    partition in three arrays — a stable sort order over a fused composite
    code key, per-class start offsets into it, and the per-class composite
    keys.  Members materialise into python lists only for classes that
    actually report a violation, and a repair pass applies its cell changes
    as **one scatter per touched LHS** (:meth:`apply_moves`) instead of a
    bisect per tuple.

    Ordering contract: classes ascending by code-key tuple (the composite is
    built first-attribute-most-significant, so composite order *is* key-tuple
    order), members ascending within each class — exactly the flat form the
    kernels' ``partition_classes``/``evaluate_classes`` primitives speak.

    Only ever constructed when the active kernel advertises
    ``fused_repair_scan`` (numpy is importable then); construction raises
    :class:`~repro.errors.DetectionError` in the astronomical case where the
    composite key cannot fit ``int64``, and the repair state falls back to
    the dict-indexed path.
    """

    #: Dictionary-growth headroom baked into the composite strides: repairs
    #: intern fresh values, and rebuilding the whole index on every new
    #: dictionary entry would defeat the delta path.  Growth beyond the
    #: headroom triggers a full (rare) rebuild in :meth:`apply_moves`.
    HEADROOM = 64

    __slots__ = (
        "_store",
        "_attributes",
        "_np",
        "_views",
        "_capacities",
        "_strides",
        "_comp",
        "_order",
        "_starts",
        "_ends",
        "_group_comps",
    )

    def __init__(self, store: ColumnStore, attributes: Sequence[str]) -> None:
        import numpy

        self._np = numpy
        self._store = store
        self._attributes: Tuple[str, ...] = tuple(attributes)
        self._rebuild()

    # ------------------------------------------------------------------ construction
    def _rebuild(self) -> None:
        """(Re)build the composite keys, sort order and class boundaries."""
        from repro.kernels.numpy_kernels import _as_array

        np = self._np
        store = self._store
        self._views = tuple(_as_array(store.codes(attr)) for attr in self._attributes)
        capacities: List[int] = []
        strides: List[int] = []
        stride = 1
        for attribute in reversed(self._attributes):
            capacity = store.dictionary_size(attribute) + self.HEADROOM
            capacities.append(capacity)
            strides.append(stride)
            if stride > (2**62) // capacity:
                raise DetectionError(
                    "composite partition key over "
                    f"{self._attributes} would overflow int64; use the "
                    "dict-backed PartitionIndex instead"
                )
            stride *= capacity
        self._capacities = tuple(reversed(capacities))
        self._strides = tuple(reversed(strides))
        comp = np.zeros(len(store), dtype=np.int64)
        for view, attr_stride in zip(self._views, self._strides):
            comp += view.astype(np.int64) * attr_stride
        self._comp = comp
        self._order = np.argsort(comp, kind="stable").astype(np.intp, copy=False)
        self._refresh_boundaries()

    def _refresh_boundaries(self) -> None:
        np = self._np
        comp_sorted = self._comp[self._order]
        count = len(comp_sorted)
        if count == 0:
            self._starts = np.empty(0, dtype=np.intp)
            self._ends = np.empty(0, dtype=np.intp)
            self._group_comps = np.empty(0, dtype=np.int64)
            return
        change = np.empty(count, dtype=bool)
        change[0] = True
        change[1:] = comp_sorted[1:] != comp_sorted[:-1]
        starts = np.flatnonzero(change)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = count
        self._starts = starts
        self._ends = ends
        self._group_comps = comp_sorted[starts]

    # ------------------------------------------------------------------ queries
    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    @property
    def class_count(self) -> int:
        return len(self._starts)

    def class_table(self):
        """``(order, offsets)`` over every class — the kernels' flat form.

        Zero materialisation: the returned arrays are the index's internals,
        consumed directly by ``evaluate_classes`` for a whole-relation scan.
        Treat as read-only.
        """
        return self._order, self._starts

    def members_at(self, position: int) -> List[int]:
        """The member tuple indices of class ``position``, ascending."""
        return self._order[self._starts[position] : self._ends[position]].tolist()

    def key_codes_at(self, position: int) -> Tuple[int, ...]:
        """The code-key tuple of class ``position`` (read off its first member)."""
        first = self._order[self._starts[position]]
        return tuple(int(view[first]) for view in self._views)

    def find(self, key_codes: Sequence[Optional[int]]) -> int:
        """The class position of a code key, or ``-1`` when no row holds it.

        A ``None`` code (the value is absent from its dictionary) can match
        nothing; a code beyond the stride capacity likewise belongs to no
        live row (rows acquiring such codes force a rebuild first), so both
        short-circuit without touching the arrays.
        """
        comp = 0
        for code, attr_stride, capacity in zip(
            key_codes, self._strides, self._capacities
        ):
            if code is None or code >= capacity:
                return -1
            comp += code * attr_stride
        np = self._np
        position = int(np.searchsorted(self._group_comps, comp))
        if position < len(self._group_comps) and int(self._group_comps[position]) == comp:
            return position
        return -1

    def matching_positions(self, constants: Sequence[Tuple[int, int]]):
        """Class positions whose key honours ``(attribute offset, code)`` pins.

        The batched form of :meth:`PartitionIndex.matching` for mixed
        constant/wildcard patterns: one vectorised comparison over the
        per-class first members instead of a python filter over keys.
        """
        np = self._np
        firsts = self._order[self._starts]
        keep = np.ones(len(firsts), dtype=bool)
        for offset, code in constants:
            keep &= self._views[offset][firsts] == code
        return np.flatnonzero(keep)

    def gather(self, positions: Sequence[int]):
        """``(indices, offsets)`` concatenating the given classes' members.

        The flat form ``evaluate_classes`` consumes, for an arbitrary dirty
        class subset; each class's members stay ascending.
        """
        np = self._np
        pos = np.asarray(positions, dtype=np.intp)
        starts = self._starts[pos]
        ends = self._ends[pos]
        sizes = ends - starts
        offsets = np.zeros(len(pos), dtype=np.intp)
        if len(pos) > 1:
            np.cumsum(sizes[:-1], out=offsets[1:])
        parts = [self._order[start:end] for start, end in zip(starts, ends)]
        indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
        return indices, offsets

    # ------------------------------------------------------------------ the delta
    def apply_moves(self, tuple_indices: Iterable[int]) -> None:
        """Re-place a batch of tuples after their cells changed — one scatter.

        Call after the store's cells were updated in place.  The moved
        tuples' composite keys are recomputed from the live code columns in
        one vectorised pass; tuples whose key did not change are dropped, and
        the rest are deleted from and re-inserted into the sort order with a
        single ``isin`` mask plus a single ``insert`` — per-batch cost, not
        per-tuple dict surgery.  A tuple whose new code outgrew the stride
        headroom triggers a full rebuild instead (rare: it takes
        :data:`HEADROOM` fresh-value internments on one attribute).
        """
        if not self._attributes:
            return
        np = self._np
        moved = np.asarray(sorted(set(tuple_indices)), dtype=np.intp)
        if len(moved) == 0:
            return
        new_comp = np.zeros(len(moved), dtype=np.int64)
        for view, attr_stride, capacity in zip(
            self._views, self._strides, self._capacities
        ):
            codes = view[moved]
            if int(codes.max()) >= capacity:
                self._rebuild()
                return
            new_comp += codes.astype(np.int64) * attr_stride
        changed = new_comp != self._comp[moved]
        if not bool(changed.any()):
            return
        moved = moved[changed]
        new_comp = new_comp[changed]
        keep = ~np.isin(self._order, moved)
        kept_order = self._order[keep]
        self._comp[moved] = new_comp
        kept_comp = self._comp[kept_order]
        # Insertion points against the *kept* order, processed in (comp,
        # tuple index) order so equal keys land ascending: `moved` is already
        # ascending, so a stable sort by comp yields exactly that order.
        reorder = np.argsort(new_comp, kind="stable")
        moved = moved[reorder]
        new_comp = new_comp[reorder]
        slots = np.empty(len(moved), dtype=np.intp)
        for at, (comp, tuple_index) in enumerate(zip(new_comp, moved)):
            low = int(np.searchsorted(kept_comp, comp, side="left"))
            high = int(np.searchsorted(kept_comp, comp, side="right"))
            slots[at] = low + int(np.searchsorted(kept_order[low:high], tuple_index))
        self._order = np.insert(kept_order, slots, moved)
        self._refresh_boundaries()

    def __repr__(self) -> str:
        return (
            f"CodePartitionIndex({list(self._attributes)}, "
            f"{self.class_count} classes over {len(self._store)} tuples)"
        )
