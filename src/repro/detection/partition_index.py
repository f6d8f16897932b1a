"""Class indexes: one grouping pass shared by every pattern over the same LHS.

The in-memory oracle (:mod:`repro.core.satisfaction`) scans the relation
once per constant-LHS mask and then groups each pattern's matching tuples
by value, pattern by pattern, reading every value through the row API.
But every pattern of a CFD — and every CFD sharing the same
``@``-free LHS attribute set — asks the same structural question: *which
tuples agree on these attributes?*  A class index answers it once, over the
dictionary codes of a :class:`~repro.relation.columnar.ColumnStore`: it
partitions the rows into equivalence classes, ordered ascending by code key
with members ascending, after which

* an **all-constant pattern** resolves to its class with one :meth:`find`;
* a **mixed pattern** (constants plus wildcards) filters class *keys*
  (:meth:`matching_positions`), never tuples;
* the ``Q^C``/``Q^V`` checks of every selected class run as one
  ``evaluate_classes`` kernel call over the flat ``(indices, offsets)`` form
  (:meth:`class_table`, :meth:`gather`).

Two implementations share that contract: the array-backed
:class:`CodePartitionIndex` under the numpy kernel and the pure-python
:class:`PartitionIndex` otherwise (and for an LHS whose composite key would
overflow ``int64``); :func:`class_index` picks one.  Detection
(:mod:`repro.detection.indexed`) and the repair state
(:mod:`repro.repair.incremental`) both evaluate patterns against them, and
the repair state moves tuples between classes with :meth:`apply_moves`.

:class:`PartitionIndexCache` keeps the most recently used class indexes (LRU)
so a batch of CFDs sharing LHS attribute sets builds each index exactly once.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import DetectionError
from repro.kernels import active_kernel
from repro.kernels.python_kernels import PYTHON_KERNEL
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation


def _encoded(relation: Relation) -> ColumnStore:
    if isinstance(relation, ColumnStore):
        return relation
    return ColumnStore.from_relation(relation)


def _pinned_key(
    constants: Sequence[Tuple[int, int]], width: int
) -> Optional[Tuple[int, ...]]:
    """The full code key when ``(offset, code)`` pins cover every attribute once."""
    pins = dict(constants)
    if len(constants) == len(pins) == width:
        return tuple(pins[offset] for offset in range(width))
    return None


class CodePartitionIndex:
    """An array-backed partition map over a :class:`ColumnStore`'s code columns.

    The numpy counterpart of :class:`PartitionIndex`: where that index
    materialises one python list per equivalence class (10K+ list
    allocations on a 50K relation), this one keeps the whole partition in
    three arrays — a stable sort order over a fused composite
    code key, per-class start offsets into it, and the per-class composite
    keys.  Members materialise into python lists only for classes that
    actually report a violation, and a repair pass applies its cell changes
    as **one scatter per touched LHS** (:meth:`apply_moves`) instead of a
    bisect per tuple.

    Ordering contract: classes ascending by code-key tuple (the composite is
    built first-attribute-most-significant, so composite order *is* key-tuple
    order), members ascending within each class — exactly the flat form the
    kernels' ``partition_classes``/``evaluate_classes`` primitives speak.

    Only ever constructed under the numpy kernel (numpy is importable then);
    construction raises :class:`~repro.errors.DetectionError` in the
    astronomical case where the composite key cannot fit ``int64``, and
    :func:`class_index` takes :class:`PartitionIndex` for that LHS instead.
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
    def _views(self) -> tuple:
        """Fresh array views of the LHS code columns, for one call only.

        A live numpy view pins its ``array('i')`` buffer, and a pinned
        buffer makes every later insert into the store fail with
        ``BufferError``; so the index never keeps one.
        """
        from repro.kernels.numpy_kernels import _as_array

        return tuple(_as_array(self._store.codes(attr)) for attr in self._attributes)

    def _rebuild(self) -> None:
        """(Re)build the composite keys, sort order and class boundaries."""
        from repro.kernels.numpy_kernels import stable_argsort

        np = self._np
        store = self._store
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
                    f"{self._attributes} would overflow int64; use "
                    "PartitionIndex instead"
                )
            stride *= capacity
        self._capacities = tuple(reversed(capacities))
        self._strides = tuple(reversed(strides))
        comp = np.zeros(len(store), dtype=np.int64)
        for view, attr_stride in zip(self._views(), self._strides):
            comp += view.astype(np.int64) * attr_stride
        self._comp = comp
        self._order = stable_argsort(comp).astype(np.intp, copy=False)
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
        first = int(self._order[self._starts[position]])
        return tuple(int(self._store.codes(attr)[first]) for attr in self._attributes)

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

        Every attribute pinned is one :meth:`find`; a mixed
        constant/wildcard pattern is one vectorised comparison over the
        per-class first members instead of a python filter over keys.
        """
        key = _pinned_key(constants, len(self._attributes))
        if key is not None:
            position = self.find(key)
            return [position] if position >= 0 else []
        np = self._np
        firsts = self._order[self._starts]
        keep = np.ones(len(firsts), dtype=bool)
        views = self._views()
        for offset, code in constants:
            keep &= views[offset][firsts] == code
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
            self._views(), self._strides, self._capacities
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


class PartitionIndex:
    """The pure-python class index, twin of :class:`CodePartitionIndex`.

    Same methods, same ordering contract (classes ascending by code-key
    tuple, members ascending), so detection and
    :class:`~repro.repair.incremental.RepairState` run one algorithm over
    either.  The partition is a dict from code key to its ascending member
    list (one ``group_codes`` pass) plus the sorted key list; python ints
    never overflow, so there is no composite key and no headroom to outgrow.
    It serves the python kernel, and any LHS whose composite key would not
    fit ``int64`` under the numpy kernel.

    >>> from repro.relation.schema import Schema
    >>> rel = Relation(Schema("r", ["A", "B"]), [(1, "x"), (2, "y"), (1, "z")])
    >>> index = PartitionIndex.from_relation(rel, ("A",))
    >>> [index.members_at(position) for position in range(index.class_count)]
    [[0, 2], [1]]
    """

    __slots__ = ("_attributes", "_columns", "_groups", "_keys", "_row_keys", "_flat")

    def __init__(self, store: ColumnStore, attributes: Sequence[str]) -> None:
        self._attributes: Tuple[str, ...] = tuple(attributes)
        self._columns = store.project_codes(self._attributes)
        length = len(store)
        if self._columns:
            sizes = [store.dictionary_size(attr) for attr in self._attributes]
            groups = dict(PYTHON_KERNEL.group_codes(self._columns, 0, length, sizes))
        else:
            groups = {(): list(range(length))} if length else {}
        self._groups: Dict[Tuple[int, ...], List[int]] = groups
        self._keys: List[Tuple[int, ...]] = sorted(groups)
        row_keys: List[Tuple[int, ...]] = [()] * length
        for key, members in groups.items():
            for member in members:
                row_keys[member] = key
        self._row_keys = row_keys
        #: The flat ``(order, offsets)`` form, built on demand until a move.
        self._flat: Optional[Tuple[List[int], List[int]]] = None

    @classmethod
    def from_relation(
        cls, relation: Relation, attributes: Sequence[str]
    ) -> "PartitionIndex":
        """Build the index over ``relation``, encoding it first unless columnar."""
        return cls(_encoded(relation), attributes)

    # ------------------------------------------------------------------ queries
    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    @property
    def class_count(self) -> int:
        return len(self._keys)

    def class_table(self) -> Tuple[List[int], List[int]]:
        """``(order, offsets)`` over every class, the kernels' flat form."""
        if self._flat is None:
            self._flat = self.gather(range(len(self._keys)))
        return self._flat

    def members_at(self, position: int) -> List[int]:
        """The member tuple indices of class ``position``, ascending."""
        return list(self._groups[self._keys[position]])

    def key_codes_at(self, position: int) -> Tuple[int, ...]:
        """The code-key tuple of class ``position``."""
        return self._keys[position]

    def find(self, key_codes: Sequence[Optional[int]]) -> int:
        """The class position of a code key, or ``-1`` when no row holds it."""
        key = tuple(key_codes)
        if key not in self._groups:
            return -1
        return bisect_left(self._keys, key)

    def matching_positions(self, constants: Sequence[Tuple[int, int]]) -> List[int]:
        """Class positions whose key honours ``(attribute offset, code)`` pins."""
        key = _pinned_key(constants, len(self._attributes))
        if key is not None:
            # Every attribute pinned: one lookup instead of a scan over keys.
            position = self.find(key)
            return [position] if position >= 0 else []
        return [
            position
            for position, key in enumerate(self._keys)
            if all(key[offset] == code for offset, code in constants)
        ]

    def gather(self, positions: Iterable[int]) -> Tuple[List[int], List[int]]:
        """``(indices, offsets)`` concatenating the given classes' members."""
        indices: List[int] = []
        offsets: List[int] = []
        for position in positions:
            offsets.append(len(indices))
            indices.extend(self._groups[self._keys[position]])
        return indices, offsets

    # ------------------------------------------------------------------ the delta
    def apply_moves(self, tuple_indices: Iterable[int]) -> None:
        """Re-place a batch of tuples after their cells changed.

        Call after the store's cells were updated in place.  Each tuple whose
        code key changed leaves its old class (dropping the class when it
        empties) and joins its new one, keeping members and keys sorted.
        """
        groups = self._groups
        keys = self._keys
        for tuple_index in sorted(set(tuple_indices)):
            old_key = self._row_keys[tuple_index]
            new_key = tuple(column[tuple_index] for column in self._columns)
            if new_key == old_key:
                continue
            self._flat = None
            self._row_keys[tuple_index] = new_key
            members = groups[old_key]
            members.pop(bisect_left(members, tuple_index))
            if not members:
                del groups[old_key]
                keys.pop(bisect_left(keys, old_key))
            target = groups.get(new_key)
            if target is None:
                groups[new_key] = [tuple_index]
                insort(keys, new_key)
            else:
                insort(target, tuple_index)

    def __repr__(self) -> str:
        return (
            f"PartitionIndex({list(self._attributes)}, "
            f"{self.class_count} classes over {len(self._row_keys)} tuples)"
        )


ClassIndex = Union[CodePartitionIndex, PartitionIndex]


def class_index(store: ColumnStore, attributes: Sequence[str]) -> ClassIndex:
    """The class index over ``attributes`` for the active kernel.

    The array-backed :class:`CodePartitionIndex` under numpy, unless the
    composite key would overflow ``int64``; the pure-python
    :class:`PartitionIndex` otherwise.  Both answer identically.
    """
    if active_kernel().name == "numpy":
        try:
            return CodePartitionIndex(store, attributes)
        except DetectionError:
            pass  # the composite key would overflow int64
    return PartitionIndex.from_relation(store, attributes)


class PartitionIndexCache:
    """An LRU cache of class indexes for one relation.

    Detection over a CFD batch requests one index per distinct ``@``-free LHS
    attribute tuple; the cache builds each on first use (:func:`class_index`)
    and serves repeats — including across separate
    :meth:`~repro.detection.indexed.IndexedDetector.detect` calls — from
    memory.  The cache assumes the relation does not change while it is
    alive; after mutating the relation call :meth:`clear` to drop everything.

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
        self._indexes: "OrderedDict[Tuple[str, ...], ClassIndex]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._expected_version = relation.version

    def _check_synchronized(self) -> None:
        """Raise when the relation mutated since the cache last synchronised.

        Inserts and deletes shift or extend the tuple-index space, and raw
        updates move tuples between equivalence classes behind the cached
        indexes' backs; serving a read afterwards would silently return wrong
        answers.  The relation's version counter makes that a loud error.
        """
        if self._relation.version != self._expected_version:
            raise DetectionError(
                "the relation was mutated while partition indexes were live "
                f"(version {self._relation.version}, indexes built at "
                f"{self._expected_version}); call clear() to rebuild from "
                "scratch"
            )

    # ------------------------------------------------------------------ access
    def get(self, attributes: Sequence[str]) -> ClassIndex:
        """The index over ``attributes``, building (and caching) it on a miss.

        Raises :class:`~repro.errors.DetectionError` when the relation was
        mutated since the cache last synchronised with it (see
        :meth:`clear`).
        """
        self._check_synchronized()
        key = tuple(attributes)
        index = self._indexes.get(key)
        if index is not None:
            self._hits += 1
            self._indexes.move_to_end(key)
            return index
        self._misses += 1
        index = class_index(self._store, key)
        self._indexes[key] = index
        while len(self._indexes) > self._maxsize:
            self._indexes.popitem(last=False)
        return index

    def clear(self) -> None:
        """Drop every cached index (required after mutating the relation)."""
        self._indexes.clear()
        if self._store is not self._relation:
            self._store = _encoded(self._relation)
        self._expected_version = self._relation.version

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
