"""Equivalence-class-aware sharding of a relation for parallel execution.

CFD detection and repair are embarrassingly parallel *across LHS equivalence
classes*: a constant violation (``Q^C``) involves a single tuple, and a
variable violation (``Q^V``) involves only tuples that agree on the pattern's
``@``-free LHS attributes.  Two tuples that never share an equivalence class
under *any* pattern of the workload can therefore never co-violate, and the
relation can be split into sub-relations that are detected (and repaired)
independently.

:func:`plan_shards` computes that split in memory (a :class:`ShardLayout`)
and :meth:`ShardLayout.spill` writes it to disk; :func:`spill_shards` (also
bound as :func:`shard_relation`) does both:

1. For every pattern tuple of every CFD, take its ``@``-free LHS attribute
   set and label the relation's tuples by their code projection onto it
   (exactly the grouping the partition-indexed detector builds).
2. The connected closure over all labelings merges tuples into
   *components*, closed under "shares an equivalence class with, under some
   pattern" — the transitive closure across all patterns.  With numpy this
   is a vectorised min-propagation; without it, the union-find in
   :func:`components`.
3. Components are packed into ``shard_count`` shards by greedy size-balanced
   assignment (largest component first, onto the currently smallest shard).
   The assignment is a pure function of the data — ties break on the lowest
   shard id and components are ordered by size then smallest member — so it
   is stable across runs and worker processes, unlike ``hash()`` of a string
   key, which ``PYTHONHASHSEED`` would randomise.
4. Each shard's full-width code columns and ascending global indices are
   written under one spill run directory, from which workers memory-map
   them (:meth:`SpilledShardPlan.open_shard`).  No relation is pickled.

The resulting **sharding invariant** — *no variable-CFD violation spans two
shards* — is what makes the per-shard reports (and the per-shard repairs)
compose into exactly the global result; ``docs/parallel.md`` spells out the
argument and its limits under repair-induced value changes.
"""

from __future__ import annotations

import pickle
import shutil
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cfd import CFD
from repro.detection.indexed import lhs_free_attributes
from repro.errors import ParallelExecutionError
from repro.kernels import active_kernel
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import (
    MmapColumnStore,
    _numpy,
    create_run_dir,
    resolve_spill_base,
)
from repro.relation.relation import Relation
from repro.relation.schema import Schema


class _UnionFind:
    """Plain union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, count: int) -> None:
        self.parent = list(range(count))
        self.size = [1] * count

    def find(self, item: int) -> int:
        parent = self.parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, left: int, right: int) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return
        if self.size[root_left] < self.size[root_right]:
            root_left, root_right = root_right, root_left
        self.parent[root_right] = root_left
        self.size[root_left] += self.size[root_right]


def _grouping_attribute_sets(cfds: Sequence[CFD]) -> List[Tuple[str, ...]]:
    """Every distinct ``@``-free LHS attribute tuple across all patterns.

    Reuses the detector's own projection
    (:func:`repro.detection.indexed.lhs_free_attributes`), so the sharding
    invariant can never drift from the grouping semantics detection and
    repair actually use.
    """
    seen: Dict[Tuple[str, ...], None] = {}
    for cfd in cfds:
        for pattern in cfd.tableau:
            seen.setdefault(lhs_free_attributes(cfd, pattern), None)
    return list(seen)


def components(relation: ColumnStore, cfds: Sequence[CFD]) -> List[List[int]]:
    """Tuple-index components closed under equivalence-class sharing.

    The pure-Python planner (the no-numpy fallback of :func:`spill_shards`).
    Each returned list holds the global indices (ascending) of one component;
    components are ordered by descending size, ties by smallest member.  An
    empty LHS attribute set (a pattern whose LHS is all don't-care, or a
    constant CFD over the empty LHS) puts the whole relation into a single
    component — the degenerate but correct answer, since such a pattern
    groups every tuple together.
    """
    count = len(relation)
    if count == 0:
        return []
    uf = _UnionFind(count)
    for attributes in _grouping_attribute_sets(cfds):
        if attributes:
            # The union-find only consumes the members, so the grouping runs
            # entirely over dictionary codes through the active kernel; no
            # partition key is ever built — not even decoded code tuples.
            columns = list(relation.project_codes(attributes))
            groups = (
                members
                for _codes, members in active_kernel().group_codes(columns, 0, count)
            )
        else:
            # Empty LHS groups every tuple together.
            groups = iter([list(range(count))])
        for indices in groups:
            first = indices[0]
            for other in indices[1:]:
                uf.union(first, other)
    grouped: Dict[int, List[int]] = {}
    for index in range(count):
        grouped.setdefault(uf.find(index), []).append(index)
    return sorted(grouped.values(), key=lambda member: (-len(member), member[0]))


@dataclass(frozen=True)
class SpilledShard:
    """One shard living on disk: code files plus the global-index map.

    The shard's directory holds one ``col<p>.0.bin`` per schema position
    (``length`` 32-bit codes each, the layout
    :meth:`~repro.relation.mmap_store.MmapColumnStore.adopt_spilled` opens)
    and ``indices.bin`` — the ascending global tuple indices as 64-bit
    ints.  Rows keep their relative order inside a shard, so per-shard
    detection reports violations in the same relative order as a global run.
    """

    shard_id: int
    directory: str
    length: int

    def __len__(self) -> int:
        return self.length

    @property
    def indices_path(self) -> Path:
        return Path(self.directory) / "indices.bin"

    def global_indices(self) -> Sequence[int]:
        """The ascending global indices, memory-mapped when numpy is present."""
        np_module = _numpy()
        if np_module is not None and self.length:
            return np_module.memmap(
                str(self.indices_path),
                dtype=np_module.int64,
                mode="r",
                shape=(self.length,),
            )
        indices = array("q")
        if self.length:
            with open(self.indices_path, "rb") as handle:
                indices.frombytes(handle.read())
        return indices

    def open_relation(
        self, schema: Schema, dictionaries: Sequence[Sequence[Any]]
    ) -> MmapColumnStore:
        """Map the shard's code files as a relation."""
        return MmapColumnStore.adopt_spilled(
            schema, self.directory, self.length, dictionaries
        )


@dataclass(frozen=True)
class SpilledShardPlan:
    """The decomposition of one relation for one CFD workload, on disk.

    The plan owns one run directory containing a ``shard<i>/`` per shard and
    a single ``dictionaries.pkl`` (the per-position decode lists, shared by
    every shard — shards carry full-width code columns over the *parent's*
    dictionaries, which is what keeps per-shard repair decisions, including
    the full-schema LHS fallback, byte-identical to a serial run).  The plan
    is small and picklable, so it is what a worker receives.

    Lifecycle follows the stores': :meth:`release` removes the directory.
    Used as a context manager the plan releases itself on exit, except that
    a plan under an explicit spill base (``spill_dir=``, ``REPRO_SPILL_DIR``)
    survives an exception for post-mortem inspection.
    """

    schema: Schema
    shards: Tuple[SpilledShard, ...]
    #: Components available to the planner (upper bound on useful shards).
    component_count: int
    #: Shard count that was requested (the plan may hold fewer, never more).
    requested_shard_count: int
    plan_dir: str
    #: Whether ``plan_dir`` lives under an explicitly chosen spill base.
    explicit: bool = False

    def __len__(self) -> int:
        return len(self.shards)

    def __enter__(self) -> SpilledShardPlan:
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        if exc_type is None or not self.explicit:
            self.release()

    def sizes(self) -> Tuple[int, ...]:
        return tuple(shard.length for shard in self.shards)

    @property
    def dictionaries_path(self) -> Path:
        return Path(self.plan_dir) / "dictionaries.pkl"

    def load_dictionaries(self) -> List[List[Any]]:
        with open(self.dictionaries_path, "rb") as handle:
            return pickle.load(handle)

    def open_shard(self, shard_id: int) -> MmapColumnStore:
        """Map one shard's code files as a relation (the worker-side open)."""
        return self.shards[shard_id].open_relation(
            self.schema, self.load_dictionaries()
        )

    def release(self) -> None:
        """Remove the plan's spill files (idempotent)."""
        shutil.rmtree(self.plan_dir, ignore_errors=True)

    def summary(self) -> Dict[str, object]:
        return {
            "shards": len(self.shards),
            "requested_shards": self.requested_shard_count,
            "components": self.component_count,
            "sizes": list(self.sizes()),
            "plan_dir": self.plan_dir,
        }


def _component_roots_vector(
    relation: ColumnStore, cfds: Sequence[CFD], np_module: Any
) -> Any:
    """``roots[i]`` = the smallest tuple index of ``i``'s component (vectorised).

    Per grouping attribute set, rows are labelled by their code projection
    (dense labels via ``np.unique``); components are then the connected
    closure over all labelings, computed by iterative min-propagation —
    every label group pulls each member down to the group's current minimum,
    and pointer-jumping (``roots = roots[roots]``) compresses chains — until
    a fixpoint.  Monotone decreasing, so it terminates; the fixpoint is the
    same partition the union-find in :func:`components` produces, with the
    representative being the minimum member by construction.
    """
    count = len(relation)
    labelings: List[Any] = []
    for attributes in _grouping_attribute_sets(cfds):
        if not attributes:
            labelings.append(np_module.zeros(count, dtype=np_module.int64))
            continue
        labels: Optional[Any] = None
        for column in relation.project_codes(attributes):
            codes = np_module.asarray(column, dtype=np_module.int64)
            if labels is None:
                key = codes
            else:
                # labels < count and codes fit int32, so the composite stays
                # far below 2**63; re-densifying per column keeps it there
                # for any number of attributes.
                key = labels * (int(codes.max()) + 1) + codes
            _, labels = np_module.unique(key, return_inverse=True)
        labelings.append(labels)
    roots = np_module.arange(count, dtype=np_module.int64)
    changed = True
    while changed:
        changed = False
        for labels in labelings:
            group_min = np_module.full(
                int(labels.max()) + 1, count, dtype=np_module.int64
            )
            np_module.minimum.at(group_min, labels, roots)
            pulled = np_module.minimum(roots, group_min[labels])
            if not np_module.array_equal(pulled, roots):
                roots = pulled
                changed = True
        while True:
            jumped = roots[roots]
            if np_module.array_equal(jumped, roots):
                break
            roots = jumped
            changed = True
    return roots


def _pack_components(
    ordered_sizes: Sequence[int], shard_count: int
) -> Tuple[List[int], int]:
    """Greedy size-balanced packing: component position → shard id.

    Components must arrive largest-first (ties by smallest member), exactly
    the order :func:`components` emits — both planners then assign every
    component to the same shard.
    """
    bucket_count = max(1, min(shard_count, len(ordered_sizes)))
    loads = [0] * bucket_count
    assignment: List[int] = []
    for size in ordered_sizes:
        target = loads.index(min(loads))  # lowest id wins ties: deterministic
        assignment.append(target)
        loads[target] += size
    return assignment, bucket_count


def _shard_members(
    relation: ColumnStore, cfds: Sequence[CFD], shard_count: int, np_module: Any
) -> Tuple[List[Any], int]:
    """Ascending member indices per shard, plus the component count."""
    if not len(relation):
        return [], 0
    if np_module is None:
        member_lists = components(relation, cfds)
        assignment, bucket_count = _pack_components(
            [len(members) for members in member_lists], shard_count
        )
        buckets: List[List[int]] = [[] for _ in range(bucket_count)]
        for members, target in zip(member_lists, assignment):
            buckets[target].extend(members)
        for bucket in buckets:
            bucket.sort()
        return buckets, len(member_lists)
    roots = _component_roots_vector(relation, cfds, np_module)
    unique_roots, inverse, counts = np_module.unique(
        roots, return_inverse=True, return_counts=True
    )
    # Largest component first, ties by smallest member (the root *is* the
    # smallest member) — the order components() emits.
    order = np_module.lexsort((unique_roots, -counts))
    assignment, bucket_count = _pack_components(
        [int(counts[position]) for position in order], shard_count
    )
    shard_of_component = np_module.empty(len(unique_roots), dtype=np_module.int64)
    shard_of_component[order] = np_module.asarray(assignment, dtype=np_module.int64)
    shard_of_row = shard_of_component[inverse]
    members = [
        np_module.flatnonzero(shard_of_row == shard_id)
        for shard_id in range(bucket_count)
    ]
    return members, len(unique_roots)


@dataclass(frozen=True)
class ShardLayout:
    """Which rows each shard holds, computed before anything touches disk.

    The parallel engines look at the layout first: with fewer than two
    shards there is nothing to distribute, so they run in-process and never
    create a plan directory.
    """

    #: The encoded relation the layout indexes into.
    store: ColumnStore
    #: Ascending tuple indices of each shard.
    members: Tuple[Any, ...]
    #: Components available to the planner (upper bound on useful shards).
    component_count: int
    #: Shard count that was requested (the layout may hold fewer, never more).
    requested_shard_count: int

    def __len__(self) -> int:
        return len(self.members)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(indices) for indices in self.members)

    def spill(self, spill_dir: Optional[Union[str, Path]] = None) -> SpilledShardPlan:
        """Write every shard's full-width code columns under a new plan dir.

        The plan directory goes under the spill base resolved from
        ``spill_dir`` (see :func:`repro.relation.mmap_store.resolve_spill_base`);
        the caller owns it — use the plan as a context manager, or call
        :meth:`SpilledShardPlan.release`.
        """
        store = self.store
        schema = store.schema
        base, explicit = resolve_spill_base(spill_dir)
        plan_dir = create_run_dir(base)
        np_module = _numpy()
        shards: List[SpilledShard] = []
        try:
            dictionaries = [list(store.dictionary(name)) for name in schema.names]
            with open(plan_dir / "dictionaries.pkl", "wb") as handle:
                pickle.dump(dictionaries, handle, protocol=pickle.HIGHEST_PROTOCOL)
            columns = [store.codes(name) for name in schema.names]
            if np_module is not None:
                columns = [
                    np_module.asarray(column, dtype=np_module.intc)
                    for column in columns
                ]
            for shard_id, indices in enumerate(self.members):
                shard_dir = plan_dir / f"shard{shard_id}"
                shard_dir.mkdir()
                if np_module is not None:
                    indices.astype(np_module.int64).tofile(
                        str(shard_dir / "indices.bin")
                    )
                    for position, column in enumerate(columns):
                        column[indices].tofile(str(shard_dir / f"col{position}.0.bin"))
                else:
                    (shard_dir / "indices.bin").write_bytes(
                        array("q", indices).tobytes()
                    )
                    for position, column in enumerate(columns):
                        gathered = array("i", (column[index] for index in indices))
                        (shard_dir / f"col{position}.0.bin").write_bytes(
                            gathered.tobytes()
                        )
                shards.append(
                    SpilledShard(
                        shard_id=shard_id, directory=str(shard_dir), length=len(indices)
                    )
                )
        except BaseException:
            if not explicit:
                shutil.rmtree(str(plan_dir), ignore_errors=True)
            raise
        return SpilledShardPlan(
            schema=schema,
            shards=tuple(shards),
            component_count=self.component_count,
            requested_shard_count=self.requested_shard_count,
            plan_dir=str(plan_dir),
            explicit=explicit,
        )


def plan_shards(
    relation: Relation, cfds: Sequence[CFD], shard_count: int
) -> ShardLayout:
    """Split ``relation`` into at most ``shard_count`` class-closed shards.

    A relation that is not a :class:`ColumnStore` is dictionary-encoded once
    first.  ``shard_count`` larger than the number of components (or than
    the number of rows) simply yields fewer shards; an empty relation yields
    none.  Nothing is written; see :meth:`ShardLayout.spill`.
    """
    if shard_count < 1:
        raise ParallelExecutionError(
            f"shard_count must be at least 1, got {shard_count}"
        )
    if not isinstance(relation, ColumnStore):
        relation = ColumnStore.from_relation(relation)
    members, component_count = _shard_members(relation, cfds, shard_count, _numpy())
    return ShardLayout(
        store=relation,
        members=tuple(members),
        component_count=component_count,
        requested_shard_count=shard_count,
    )


def spill_shards(
    relation: Relation,
    cfds: Sequence[CFD],
    shard_count: int,
    spill_dir: Optional[Union[str, Path]] = None,
) -> SpilledShardPlan:
    """Split ``relation`` into class-closed shards and write them to disk.

    :func:`plan_shards` followed by :meth:`ShardLayout.spill`; the caller
    owns the returned plan.
    """
    return plan_shards(relation, cfds, shard_count).spill(spill_dir)


#: An alias of :func:`spill_shards`, kept for existing callers.
shard_relation = spill_shards
