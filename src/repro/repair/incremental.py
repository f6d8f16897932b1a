"""Delta-maintained violation state for the repair loop.

The repair heuristic (Section 6) is an iterative fixpoint: detect violations,
fix some cells, detect again.  Re-running full detection on every pass costs
``O(passes x |Σ| x |I| x TABSZ)`` with the scan oracle — and even the
indexed backend rebuilds its class indexes from scratch each time.
But a repair pass changes a handful of *cells*, and a single cell change can
only affect

* the patterns whose ``@``-free LHS or non-``@`` RHS mentions the changed
  attribute *and* whose LHS constants the tuple's old or new LHS key
  matches, and
* within such a pattern, the tuples of the changed tuple's *old* and *new*
  equivalence classes under the pattern's LHS partition.

:class:`RepairState` exploits exactly that.  At build it buckets the
patterns mentioning each attribute by ``@``-free LHS and constant mask (the
positions of the constant LHS cells), keyed by those constants, as the
oracle's ``_matching_indices`` does; a change then costs one dict probe per
mask, not one check per pattern, and only the patterns it hits are
re-evaluated.

It computes over the dictionary codes of a
:class:`~repro.relation.columnar.ColumnStore` (a plain relation
is encoded once on entry) with the indexed detector's own per-pattern
evaluation (:func:`~repro.detection.indexed.evaluate_pattern`): one class
index per distinct LHS, and the *entire dirty class set* of a change batch
resolved with one ``evaluate_classes`` kernel call per pattern — gather the
affected members, reduce, materialise only what reports.  The only thing
the kernel chooses is the index behind each LHS
(:func:`~repro.detection.partition_index.class_index`): the array-backed
:class:`~repro.detection.partition_index.CodePartitionIndex` under numpy,
the pure-python :class:`~repro.detection.partition_index.PartitionIndex`
otherwise (and for an LHS whose composite key would overflow ``int64``).
The two share one ordering contract, so every kernel produces
byte-identical reports.

Evaluating every dirtied class once at the post-batch state yields exactly
what change-by-change re-evaluation yields (a later change that could alter
a class's verdict necessarily re-dirties that class).  Reports are emitted
in the *canonical order* — the order the scan oracle produces — so the
greedy repair heuristic makes identical decisions no matter which detection
engine feeds it.  See ``docs/repair.md`` for the complexity analysis.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Set, Tuple

from repro.core.cfd import CFD
from repro.core.violations import Violation, ViolationReport
from repro.detection.indexed import (
    ConstCheck,
    canonical_order,
    encode_checks,
    evaluate_pattern,
)
from repro.detection.partition_index import ClassIndex, CodePartitionIndex, class_index
from repro.errors import DetectionError
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation
from repro.rules import PatternSpec, compile_rules

__all__ = ["RepairState", "canonical_order"]


class _MaskBucket(NamedTuple):
    """The patterns over one ``@``-free LHS that share one constant mask."""

    #: The offsets of the constant cells in ``lhs_free``.
    mask: Tuple[int, ...]
    #: Projects an LHS key onto the mask: a scalar for one constant cell.
    project: Callable[[Tuple[Any, ...]], Any]
    #: Projected constants -> the patterns holding them.
    by_key: Dict[Any, List[PatternSpec]]
    #: Whether the changed attribute is a constant cell of the mask, so the
    #: old and new keys project apart; otherwise one probe serves both.
    moves: bool


class _LhsGroup(NamedTuple):
    """The patterns over one ``@``-free LHS that mention one attribute."""

    lhs_free: Tuple[str, ...]
    #: The attribute's offset in ``lhs_free``; ``-1`` when only the RHS
    #: names it, so a change leaves the LHS key as it is.
    slot: int
    #: The patterns with no constant LHS cell: every key matches them.
    wildcard: List[PatternSpec]
    masks: Dict[Tuple[int, ...], _MaskBucket]


def _group_specs(specs: Sequence[PatternSpec]) -> Dict[str, List[_LhsGroup]]:
    """Bucket the patterns mentioning each attribute by LHS and constant mask.

    Keyed as in the oracle's ``_matching_indices``: a scalar for a
    one-constant mask, the tuple of constants otherwise.
    """
    groups: Dict[Tuple[str, Tuple[str, ...]], _LhsGroup] = {}
    by_attr: Dict[str, List[_LhsGroup]] = {}
    for spec in specs:
        lhs_free = spec.lhs_free
        mask = tuple(
            offset for offset, cell in enumerate(spec.cells) if cell.is_constant
        )
        values = tuple(spec.cells[offset].value for offset in mask)
        key = values[0] if len(values) == 1 else values
        for attr in dict.fromkeys(lhs_free + spec.rhs_free):
            group = groups.get((attr, lhs_free))
            if group is None:
                slot = lhs_free.index(attr) if attr in lhs_free else -1
                group = groups[attr, lhs_free] = _LhsGroup(lhs_free, slot, [], {})
                by_attr.setdefault(attr, []).append(group)
            if not mask:
                group.wildcard.append(spec)
                continue
            bucket = group.masks.get(mask)
            if bucket is None:
                bucket = _MaskBucket(mask, itemgetter(*mask), {}, group.slot in mask)
                group.masks[mask] = bucket
            bucket.by_key.setdefault(key, []).append(spec)
    return by_attr


# ---------------------------------------------------------------------------
# the incremental engine
# ---------------------------------------------------------------------------
class RepairState:
    """Violation state of ``relation`` against ``cfds``, maintained under cell changes.

    The relation is ingested once (one class index per distinct ``@``-free
    LHS attribute tuple, shared across patterns and CFDs); the initial report
    is computed from those indexes by the ``method="indexed"`` detection
    backend's own per-pattern evaluation
    (:func:`~repro.detection.indexed.evaluate_pattern`).  From then on
    :meth:`apply_change` /
    :meth:`apply_changes` keep both the indexes and the per-partition
    violation store correct in time proportional to the *touched* partitions,
    not the relation (see the module docstring).

    The state owns ``relation`` operationally: every mutation must flow
    through :meth:`apply_change` or :meth:`apply_changes`, or the maintained
    report goes stale.  A ``relation`` that is not a
    :class:`~repro.relation.columnar.ColumnStore` is encoded once here, and
    every cell change is written to both.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> state = RepairState(cust_relation(), cust_cfds())
    >>> state.is_clean()
    False
    >>> sorted(state.report().violating_indices())
    [0, 1, 2, 3]
    """

    def __init__(self, relation: Relation, cfds: Sequence[CFD]) -> None:
        self._relation = relation
        self._encoded = (
            relation
            if isinstance(relation, ColumnStore)
            else ColumnStore.from_relation(relation)
        )
        self._cfds = compile_rules(cfds)
        self._specs = self._cfds.specs

        # attribute -> the specs whose LHS ∪ RHS mention it, bucketed by LHS
        # and constant mask (the dirty-spec map).
        self._groups_by_attr = _group_specs(self._specs)

        # spec_id -> partition key -> violations of that pattern in that class.
        self._store: List[Dict[Tuple[Any, ...], List[Violation]]] = [
            {} for _ in self._specs
        ]
        # spec_id -> (dictionary versions, encoded Q^C checks) — see
        # _const_checks.
        self._const_cache: Dict[int, Tuple[Tuple[int, ...], List[ConstCheck]]] = {}

        # One class index per distinct LHS, shared across patterns.
        self._indexes: Dict[Tuple[str, ...], ClassIndex] = {}
        for spec in self._specs:
            index = self._indexes.get(spec.lhs_free)
            if index is None:
                index = class_index(self._encoded, spec.lhs_free)
                self._indexes[spec.lhs_free] = index
            checks = self._const_checks(spec)
            self._store[spec.spec_id].update(
                evaluate_pattern(self._encoded, spec, index, checks)
            )

        self._changes_applied = 0
        self._patterns_reevaluated = 0
        self._partitions_reevaluated = 0
        self._expected_version = relation.version

    # ------------------------------------------------------------------ queries
    @property
    def relation(self) -> Relation:
        """The relation whose violation state is being maintained."""
        return self._relation

    @property
    def cfds(self) -> Tuple[CFD, ...]:
        return self._cfds

    @property
    def batched(self) -> bool:
        """Whether every LHS index is the array-backed :class:`CodePartitionIndex`."""
        return all(
            isinstance(index, CodePartitionIndex) for index in self._indexes.values()
        )

    def _check_synchronized(self) -> None:
        """Raise when the relation mutated outside :meth:`apply_change`.

        An insert, delete or raw update behind the state's back leaves the
        maintained report describing a relation that no longer exists; the
        version counter turns the next read into a loud error instead of a
        silently wrong answer.
        """
        if self._relation.version != self._expected_version:
            raise DetectionError(
                "the relation was mutated outside apply_change while a "
                f"RepairState was live (version {self._relation.version}, "
                f"state built at {self._expected_version}); rebuild the "
                "RepairState over the current relation"
            )

    def violation_count(self) -> int:
        self._check_synchronized()
        return sum(
            len(violations) for store in self._store for violations in store.values()
        )

    def is_clean(self) -> bool:
        """Whether the relation currently satisfies every CFD."""
        self._check_synchronized()
        return all(not store for store in self._store)

    def report(self) -> ViolationReport:
        """The current violations, in the scan oracle's canonical order."""
        self._check_synchronized()
        violations = [
            violation
            for store in self._store
            for partition_violations in store.values()
            for violation in partition_violations
        ]
        return ViolationReport(canonical_order(violations, self._cfds))

    def stats(self) -> Dict[str, int]:
        """Delta-maintenance counters (how little work apply_change did).

        ``patterns_reevaluated`` counts one per (applied change, pattern it
        dirtied): a pattern mentioning the changed attribute is dirtied only
        when the tuple's old or new LHS key matches its LHS constants.
        ``partitions_reevaluated`` counts the (pattern, class) pairs
        re-evaluated, at most two per dirtied pattern and change.
        """
        return {
            "changes_applied": self._changes_applied,
            "patterns_reevaluated": self._patterns_reevaluated,
            "partitions_reevaluated": self._partitions_reevaluated,
        }

    # ------------------------------------------------------------------ the delta
    def apply_change(self, tuple_index: int, attribute: str, new_value: Any) -> bool:
        """Set one cell and repair the violation state by delta.

        Returns ``False`` (and changes nothing) when the cell already holds
        ``new_value``.  Otherwise the affected partition indexes move the
        tuple between equivalence classes in place, and only the patterns
        mentioning ``attribute`` whose LHS constants the tuple's old or new
        key matches are re-evaluated — over only those classes.
        """
        return self.apply_changes([(tuple_index, attribute, new_value)]) > 0

    def apply_changes(self, changes: Sequence[Tuple[int, str, Any]]) -> int:
        """Apply a batch of cell changes and repair the state in one delta.

        Semantically identical to calling :meth:`apply_change` per entry, in
        order (no-op entries included); returns how many entries actually
        changed a cell.  The whole batch costs three bulk steps instead of
        per-change work: the cell updates themselves (collecting each
        change's old/new partition keys as the dirty set), the index
        maintenance (**one** :meth:`apply_moves` **per touched partition
        index**), and **one ``evaluate_classes`` kernel call per dirty
        pattern**.
        Evaluating each dirtied class once against the final state is exactly
        equivalent to the sequential delta: any intermediate change that
        could alter a class's verdict also dirties that class.
        """
        self._check_synchronized()
        encoded = self._encoded
        value = encoded.value
        changed_attrs: Dict[int, Set[str]] = {}
        dirty: Dict[int, Dict[Tuple[Any, ...], None]] = {}
        applied = 0
        for tuple_index, attribute, new_value in changes:
            if encoded.codes(attribute)[tuple_index] == encoded.encode(
                attribute, new_value
            ):
                continue
            # The old keys are read before the write, from the store as it
            # stands mid-batch: a tuple changed twice dirties its
            # intermediate class too.
            for group in self._groups_by_attr.get(attribute, ()):
                old_key = tuple(value(tuple_index, attr) for attr in group.lhs_free)
                slot = group.slot
                if slot < 0:
                    new_key = old_key
                else:
                    new_key = (*old_key[:slot], new_value, *old_key[slot + 1 :])
                self._dirty(group, old_key, new_key, dirty)
            encoded.update(tuple_index, attribute, new_value)
            if encoded is not self._relation:
                self._relation.update(tuple_index, attribute, new_value)
            changed_attrs.setdefault(tuple_index, set()).add(attribute)
            applied += 1
        if not applied:
            return 0
        self._changes_applied += applied
        self._expected_version = self._relation.version
        for lhs_free, index in self._indexes.items():
            if not lhs_free:
                continue
            moved = [
                tuple_index
                for tuple_index, attrs in changed_attrs.items()
                if attrs.intersection(lhs_free)
            ]
            if moved:
                index.apply_moves(moved)
        for spec_id in sorted(dirty):
            self._reevaluate_batched(self._specs[spec_id], list(dirty[spec_id]))
        return applied

    def _dirty(
        self,
        group: _LhsGroup,
        old_key: Tuple[Any, ...],
        new_key: Tuple[Any, ...],
        dirty: Dict[int, Dict[Tuple[Any, ...], None]],
    ) -> None:
        """Add one change's (pattern, class) pairs in ``group`` to ``dirty``.

        Wildcard-LHS patterns take both keys unprobed.  The others are found
        by one dict probe per mask, or two when the change moves one of the
        mask's cells.
        """
        for spec in group.wildcard:
            self._patterns_reevaluated += 1
            keys = dirty.setdefault(spec.spec_id, {})
            keys[old_key] = None
            keys[new_key] = None
        for bucket in group.masks.values():
            if bucket.moves:
                self._probe(bucket, old_key, (old_key,), dirty)
                self._probe(bucket, new_key, (new_key,), dirty)
            else:
                self._probe(bucket, old_key, (old_key, new_key), dirty)

    def _probe(
        self,
        bucket: _MaskBucket,
        key: Tuple[Any, ...],
        dirtied: Tuple[Tuple[Any, ...], ...],
        dirty: Dict[int, Dict[Tuple[Any, ...], None]],
    ) -> None:
        """Dirty ``dirtied`` in every pattern of ``bucket`` that ``key`` matches.

        Each hit is confirmed with the cells' own ``matches``: a dict lookup
        is not ``==`` (a NaN shared by the pattern and the cell is found, but
        does not match).
        """
        for spec in bucket.by_key.get(bucket.project(key), ()):
            cells = spec.cells
            if all(cells[offset].matches(key[offset]) for offset in bucket.mask):
                self._patterns_reevaluated += 1
                keys = dirty.setdefault(spec.spec_id, {})
                for dirtied_key in dirtied:
                    keys[dirtied_key] = None

    def _reevaluate_batched(
        self, spec: PatternSpec, keys: List[Tuple[Any, ...]]
    ) -> None:
        """Recompute one pattern over its dirty classes — one kernel call.

        Every key already matches the pattern's LHS constants (see
        :meth:`_dirty`).
        """
        store = self._encoded
        spec_store = self._store[spec.spec_id]
        index = self._indexes[spec.lhs_free]
        live: Dict[Tuple[Any, ...], int] = {}
        for key in keys:
            self._partitions_reevaluated += 1
            position = index.find(
                tuple(
                    store.encode(attr, value)
                    for attr, value in zip(spec.lhs_free, key)
                )
            )
            if position < 0:
                # The class emptied out (every member moved away).
                spec_store.pop(key, None)
                continue
            live[key] = position
        if not live:
            return
        found = dict(
            evaluate_pattern(
                store, spec, index, self._const_checks(spec), list(live.values())
            )
        )
        for key in live:
            violations = found.get(key)
            if violations is None:
                spec_store.pop(key, None)
            else:
                spec_store[key] = violations

    def _const_checks(self, spec: PatternSpec) -> List[ConstCheck]:
        """The pattern's encoded ``Q^C`` checks, cached per dictionary version.

        The dictionary grows under repair — an expected constant absent at
        one evaluation can be interned by a later fix — so the encode is not
        stable across the whole run; but it *is* stable while the constant
        attributes' dictionary versions stand still, which is virtually
        every evaluation.
        """
        if not spec.constant_rhs:
            return []
        store = self._encoded
        versions = tuple(
            store.dictionary_version(attr) for attr, _expected in spec.constant_rhs
        )
        cached = self._const_cache.get(spec.spec_id)
        if cached is not None and cached[0] == versions:
            return cached[1]
        checks = encode_checks(store, spec)
        self._const_cache[spec.spec_id] = (versions, checks)
        return checks

    def __repr__(self) -> str:
        return (
            f"RepairState({self._relation!r}, {len(self._cfds)} CFDs, "
            f"{self.violation_count()} violations)"
        )
