"""Delta-maintained violation state for the repair loop.

The repair heuristic (Section 6) is an iterative fixpoint: detect violations,
fix some cells, detect again.  Re-running full detection on every pass costs
``O(passes x |Σ| x |I| x TABSZ)`` with the scan oracle — and even the
partition-indexed backend rebuilds its partition maps from scratch each time.
But a repair pass changes a handful of *cells*, and a single cell change can
only affect

* the patterns whose ``@``-free LHS or non-``@`` RHS mentions the changed
  attribute, and
* within such a pattern, the tuples of the changed tuple's *old* and *new*
  equivalence classes under the pattern's LHS partition.

:class:`RepairState` exploits exactly that.  It computes over the dictionary
codes of a :class:`~repro.relation.columnar.ColumnStore` (a plain relation
is encoded once on entry), through one of two index structures picked at
construction:

* the **dict path** (the python kernel, or a composite key too wide for
  ``int64``) keeps the dict-backed
  :class:`~repro.detection.partition_index.PartitionIndex` maps, moves a
  changed tuple between equivalence classes
  (:meth:`PartitionIndex.reindex_tuple`) and re-evaluates each dirty class
  with the kernel's ``Q^C``/``Q^V`` code checks;
* the **batched path** (a kernel advertising ``fused_repair_scan``) keeps
  the array-backed
  :class:`~repro.detection.partition_index.CodePartitionIndex` and resolves
  the *entire dirty class set* of a change batch with one
  ``evaluate_classes`` kernel call per pattern — gather the affected members
  into one array, reduce, materialise only what reports.

Both paths apply a change batch the same way
(:meth:`RepairState.apply_changes`) and produce byte-identical reports: the
python reference kernel defines the semantics, and evaluating every dirtied
class once at the post-batch state yields exactly what change-by-change
re-evaluation yields (a later change that could alter a class's verdict
necessarily re-dirties that class).  Reports are emitted in the *canonical
order* — the order the scan oracle produces — so the greedy repair
heuristic makes identical decisions no matter which detection engine (or
mode) feeds it.  See ``docs/repair.md`` for the complexity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cfd import CFD
from repro.core.pattern import PatternValue
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    Violation,
    ViolationReport,
)
from repro.detection.indexed import constant_code_violations
from repro.detection.partition_index import CodePartitionIndex, PartitionIndexCache
from repro.errors import DetectionError
from repro.kernels import active_kernel
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation


# ---------------------------------------------------------------------------
# canonical violation order
# ---------------------------------------------------------------------------
def canonical_order(violations: Iterable[Violation], cfds: Sequence[CFD]) -> List[Violation]:
    """Sort ``violations`` into the order the scan oracle reports them.

    The oracle (:func:`repro.core.satisfaction.find_all_violations`) emits,
    per CFD in input order and per pattern tuple in tableau order, first the
    constant violations (ascending tuple index, RHS attributes in CFD order)
    and then the variable violations (ascending smallest member index).  Every
    backend finds the same violation *set*; sorting by this key makes the
    *sequence* identical too, which is what lets the greedy repair heuristic
    reach the same repaired relation regardless of the detection engine
    driving it.  The sort is stable, so a report already in oracle order is
    returned unchanged.
    """
    cfd_position: Dict[str, int] = {}
    rhs_position: Dict[str, Dict[str, int]] = {}
    for position, cfd in enumerate(cfds):
        if cfd.name not in cfd_position:
            cfd_position[cfd.name] = position
            rhs_position[cfd.name] = {attr: i for i, attr in enumerate(cfd.rhs)}

    def key(violation: Violation) -> Tuple[int, int, int, int, int]:
        cfd_rank = cfd_position.get(violation.cfd_name, len(cfd_position))
        if isinstance(violation, ConstantViolation):
            attr_rank = rhs_position.get(violation.cfd_name, {}).get(violation.attribute, 0)
            return (cfd_rank, violation.pattern_index, 0, violation.tuple_indices[0], attr_rank)
        return (cfd_rank, violation.pattern_index, 1, min(violation.tuple_indices), 0)

    return sorted(violations, key=key)


# ---------------------------------------------------------------------------
# per-pattern metadata
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _PatternSpec:
    """Everything needed to evaluate one pattern tuple against one partition."""

    spec_id: int
    cfd: CFD
    pattern_index: int
    #: ``@``-free LHS attributes in LHS order — the partition attributes.
    lhs_free: Tuple[str, ...]
    lhs_positions: Tuple[int, ...]
    #: LHS pattern cells aligned with ``lhs_free``.
    cells: Tuple[PatternValue, ...]
    #: ``(attribute, expected constant)`` per constant RHS cell.
    constant_rhs: Tuple[Tuple[str, Any], ...]
    #: non-``@`` RHS attributes in RHS order (the ``Q^V`` projection).
    rhs_free: Tuple[str, ...]

    def key_matches(self, key: Tuple[Any, ...]) -> bool:
        """Whether a partition key matches this pattern's LHS constants."""
        return all(cell.matches(value) for cell, value in zip(self.cells, key))


def _build_specs(relation: Relation, cfds: Sequence[CFD]) -> List[_PatternSpec]:
    schema = relation.schema
    specs: List[_PatternSpec] = []
    for cfd in cfds:
        for pattern_index, pattern in enumerate(cfd.tableau):
            lhs_free = tuple(attr for attr in cfd.lhs if not pattern.lhs_cell(attr).is_dontcare)
            rhs_free = tuple(attr for attr in cfd.rhs if not pattern.rhs_cell(attr).is_dontcare)
            constant_rhs = tuple(
                (attr, pattern.rhs_cell(attr).value)
                for attr in cfd.rhs
                if pattern.rhs_cell(attr).is_constant
            )
            specs.append(
                _PatternSpec(
                    spec_id=len(specs),
                    cfd=cfd,
                    pattern_index=pattern_index,
                    lhs_free=lhs_free,
                    lhs_positions=schema.positions(lhs_free),
                    cells=tuple(pattern.lhs_cell(attr) for attr in lhs_free),
                    constant_rhs=constant_rhs,
                    rhs_free=rhs_free,
                )
            )
    return specs


# ---------------------------------------------------------------------------
# the incremental engine
# ---------------------------------------------------------------------------
class RepairState:
    """Violation state of ``relation`` against ``cfds``, maintained under cell changes.

    The relation is ingested once (one partition index per distinct ``@``-free
    LHS attribute tuple, shared across patterns and CFDs); the initial report
    is computed from those indexes exactly as the ``method="indexed"``
    detection backend would.  From then on :meth:`apply_change` /
    :meth:`apply_changes` keep both the indexes and the per-partition
    violation store correct in time proportional to the *touched* partitions,
    not the relation (see the module docstring for the two execution modes).

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

    def __init__(
        self,
        relation: Relation,
        cfds: Sequence[CFD],
        cache_size: Optional[int] = None,
    ) -> None:
        self._relation = relation
        self._encoded = (
            relation
            if isinstance(relation, ColumnStore)
            else ColumnStore.from_relation(relation)
        )
        self._cfds = list(cfds)
        self._specs = _build_specs(relation, self._cfds)

        # attribute -> specs whose LHS ∪ RHS mention it (the dirty-spec map).
        self._specs_by_attr: Dict[str, List[_PatternSpec]] = {}
        for spec in self._specs:
            for attr in dict.fromkeys(spec.lhs_free + spec.rhs_free):
                self._specs_by_attr.setdefault(attr, []).append(spec)

        distinct_lhs = {spec.lhs_free for spec in self._specs}
        # cache_size (RepairConfig.cache_size) below the number of distinct
        # LHS sets would evict live indexes and stale the store, so it only
        # ever widens the auto-sized cache.
        auto_size = max(32, len(distinct_lhs))
        self._cache = PartitionIndexCache(
            self._encoded, maxsize=max(auto_size, cache_size or 0)
        )

        # spec_id -> partition key -> violations of that pattern in that class.
        self._store: List[Dict[Tuple[Any, ...], List[Violation]]] = [
            {} for _ in self._specs
        ]
        # spec_id -> (dictionary versions, encoded Q^C checks) — see
        # _const_checks.
        self._const_cache: Dict[int, Tuple[Tuple[int, ...], List[Tuple[str, Any, Optional[int], Any]]]] = {}

        # The batched path needs a kernel whose batch primitives actually win
        # (fused_repair_scan); the python reference kernel takes the
        # dict-indexed path.
        self._batched = bool(getattr(active_kernel(), "fused_repair_scan", False))
        self._code_indexes: Dict[Tuple[str, ...], CodePartitionIndex] = {}
        if self._batched:
            try:
                for lhs_free in distinct_lhs:
                    self._code_indexes[lhs_free] = CodePartitionIndex(
                        self._encoded, lhs_free
                    )
            except DetectionError:
                # Composite-key overflow (astronomically wide dictionaries):
                # the array index cannot represent the partition, so run the
                # dict-indexed path instead.
                self._batched = False
                self._code_indexes.clear()

        if self._batched:
            self._build_initial_batched()
        else:
            # Pre-build every index: with maxsize >= the number of distinct
            # LHS tuples nothing is ever evicted, so apply_update sees them
            # all.
            for lhs_free in distinct_lhs:
                self._cache.get(lhs_free)
            for spec in self._specs:
                store = self._store[spec.spec_id]
                index = self._cache.get(spec.lhs_free)
                for key, indices in index.matching(spec.cells):
                    violations = self._evaluate(spec, tuple(key), indices)
                    if violations:
                        store[tuple(key)] = violations

        self._changes_applied = 0
        self._patterns_reevaluated = 0
        self._partitions_reevaluated = 0
        self._expected_version = relation.version

    def _build_initial_batched(self) -> None:
        """The initial report as one ``evaluate_classes`` call per pattern.

        The per-LHS :class:`CodePartitionIndex` hands every class over in
        flat array form (zero per-class materialisation); patterns with
        constant LHS cells first narrow the class set with one vectorised
        key comparison.  Only the classes the kernel flags materialise
        members and decode their keys.
        """
        kernel = active_kernel()
        store = self._encoded
        for spec in self._specs:
            spec_store = self._store[spec.spec_id]
            index = self._code_indexes[spec.lhs_free]
            checks = self._const_checks(spec)
            const_pairs = [(column, code) for _attr, column, code, _expected in checks]
            rhs_columns = store.project_codes(spec.rhs_free) if spec.rhs_free else ()
            constants: List[Tuple[int, int]] = []
            dead = False
            for offset, cell in enumerate(spec.cells):
                if cell.is_constant:
                    code = store.encode(spec.lhs_free[offset], cell.value)
                    if code is None:
                        # No cell ever held the constant: nothing matches
                        # this pattern, so it cannot be violated.
                        dead = True
                        break
                    constants.append((offset, code))
            if dead:
                continue
            if constants:
                positions = index.matching_positions(constants)
                indices, offsets = index.gather(positions)
            else:
                positions = None
                indices, offsets = index.class_table()
            for local, disagree, mismatches in kernel.evaluate_classes(
                rhs_columns, indices, offsets, const_pairs
            ):
                class_position = int(positions[local]) if positions is not None else local
                key = tuple(
                    store.decode(attr, code)
                    for attr, code in zip(spec.lhs_free, index.key_codes_at(class_position))
                )
                spec_store[key] = self._class_violations(
                    spec,
                    checks,
                    key,
                    index.members_at(class_position),
                    disagree,
                    mismatches,
                )

    # ------------------------------------------------------------------ queries
    @property
    def relation(self) -> Relation:
        """The relation whose violation state is being maintained."""
        return self._relation

    @property
    def cfds(self) -> Tuple[CFD, ...]:
        return tuple(self._cfds)

    @property
    def batched(self) -> bool:
        """Whether this state runs the array-backed batched path."""
        return self._batched

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
        return sum(len(violations) for store in self._store for violations in store.values())

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
        """Delta-maintenance counters (how little work apply_change did)."""
        return {
            "changes_applied": self._changes_applied,
            "patterns_reevaluated": self._patterns_reevaluated,
            "partitions_reevaluated": self._partitions_reevaluated,
            **{f"cache_{name}": value for name, value in self._cache.stats().items()},
        }

    # ------------------------------------------------------------------ the delta
    def apply_change(self, tuple_index: int, attribute: str, new_value: Any) -> bool:
        """Set one cell and repair the violation state by delta.

        Returns ``False`` (and changes nothing) when the cell already holds
        ``new_value``.  Otherwise the affected partition indexes move the
        tuple between equivalence classes in place, and only the patterns
        mentioning ``attribute`` are re-evaluated — over only the tuple's old
        and new classes.
        """
        return self.apply_changes([(tuple_index, attribute, new_value)]) > 0

    def apply_changes(self, changes: Sequence[Tuple[int, str, Any]]) -> int:
        """Apply a batch of cell changes and repair the state in one delta.

        Semantically identical to calling :meth:`apply_change` per entry, in
        order (no-op entries included); returns how many entries actually
        changed a cell.  The whole batch costs three bulk steps instead of
        per-change work: the cell updates themselves (collecting each
        change's old/new partition keys as the dirty set), the index
        maintenance, and one re-evaluation per dirty (pattern, class) pair —
        on the batched path **one scatter per touched partition index** and
        **one ``evaluate_classes`` kernel call per dirty pattern**.
        Evaluating each dirtied class once against the final state is exactly
        equivalent to the sequential delta: any intermediate change that
        could alter a class's verdict also dirties that class.
        """
        self._check_synchronized()
        encoded = self._encoded
        schema = encoded.schema
        # Evolving row snapshots: each change's old/new keys are computed
        # against the rows as they stand mid-batch (a tuple changed twice
        # dirties its intermediate class too).
        rows_now: Dict[int, List[Any]] = {}
        changed_attrs: Dict[int, Set[str]] = {}
        dirty: Dict[int, Dict[Tuple[Any, ...], None]] = {}
        applied = 0
        for tuple_index, attribute, new_value in changes:
            if encoded.codes(attribute)[tuple_index] == encoded.encode(
                attribute, new_value
            ):
                continue
            row = rows_now.get(tuple_index)
            if row is None:
                row = list(encoded[tuple_index])
            old_row = tuple(row)
            encoded.update(tuple_index, attribute, new_value)
            if encoded is not self._relation:
                self._relation.update(tuple_index, attribute, new_value)
            if not self._batched:
                self._cache.apply_update(tuple_index, attribute, old_row)
            row[schema.position(attribute)] = new_value
            rows_now[tuple_index] = row
            changed_attrs.setdefault(tuple_index, set()).add(attribute)
            applied += 1
            for spec in self._specs_by_attr.get(attribute, ()):
                self._patterns_reevaluated += 1
                keys = dirty.setdefault(spec.spec_id, {})
                keys[tuple(old_row[p] for p in spec.lhs_positions)] = None
                keys[tuple(row[p] for p in spec.lhs_positions)] = None
        if not applied:
            return 0
        self._changes_applied += applied
        self._expected_version = self._relation.version
        for lhs_free, index in self._code_indexes.items():
            if not lhs_free:
                continue
            moved = [
                tuple_index
                for tuple_index, attrs in changed_attrs.items()
                if attrs.intersection(lhs_free)
            ]
            if moved:
                index.apply_moves(moved)
        for spec in self._specs:
            keys = dirty.get(spec.spec_id)
            if not keys:
                continue
            if self._batched:
                self._reevaluate_batched(spec, list(keys))
            else:
                for key in keys:
                    self._reevaluate(spec, key)
        return applied

    def _reevaluate_batched(self, spec: _PatternSpec, keys: List[Tuple[Any, ...]]) -> None:
        """Recompute one pattern over its dirty classes — one kernel call."""
        store = self._encoded
        spec_store = self._store[spec.spec_id]
        index = self._code_indexes[spec.lhs_free]
        live: List[Tuple[Tuple[Any, ...], int]] = []
        for key in keys:
            self._partitions_reevaluated += 1
            if not spec.key_matches(key):
                # The class fell outside the pattern's LHS constants (e.g.
                # the changed tuple moved into a non-matching class): nothing
                # of this pattern can be violated there.
                spec_store.pop(key, None)
                continue
            position = index.find(
                tuple(store.encode(attr, value) for attr, value in zip(spec.lhs_free, key))
            )
            if position < 0:
                # The class emptied out (every member moved away).
                spec_store.pop(key, None)
                continue
            live.append((key, position))
        if not live:
            return
        checks = self._const_checks(spec)
        const_pairs = [(column, code) for _attr, column, code, _expected in checks]
        rhs_columns = store.project_codes(spec.rhs_free) if spec.rhs_free else ()
        positions = [position for _key, position in live]
        if len(positions) <= 8:
            # The typical mid-fixpoint batch dirties one or two small classes;
            # flattening them as python lists here skips the numpy gather
            # round-trip the kernel's small-input fallback would undo anyway.
            flat: List[int] = []
            offs: List[int] = []
            for position in positions:
                offs.append(len(flat))
                flat.extend(index.members_at(position))
            indices, offsets = flat, offs
        else:
            indices, offsets = index.gather(positions)
        findings = {
            local: (disagree, mismatches)
            for local, disagree, mismatches in active_kernel().evaluate_classes(
                rhs_columns, indices, offsets, const_pairs
            )
        }
        for local, (key, position) in enumerate(live):
            finding = findings.get(local)
            if finding is None:
                spec_store.pop(key, None)
                continue
            disagree, mismatches = finding
            spec_store[key] = self._class_violations(
                spec, checks, key, index.members_at(position), disagree, mismatches
            )

    def _reevaluate(self, spec: _PatternSpec, key: Tuple[Any, ...]) -> None:
        """Recompute one pattern's violations over one equivalence class."""
        self._partitions_reevaluated += 1
        store = self._store[spec.spec_id]
        if not spec.key_matches(key):
            # The class fell outside the pattern's LHS constants (e.g. the
            # changed tuple moved into a non-matching class): nothing of this
            # pattern can be violated there.
            store.pop(key, None)
            return
        indices = self._cache.get(spec.lhs_free).get(key)
        violations = self._evaluate(spec, key, indices)
        if violations:
            store[key] = violations
        else:
            store.pop(key, None)

    def _const_checks(self, spec: _PatternSpec) -> List[Tuple[str, Any, Optional[int], Any]]:
        """The pattern's encoded ``Q^C`` checks, cached per dictionary version.

        Each entry is ``(attribute, code column, expected code, expected
        value)``.  The dictionary grows under repair — an expected constant
        absent at one evaluation can be interned by a later fix — so the
        encode is not stable across the whole run; but it *is* stable while
        the constant attributes' dictionary versions stand still, which is
        virtually every evaluation.
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
        checks = [
            (attr, store.codes(attr), store.encode(attr, expected), expected)
            for attr, expected in spec.constant_rhs
        ]
        self._const_cache[spec.spec_id] = (versions, checks)
        return checks

    def _class_violations(
        self,
        spec: _PatternSpec,
        checks: Sequence[Tuple[str, Any, Optional[int], Any]],
        key: Tuple[Any, ...],
        members: Sequence[int],
        disagree: bool,
        mismatches: Sequence[Sequence[int]],
    ) -> List[Violation]:
        """Materialise one reported class's violations from kernel output.

        Both paths emit through here: ``Q^C`` violations tuple-major through
        the shared :func:`~repro.detection.indexed.constant_code_violations`
        helper, then the single ``Q^V`` violation over the full member list.
        """
        store = self._encoded
        violations: List[Violation] = []
        if checks:
            violations.extend(
                constant_code_violations(
                    store, spec.cfd.name, spec.pattern_index, checks, mismatches
                )
            )
        if disagree:
            violations.append(
                VariableViolation(
                    cfd_name=spec.cfd.name,
                    pattern_index=spec.pattern_index,
                    tuple_indices=tuple(members),
                    attributes=spec.lhs_free,
                    group_key=key,
                )
            )
        return violations

    def _evaluate(
        self, spec: _PatternSpec, key: Tuple[Any, ...], indices: Sequence[int]
    ) -> List[Violation]:
        """One pattern's violations over one equivalence class (assumed matching).

        The dict path's per-class check, mirroring the indexed detection
        backend: expected constants come pre-encoded from the version-keyed
        :meth:`_const_checks` cache, RHS agreement is code-projection
        cardinality through the active kernel, and values decode only into
        emitted violations.
        """
        kernel = active_kernel()
        checks = self._const_checks(spec)
        mismatches = [
            kernel.constant_mismatches(column, indices, expected_code)
            for _attr, column, expected_code, _expected in checks
        ]
        rhs_columns = self._encoded.project_codes(spec.rhs_free)
        disagree = (
            len(indices) > 1
            and bool(rhs_columns)
            and kernel.codes_disagree(rhs_columns, indices)
        )
        return self._class_violations(spec, checks, key, indices, disagree, mismatches)

    def __repr__(self) -> str:
        return (
            f"RepairState({self._relation!r}, {len(self._cfds)} CFDs, "
            f"{self.violation_count()} violations)"
        )
