"""Partition-indexed CFD violation detection (the ``method="indexed"`` backend).

Implements exactly the satisfaction semantics of the in-memory oracle
(:mod:`repro.core.satisfaction`) but replaces its row scans and per-pattern
value grouping with one class index per distinct ``@``-free LHS attribute tuple
(:mod:`repro.detection.partition_index`), shared across patterns and CFDs:

* the relation is partitioned **once** per LHS, not once per pattern — a
  CFD with a 1K-row tableau (or 1K constant CFDs over the same LHS) triggers
  a single grouping pass;
* each pattern tuple is one :func:`evaluate_pattern` call: its LHS constants
  select classes (one lookup when every LHS cell is a constant), and one
  ``evaluate_classes`` kernel call runs the ``Q^C`` and ``Q^V`` checks of
  every selected class; only reporting classes materialise members.

:func:`evaluate_pattern` is the one evaluation of this package: the
incremental repair state (:class:`~repro.repair.incremental.RepairState`)
builds its initial report with it too.  Both read the pattern specs from
the compiled rule set (:attr:`repro.rules.CompiledRules.specs`), so one
``clean()`` builds them once.  Reports come out in
:func:`canonical_order`, the oracle's order, so they are
violation-for-violation identical to the oracle's, sequence included.  See
``docs/detection.md`` for the complexity analysis.
"""

from __future__ import annotations

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

from repro.config import DEFAULT_KERNEL, DEFAULT_STORAGE, resolve_storage
from repro.core.cfd import CFD
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    Violation,
    ViolationReport,
)
from repro.detection.partition_index import ClassIndex, PartitionIndexCache
from repro.errors import DetectionError
from repro.kernels import active_kernel, use_kernel
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation, Row
from repro.relation.schema import Schema
from repro.rules import PatternSpec, compile_rules

#: One encoded ``Q^C`` check: ``(attribute, code column, expected code,
#: expected value)``; the code is ``None`` when no cell holds the value.
ConstCheck = Tuple[str, Any, Optional[int], Any]


# ---------------------------------------------------------------------------
# one-shot functions
# ---------------------------------------------------------------------------
def find_violations_indexed(
    relation: Relation,
    cfds: Union[CFD, Iterable[CFD]],
    cache: Optional[PartitionIndexCache] = None,
) -> ViolationReport:
    """All violations of ``cfds`` in ``relation``, via class indexes.

    Identical to :func:`repro.core.satisfaction.find_all_violations`, order
    included; pass a :class:`PartitionIndexCache` built for the *same*
    relation to share class indexes across calls.  Both checks run over
    dictionary codes: a relation that is not a :class:`ColumnStore` is
    encoded once, by the cache.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> report = find_violations_indexed(cust_relation(), cust_cfds())
    >>> sorted(report.violating_indices())
    [0, 1, 2, 3]
    """
    rules = compile_rules(cfds)
    if cache is None:
        cache = PartitionIndexCache(relation)
    elif cache.relation is not relation:
        raise DetectionError(
            "cache was built for a different relation; its tuple indices would "
            "not line up with the relation being checked"
        )
    store = cache.store
    violations: List[Violation] = []
    for spec in rules.specs:
        index = cache.get(spec.lhs_free)
        checks = encode_checks(store, spec)
        for _key, found in evaluate_pattern(store, spec, index, checks):
            violations.extend(found)
    return ViolationReport(canonical_order(violations, rules))


def find_cfd_violations_indexed(
    relation: Relation,
    cfd: CFD,
    cache: Optional[PartitionIndexCache] = None,
) -> ViolationReport:
    """All violations of a single CFD (indexed counterpart of ``find_violations``)."""
    return find_violations_indexed(relation, [cfd], cache=cache)


# ---------------------------------------------------------------------------
# detector facade
# ---------------------------------------------------------------------------
class IndexedDetector:
    """Stateful facade mirroring :class:`~repro.sql.engine.SQLDetector`.

    Holds one :class:`PartitionIndexCache` for its relation, so successive
    :meth:`detect` calls — e.g. an interactive session checking CFD batches
    one at a time — reuse the class indexes already built.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> detector = IndexedDetector(cust_relation())
    >>> sorted(detector.detect(cust_cfds()).violating_indices())
    [0, 1, 2, 3]
    >>> detector.cache_stats()["misses"] >= 1
    True
    """

    def __init__(self, relation: Relation, cache_size: int = 32) -> None:
        self._relation = relation
        self._cache = PartitionIndexCache(relation, maxsize=cache_size)

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def cache(self) -> PartitionIndexCache:
        return self._cache

    def detect(self, cfds: Union[CFD, Sequence[CFD]]) -> ViolationReport:
        """Find every violation of ``cfds``, reusing cached class indexes."""
        return find_violations_indexed(self._relation, cfds, cache=self._cache)

    def invalidate(self) -> None:
        """Drop cached indexes after the underlying relation was mutated."""
        self._cache.clear()

    def cache_stats(self) -> Dict[str, int]:
        return self._cache.stats()

    def __repr__(self) -> str:
        return f"IndexedDetector({self._relation!r}, cache={self._cache!r})"


# ---------------------------------------------------------------------------
# streaming ingestion
# ---------------------------------------------------------------------------
def detect_stream(
    schema: Schema,
    rows: Iterable[Union[Row, Sequence[Any], Mapping[str, Any]]],
    cfds: Union[CFD, Sequence[CFD]],
    storage: str = DEFAULT_STORAGE,
    kernel: str = DEFAULT_KERNEL,
    spill_dir: Optional[str] = None,
) -> ViolationReport:
    """Detect violations over a row *stream* without materialising full rows.

    Rows (positional tuples in ``schema`` order, or mappings by attribute
    name) are projected onto the attributes the CFDs actually mention as
    they arrive and ingested a block at a time into an encoded store of that
    projection, so peak memory is ``O(N x |attrs(cfds)|)`` rather than
    ``O(N x |schema|)``, and the source (a CSV reader, a DB cursor) is read
    exactly once.  Detection then runs :func:`find_violations_indexed` over
    the projection.  ``storage`` picks where the encoded projection lives:
    ``storage="mmap"`` spills it to memory-mapped files under ``spill_dir``
    (:class:`~repro.relation.mmap_store.MmapColumnStore`), so even the
    retained code columns stay out of the Python heap.

    ``kernel`` picks the hot-loop implementation; see :mod:`repro.kernels`.
    Every kernel produces byte-identical reports.

    Reported tuple indices refer to positions in the input stream.
    """
    cfds = compile_rules(cfds)
    if not cfds:
        return ViolationReport()
    resolve_storage(storage)

    # Projection: keep only the attributes some CFD constrains.
    needed = [
        name for name in schema.names if any(name in cfd.attributes for cfd in cfds)
    ]
    for cfd in cfds:
        schema.validate_attributes(cfd.attributes)
    slim_schema = schema.project(needed)
    positions = schema.positions(needed)
    if storage == "mmap":
        from repro.relation.mmap_store import MmapColumnStore

        slim: ColumnStore = MmapColumnStore(slim_schema, spill_dir=spill_dir)
    else:
        slim = ColumnStore(slim_schema)

    def projected() -> Iterator[Row]:
        for row in rows:
            if isinstance(row, Mapping):
                yield tuple(row[name] for name in needed)
            else:
                yield tuple(row[position] for position in positions)

    slim.extend(projected())
    with use_kernel(kernel):
        return find_violations_indexed(slim, cfds)


# ---------------------------------------------------------------------------
# canonical violation order
# ---------------------------------------------------------------------------
def canonical_order(
    violations: Iterable[Violation], cfds: Sequence[CFD]
) -> List[Violation]:
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
            attr_rank = rhs_position.get(violation.cfd_name, {}).get(
                violation.attribute, 0
            )
            return (
                cfd_rank,
                violation.pattern_index,
                0,
                violation.tuple_indices[0],
                attr_rank,
            )
        return (
            cfd_rank, violation.pattern_index, 1, min(violation.tuple_indices), 0
        )

    return sorted(violations, key=key)


# ---------------------------------------------------------------------------
# per-pattern evaluation against a class index
# ---------------------------------------------------------------------------
def encode_checks(store: ColumnStore, spec: PatternSpec) -> List[ConstCheck]:
    """The pattern's ``Q^C`` checks against ``store``'s current dictionaries."""
    return [
        (attr, store.codes(attr), store.encode(attr, expected), expected)
        for attr, expected in spec.constant_rhs
    ]


def evaluate_pattern(
    store: ColumnStore,
    spec: PatternSpec,
    index: ClassIndex,
    checks: Sequence[ConstCheck],
    positions: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[Tuple[Any, ...], List[Violation]]]:
    """The violations of one pattern, class by class — one kernel call.

    ``index`` partitions ``store`` by ``spec.lhs_free`` and ``checks`` are
    the pattern's encoded ``Q^C`` checks (:func:`encode_checks`).  The
    pattern's LHS constants select the matching classes (every class when
    there are none), unless ``positions`` names the classes to evaluate (the
    repair state's dirty set, already known to match).  One
    ``evaluate_classes`` call then checks them all, and only the classes the
    kernel flags materialise members and decode their keys.  Yields
    ``(decoded class key, that class's violations)`` in the order of the
    evaluated classes.
    """
    if positions is None:
        constants: List[Tuple[int, int]] = []
        for offset, cell in enumerate(spec.cells):
            if cell.is_constant:
                code = store.encode(spec.lhs_free[offset], cell.value)
                if code is None:
                    # No cell ever held the constant: nothing matches this
                    # pattern, so it cannot be violated.
                    return
                constants.append((offset, code))
        if constants:
            positions = index.matching_positions(constants)
    if positions is None:
        indices, offsets = index.class_table()
    else:
        indices, offsets = _flatten_classes(index, positions)
    const_pairs = [(column, code) for _attr, column, code, _expected in checks]
    rhs_columns = store.project_codes(spec.rhs_free) if spec.rhs_free else ()
    for local, disagree, mismatches in active_kernel().evaluate_classes(
        rhs_columns, indices, offsets, const_pairs
    ):
        position = int(positions[local]) if positions is not None else local
        key = tuple(
            store.decode(attr, code)
            for attr, code in zip(spec.lhs_free, index.key_codes_at(position))
        )
        yield key, _class_violations(
            store, spec, checks, key, index.members_at(position), disagree, mismatches
        )


def _flatten_classes(index: ClassIndex, positions: Sequence[int]) -> Tuple[Any, Any]:
    """``(indices, offsets)`` of the given classes, the kernels' flat form.

    Up to eight classes — one all-constant pattern, or a typical mid-fixpoint
    repair batch — flatten as python lists, which skips the numpy gather
    round-trip the kernel's small-input fallback would undo anyway.
    """
    if len(positions) > 8:
        return index.gather(positions)
    indices: List[int] = []
    offsets: List[int] = []
    for position in positions:
        offsets.append(len(indices))
        indices.extend(index.members_at(position))
    return indices, offsets


def _class_violations(
    store: ColumnStore,
    spec: PatternSpec,
    checks: Sequence[ConstCheck],
    key: Tuple[Any, ...],
    members: Sequence[int],
    disagree: bool,
    mismatches: Sequence[Sequence[int]],
) -> List[Violation]:
    """Materialise one reported class's violations from kernel output.

    ``Q^C`` violations come first, tuple-major, then the single ``Q^V``
    violation over the full member list.
    """
    violations: List[Violation] = []
    if checks:
        violations.extend(
            _constant_code_violations(
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


def _constant_code_violations(
    store: ColumnStore,
    cfd_name: str,
    pattern_index: int,
    checks: Sequence[ConstCheck],
    per_check_mismatches: Sequence[Sequence[int]],
) -> Iterator[ConstantViolation]:
    """Emit ``Q^C`` violations of one class from per-check mismatch subsets.

    ``checks`` holds one ``(attribute, code column, expected code, expected
    value)`` entry per constant RHS cell and ``per_check_mismatches`` the
    aligned mismatching member subsets (each ascending).  Emission is
    tuple-major — all checks of tuple ``i`` before any check of tuple
    ``i+1`` — matching the scan oracle: the single-check case walks its
    subset directly, the multi-check case re-walks the sorted union against
    every check.
    """
    if len(checks) == 1:
        attr, column, _expected_code, expected = checks[0]
        for tuple_index in per_check_mismatches[0]:
            yield ConstantViolation(
                cfd_name=cfd_name,
                pattern_index=pattern_index,
                tuple_indices=(tuple_index,),
                attribute=attr,
                expected=expected,
                actual=store.decode(attr, column[tuple_index]),
            )
        return
    dirty: set = set()
    for mismatches in per_check_mismatches:
        dirty.update(mismatches)
    for tuple_index in sorted(dirty):
        for attr, column, expected_code, expected in checks:
            code = column[tuple_index]
            if code != expected_code:
                yield ConstantViolation(
                    cfd_name=cfd_name,
                    pattern_index=pattern_index,
                    tuple_indices=(tuple_index,),
                    attribute=attr,
                    expected=expected,
                    actual=store.decode(attr, code),
                )
