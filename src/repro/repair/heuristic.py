"""A greedy, cost-based repair heuristic for CFD violations.

The paper proves that CFD repairing is NP-complete (Theorem 6.1), points out
that — unlike standard FDs — some violations can only be resolved by
modifying *LHS* attributes, and defers its heuristic algorithm to a later
report.  This module provides that deferred piece (flagged as an extension in
DESIGN.md), following the cost-based value-modification model the paper
cites:

1. **Constant violations** are resolved by overwriting the offending RHS cell
   with the pattern constant (the only value that satisfies the pattern).
2. **Variable violations** are resolved per group by moving every tuple of the
   group to the group's cheapest target value (the plurality value under the
   cost model).
3. If a cell keeps oscillating (a sign that RHS modification cannot resolve
   the conflict — the paper's Section 6 example), the heuristic falls back to
   modifying an LHS attribute of the cheapest tuple to a fresh value, which
   breaks the pattern match.

The algorithm re-checks satisfaction after every pass and stops when the
relation is clean or a pass budget is exhausted.  *How* satisfaction is
re-checked is pluggable (``method``):

* ``"incremental"`` (default) maintains the violation state under each cell
  change via :class:`repro.repair.incremental.RepairState` — the relation is
  ingested once into partition indexes and every pass reads the maintained
  report, so a pass costs work proportional to the cells it changed;
* ``"indexed"`` re-runs the partition-indexed detector from scratch on every
  check (full re-detection, but over indexes);
* ``"scan"`` re-runs the pure-Python scan oracle from scratch on every check —
  the seed behaviour, kept as the correctness baseline;
* ``"parallel"`` (registered by :mod:`repro.parallel.repairer`) is
  *self-driving*: instead of exposing ``report()``/``update()`` it implements
  the optional ``run(cost_model)`` hook, and :func:`repair` delegates the
  whole fixpoint to it — it shards the relation by LHS equivalence classes
  and runs the incremental engine per shard in a process pool.

All three methods feed the greedy policy the same violations in the same
canonical order (:func:`repro.repair.incremental.canonical_order`), so they
produce *identical* repairs; ``benchmarks/test_ablation_repair_incremental.py``
asserts both the agreement and the speedup.  The heuristic does not guarantee
minimum cost (that is the NP-complete part) but it does guarantee termination
and, on consistent CFD sets, the tests verify it reaches a clean instance on
all exercised workloads.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import RepairConfig
from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.core.violations import ConstantViolation, VariableViolation, ViolationReport
from repro.detection.indexed import find_violations_indexed
from repro.errors import ConfigError, InconsistentCFDsError, RegistryError, RepairError
from repro.kernels import active_kernel, use_kernel
from repro.reasoning.consistency import is_consistent
from repro.registry import COLUMNAR_REPAIRERS, apply_storage, register_repairer, resolve_repairer
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation
from repro.repair.cost import CodeDistanceCache, CostModel
from repro.repair.incremental import RepairState, canonical_order

#: The built-in engines (the ``"auto"`` selector is not an engine).  Kept
#: for backward compatibility; the authoritative list is
#: ``repro.registry.repairer_names()``.
REPAIR_METHODS = ("scan", "indexed", "incremental")


@dataclass(frozen=True)
class CellChange:
    """One attribute-value modification performed by the repair."""

    tuple_index: int
    attribute: str
    old_value: Any
    new_value: Any
    cost: float
    reason: str


@dataclass
class RepairResult:
    """The outcome of :func:`repair`."""

    relation: Relation
    changes: List[CellChange] = field(default_factory=list)
    clean: bool = False
    passes: int = 0
    #: Violations outstanding at the *start* of each pass (the pipeline's
    #: per-pass audit trail; monotonicity is not guaranteed pass-to-pass,
    #: reaching zero is what terminates the loop).
    pass_violation_counts: List[int] = field(default_factory=list)
    #: Execution statistics of the sharded parallel engine
    #: (:class:`repro.parallel.engine.ParallelStats`); ``None`` for the
    #: serial engines.  Typed loosely to keep this module import-light.
    parallel_stats: Optional[Any] = None

    @property
    def total_cost(self) -> float:
        return sum(change.cost for change in self.changes)

    def changed_cells(self) -> Set[Tuple[int, str]]:
        return {(change.tuple_index, change.attribute) for change in self.changes}

    def summary(self) -> Dict[str, Any]:
        return {
            "changes": len(self.changes),
            "total_cost": round(self.total_cost, 4),
            "clean": self.clean,
            "passes": self.passes,
        }


_FRESH_PREFIX = "__repaired"


# ---------------------------------------------------------------------------
# detection engines driving the repair loop (self-registering backends)
# ---------------------------------------------------------------------------
class _ScanEngine:
    """Full re-detection through the pure-Python oracle (the seed behaviour)."""

    def __init__(self, relation: Relation, cfds: Sequence[CFD], config: RepairConfig) -> None:
        self.relation = relation
        self._cfds = cfds

    def report(self) -> ViolationReport:
        report = find_all_violations(self.relation, self._cfds)
        return ViolationReport(canonical_order(report, self._cfds))

    def update(self, tuple_index: int, attribute: str, new_value: Any) -> None:
        self.relation.update(tuple_index, attribute, new_value)


class _IndexedEngine:
    """Full re-detection through the partition-index backend, rebuilt per check."""

    def __init__(self, relation: Relation, cfds: Sequence[CFD], config: RepairConfig) -> None:
        self.relation = relation
        self._cfds = cfds

    def report(self) -> ViolationReport:
        # The relation mutates between checks, so each detection starts from
        # a fresh cache — that full rebuild is exactly what the incremental
        # engine avoids.
        report = find_violations_indexed(self.relation, self._cfds)
        return ViolationReport(canonical_order(report, self._cfds))

    def update(self, tuple_index: int, attribute: str, new_value: Any) -> None:
        self.relation.update(tuple_index, attribute, new_value)


class _IncrementalEngine:
    """Delta-maintained violation state (:class:`RepairState`)."""

    def __init__(self, relation: Relation, cfds: Sequence[CFD], config: RepairConfig) -> None:
        self.relation = relation
        self._state = RepairState(relation, cfds, cache_size=config.cache_size)

    def report(self) -> ViolationReport:
        return self._state.report()

    def update(self, tuple_index: int, attribute: str, new_value: Any) -> None:
        self._state.apply_change(tuple_index, attribute, new_value)

    def update_many(self, changes: Sequence[Tuple[int, str, Any]]) -> None:
        """Apply one violation's cell changes as a single delta batch.

        On the batched repair path this is where the per-violation fan-out
        collapses: the state re-evaluates each dirty (pattern, class) pair
        once per *batch* instead of once per cell.
        """
        self._state.apply_changes(changes)


register_repairer("scan")(_ScanEngine)
register_repairer("indexed")(_IndexedEngine)
register_repairer("incremental")(_IncrementalEngine)


# ---------------------------------------------------------------------------
# the repair loop
# ---------------------------------------------------------------------------
def repair(
    relation: Relation,
    cfds: Sequence[CFD],
    cost_model: Optional[CostModel] = None,
    max_passes: int = 25,
    check_consistency: bool = True,
    method: str = "incremental",
    config: Optional[RepairConfig] = None,
) -> RepairResult:
    """Produce a repaired copy of ``relation`` satisfying ``cfds``.

    The input relation is not modified.  ``method`` selects the detection
    engine driving the passes — any name registered via
    :func:`repro.registry.register_repairer`, or ``"auto"`` to pick from the
    workload shape; every engine yields the same repaired relation, differing
    only in speed.  A :class:`~repro.config.RepairConfig` may be passed
    instead of the individual keywords (mutually exclusive with them).
    Raises :class:`~repro.errors.InconsistentCFDsError` when the CFD set has
    no satisfying instance at all (no repair can exist then).

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> result = repair(cust_relation(), cust_cfds())
    >>> result.clean
    True
    """
    cfds = list(cfds)
    if config is not None:
        if (
            cost_model is not None
            or max_passes != 25
            or check_consistency is not True
            or method != "incremental"
        ):
            raise RepairError(
                "pass either a RepairConfig or explicit keyword options, not both"
            )
    else:
        try:
            config = RepairConfig(
                method=method,
                max_passes=max_passes,
                check_consistency=check_consistency,
                cost_model=cost_model,
            )
        except ConfigError as error:
            raise RepairError(str(error)) from None
    try:
        name, engine_factory = resolve_repairer(config.method, relation, cfds)
    except RegistryError as error:
        raise RepairError(str(error)) from None
    config = config.with_method(name)
    if config.check_consistency and cfds and not is_consistent(cfds):
        raise InconsistentCFDsError("the CFD set is inconsistent; no repair exists")
    cost_model = config.cost_model or CostModel()
    # The columnar-capable engines work over a column store (the configured
    # columnar or mmap layer), the scan oracle over rows; when apply_storage
    # converts it already built a fresh object, otherwise copy — either way
    # the caller's relation is never mutated.
    converted = apply_storage(
        relation,
        config.effective_storage,
        name in COLUMNAR_REPAIRERS,
        spill_dir=config.spill_dir,
        memory_budget_mb=config.memory_budget_mb,
    )
    work = relation.copy() if converted is relation else converted
    # The configured kernel (see repro.kernels) is active for the whole
    # fixpoint: every engine's detection passes and the heuristic's own
    # distinct-projection votes all compute through it.  Kernels are
    # byte-identical, so this changes speed only.
    with use_kernel(config.effective_kernel):
        engine = engine_factory(work, cfds, config)
        runner = getattr(engine, "run", None)
        if callable(runner):
            # A self-driving engine (e.g. the sharded parallel backend) owns
            # the whole fixpoint; the greedy per-violation loop below never
            # runs.
            return runner(cost_model)
        result = RepairResult(relation=work)
        modification_counts: Dict[Tuple[int, str], int] = defaultdict(int)
        # Candidate pricing over dictionary codes, memoised across the whole
        # fixpoint (codes are stable, so entries never invalidate).
        code_costs = CodeDistanceCache(work) if isinstance(work, ColumnStore) else None

        for pass_number in range(1, config.max_passes + 1):
            result.passes = pass_number
            report = engine.report()
            result.pass_violation_counts.append(len(report))
            if report.is_clean():
                result.clean = True
                return result
            progressed = False
            for violation in report.constant_violations():
                progressed |= _fix_constant_violation(
                    engine, violation, cost_model, result, modification_counts
                )
            # Re-check after the forced constant fixes: they may already
            # resolve (or change the shape of) the variable violations.
            report = engine.report()
            if report.is_clean():
                result.clean = True
                return result
            for violation in report.variable_violations():
                progressed |= _fix_variable_violation(
                    engine,
                    violation,
                    cfds,
                    cost_model,
                    result,
                    modification_counts,
                    code_costs=code_costs,
                )
            if not progressed:
                raise RepairError(
                    "repair made no progress; giving up to avoid looping"
                )

        result.clean = engine.report().is_clean()
        return result


# ---------------------------------------------------------------------------
# individual fixes
# ---------------------------------------------------------------------------
def _fresh_value(attribute: str, old_value: Any, counter: int) -> str:
    """A deterministic replacement value for a last-resort LHS modification.

    The value is a pure function of the *cell being broken* — attribute, its
    current value, and how many times this cell was already modified — not of
    any global state (the old scheme numbered fresh values by the length of
    the global change list).  That makes the repair of an equivalence class a
    pure function of the class's own data, which is exactly what lets the
    sharded parallel engine reproduce the serial engines byte for byte.
    """
    return f"{_FRESH_PREFIX}_{attribute}_{counter}_{old_value}"


def _record_change(
    engine,
    result: RepairResult,
    counts: Dict[Tuple[int, str], int],
    tuple_index: int,
    attribute: str,
    new_value: Any,
    cost_model: CostModel,
    reason: str,
    pending: Optional[List[Tuple[int, str, Any]]] = None,
) -> bool:
    old_value = engine.relation.value(tuple_index, attribute)
    if old_value == new_value:
        return False
    if pending is None:
        engine.update(tuple_index, attribute, new_value)
    else:
        # Plan-then-apply: the caller flushes the whole violation's cells in
        # one _apply_planned batch.  Safe to defer because one violation
        # never plans the same cell twice, so the live reads above (and the
        # bookkeeping below) see exactly what sequential application would.
        pending.append((tuple_index, attribute, new_value))
    counts[(tuple_index, attribute)] += 1
    result.changes.append(
        CellChange(
            tuple_index=tuple_index,
            attribute=attribute,
            old_value=old_value,
            new_value=new_value,
            cost=cost_model.modification_cost(tuple_index, old_value, new_value),
            reason=reason,
        )
    )
    return True


def _apply_planned(engine, pending: List[Tuple[int, str, Any]]) -> None:
    """Flush one violation's planned cell changes into the engine.

    Engines exposing ``update_many`` (the incremental state) ingest the
    batch as a single delta — on the batched kernel path that means one
    partition-index scatter and one ``evaluate_classes`` call per dirty
    pattern for the whole violation.  Stateless engines apply cell by cell,
    which is equivalent because a violation's planned cells are distinct.
    """
    if not pending:
        return
    update_many = getattr(engine, "update_many", None)
    if callable(update_many):
        update_many(pending)
        return
    for tuple_index, attribute, new_value in pending:
        engine.update(tuple_index, attribute, new_value)


def _fix_constant_violation(
    engine,
    violation: ConstantViolation,
    cost_model: CostModel,
    result: RepairResult,
    counts: Dict[Tuple[int, str], int],
) -> bool:
    tuple_index = violation.tuple_index
    key = (tuple_index, violation.attribute)
    if counts[key] >= 3:
        # The RHS keeps being pushed back and forth: break the pattern match
        # by moving an LHS value out of the way instead (Section 6's point
        # that CFD repairs sometimes must touch the LHS).
        return _break_lhs_match(engine, tuple_index, violation.cfd_name, cost_model, result, counts)
    return _record_change(
        engine,
        result,
        counts,
        tuple_index,
        violation.attribute,
        violation.expected,
        cost_model,
        reason=f"constant violation of {violation.cfd_name}",
    )


def _resolve_variable_cfd(violation: VariableViolation, cfds: Sequence[CFD]) -> Optional[CFD]:
    """The CFD a variable violation came from.

    Violations carry only the CFD's *name*, and auto-derived names collide
    for CFDs over the same embedded FD — so a bare name match can resolve to
    the wrong CFD (whose same-index pattern may not even be able to produce a
    variable violation, wedging the repair).  Require everything the source
    pattern must satisfy: it exists, its ``@``-free LHS equals the violation's
    grouping attributes, its LHS cells match the group key, and it constrains
    at least one RHS attribute (else no variable violation could arise).
    """
    for candidate in cfds:
        if candidate.name != violation.cfd_name:
            continue
        if violation.pattern_index >= len(candidate.tableau):
            continue
        pattern = candidate.tableau[violation.pattern_index]
        lhs_free = tuple(
            attr for attr in candidate.lhs if not pattern.lhs_cell(attr).is_dontcare
        )
        if lhs_free != violation.attributes:
            continue
        if not all(
            pattern.lhs_cell(attr).matches(value)
            for attr, value in zip(lhs_free, violation.group_key)
        ):
            continue
        if not any(not pattern.rhs_cell(attr).is_dontcare for attr in candidate.rhs):
            continue
        return candidate
    return None


def _fix_variable_violation(
    engine,
    violation: VariableViolation,
    cfds: Sequence[CFD],
    cost_model: CostModel,
    result: RepairResult,
    counts: Dict[Tuple[int, str], int],
    code_costs: Optional[CodeDistanceCache] = None,
) -> bool:
    work = engine.relation
    cfd = _resolve_variable_cfd(violation, cfds)
    if cfd is None:
        raise RepairError(f"violation refers to unknown CFD {violation.cfd_name!r}")
    pattern = cfd.tableau[violation.pattern_index]
    rhs_free = [attr for attr in cfd.rhs if not pattern.rhs_cell(attr).is_dontcare]
    indices = list(violation.tuple_indices)
    if len(indices) < 2 or not rhs_free:
        return False

    # Choose the target RHS value: the plurality value, breaking ties by the
    # total cost of moving everyone else onto it.  Tuples are grouped by
    # their current projection first, so each candidate is priced with one
    # distance computation per *distinct* current value (per dictionary
    # entry pair on columnar storage) times the group's summed weight — not
    # one per cell.
    if isinstance(work, ColumnStore):
        # Distinct-projection pass over codes: the active kernel groups the
        # member indices by RHS code projection (first-occurrence order,
        # members ascending — exactly the row branch's insertion order) and
        # group weights accumulate in ascending member order
        # (CostModel.group_weight).  Candidates are priced as *code* tuples
        # through the version-cached distance matrix — codes biject onto
        # values, so the grouping, the accumulation order and every distance
        # match the row branch bit for bit; only the winning projection
        # decodes.
        if code_costs is None:
            code_costs = CodeDistanceCache(work)
        columns = list(work.project_codes(rhs_free))
        groups = list(active_kernel().group_projections(columns, indices))
        weight_by_codes: Dict[Tuple[int, ...], float] = {}
        code_by_index: Dict[int, Tuple[int, ...]] = {}
        for key_codes, members in groups:
            for index in members:
                code_by_index[index] = key_codes
            weight_by_codes[key_codes] = cost_model.group_weight(members)
        # Stable sort by descending group size reproduces
        # Counter.most_common(): ties stay in first-occurrence order.
        candidates = [
            key_codes for key_codes, _members in sorted(groups, key=lambda g: -len(g[1]))
        ]
        best_codes = None
        best_cost = None
        for candidate_codes in candidates:
            candidate_cost = 0.0
            for key_codes, weight in weight_by_codes.items():
                candidate_cost += code_costs.projection_cost(
                    weight, rhs_free, key_codes, candidate_codes
                )
            if best_cost is None or candidate_cost < best_cost:
                best_cost = candidate_cost
                best_codes = candidate_codes
        assert best_codes is not None
        best_value: Tuple[Any, ...] = tuple(
            work.decode(attr, code) for attr, code in zip(rhs_free, best_codes)
        )
        settled = {
            index for index, key_codes in code_by_index.items() if key_codes == best_codes
        }
    else:
        projections = {index: work.project_row(index, rhs_free) for index in indices}
        frequency = Counter(projections.values())
        weight_by_projection: Dict[Tuple[Any, ...], float] = {}
        for index, projection in projections.items():
            weight_by_projection[projection] = (
                weight_by_projection.get(projection, 0.0) + cost_model.weight(index)
            )
        value_candidates = [value for value, _count in frequency.most_common()]
        chosen = None
        best_cost = None
        for candidate_value in value_candidates:
            candidate_cost = 0.0
            for projection, weight in weight_by_projection.items():
                candidate_cost += cost_model.projection_cost(
                    weight, projection, candidate_value
                )
            if best_cost is None or candidate_cost < best_cost:
                best_cost = candidate_cost
                chosen = candidate_value
        assert chosen is not None
        best_value = chosen
        settled = {
            index for index, projection in projections.items() if projection == best_value
        }

    progressed = False
    pending: List[Tuple[int, str, Any]] = []
    for index in indices:
        if index in settled:
            continue
        if any(counts[(index, attribute)] >= 3 for attribute in rhs_free):
            progressed |= _break_lhs_match(
                engine, index, cfd.name, cost_model, result, counts, cfd=cfd,
                pending=pending,
            )
            continue
        for attribute, new_value in zip(rhs_free, best_value):
            progressed |= _record_change(
                engine,
                result,
                counts,
                index,
                attribute,
                new_value,
                cost_model,
                reason=f"variable violation of {cfd.name}",
                pending=pending,
            )
    _apply_planned(engine, pending)
    return progressed


def _break_lhs_match(
    engine,
    tuple_index: int,
    cfd_name: str,
    cost_model: CostModel,
    result: RepairResult,
    counts: Dict[Tuple[int, str], int],
    cfd: Optional[CFD] = None,
    pending: Optional[List[Tuple[int, str, Any]]] = None,
) -> bool:
    """Last-resort fix: move an LHS value to a fresh constant to break the match."""
    attributes: Sequence[str]
    if cfd is not None and cfd.lhs:
        attributes = cfd.lhs
    else:
        # Fall back to any attribute of the tuple that has been modified least.
        attributes = tuple(engine.relation.schema.names)
    attribute = min(attributes, key=lambda attr: counts[(tuple_index, attr)])
    fresh = _fresh_value(
        attribute,
        engine.relation.value(tuple_index, attribute),
        counts[(tuple_index, attribute)],
    )
    return _record_change(
        engine,
        result,
        counts,
        tuple_index,
        attribute,
        fresh,
        cost_model,
        reason=f"LHS modification to break the match of {cfd_name}",
        pending=pending,
    )
