"""The built-in analysis checks (diagnostic codes CFD001–CFD102).

Each check is a callable ``check(ctx) -> Iterable[Diagnostic]``; the fixed
:data:`CHECKS` tuple names them.

Codes group by family:

* ``CFD00x`` — properties of the rule set itself: consistency (the paper's
  Section 3.1), implication-based redundancy (Sections 3.2–3.3), and
  structural lint (names, normal form, schema conformance, duplicate
  patterns);
* ``CFD10x`` — engine-specific hazards: shapes that are *correct* but
  degrade a particular backend, today the sharded parallel engine.

The implication-based checks (CFD002/CFD003) are *deep*: they run the chase
once per normalised CFD (and once per LHS attribute), which is fine for
lint-time but not for a pre-flight gate in front of every cleaning run —
the pipeline gate passes ``deep=False``.  Deep checks are also *gated on
consistency*: implication from an inconsistent premise is vacuously true
(anything follows from a contradiction), so redundancy findings would be
meaningless noise once CFD001 fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.config import PARALLEL, DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.core.tableau import PatternTuple
from repro.reasoning.consistency import is_consistent
from repro.reasoning.implication import implies
from repro.reasoning.mincover import _drop_lhs_attribute
from repro.relation.schema import Schema
from repro.rules import CompiledRules

#: Normalised-CFD count above which the deep implication checks are skipped
#: (CFD009).  The chase behind :func:`~repro.reasoning.implication.implies`
#: is quadratic in the rule set, and the deep pass calls it once per part
#: plus once per (part, LHS attribute) — past this size lint latency would
#: dominate; ``repro lint`` still runs every structural check.
DEEP_CHECK_LIMIT = 200

#: Normalised-CFD count above which the CFD001 witness reports the whole
#: rule set instead of greedily shrinking it to a minimal conflicting core
#: (each shrink step is a full consistency test).
CORE_SHRINK_LIMIT = 60


@dataclass
class AnalysisContext:
    """Everything a check may inspect, for one :func:`analyze` run.

    ``cfds`` is compiled, so the facts the checks share (the consistency
    verdict and the pattern specs) are derived once.
    """

    cfds: CompiledRules
    schema: Optional[Schema] = None
    detection: Optional[DetectionConfig] = None
    repair: Optional[RepairConfig] = None
    deep: bool = False

    @property
    def parallel_requested(self) -> bool:
        """Whether either config explicitly asks for the sharded engine."""
        return bool(
            (self.detection is not None and self.detection.method == PARALLEL)
            or (self.repair is not None and self.repair.method == PARALLEL)
        )

    def hazard_severity(self) -> str:
        """CFD10x findings block nothing.  They are warnings when the user
        asked for ``method="parallel"`` and informational otherwise: no
        other method, ``"auto"`` included, runs the sharded engine."""
        return "warning" if self.parallel_requested else "info"


def _normal_form(cfds: Sequence[CFD]) -> List[Tuple[CFD, str]]:
    """``Σφ`` as ``(part, origin)``: ``origin`` names the CFD the user wrote."""
    return [(part, cfd.name) for cfd in cfds for part in cfd.normalize()]


# ---------------------------------------------------------------------------
# CFD001 — consistency
# ---------------------------------------------------------------------------
def _inconsistency_core(ctx: AnalysisContext) -> List[Tuple[CFD, str]]:
    """A (greedily minimised) inconsistent subset of the normalised parts.

    Follows the classic delta-debugging shrink: drop a part, and if the rest
    is still inconsistent the part was not needed for the conflict.  The
    result is a *minimal* core (every member necessary), which is the most
    useful witness a user can get — typically two or three patterns whose
    constants clash, out of a rule set of hundreds.
    """
    core = _normal_form(ctx.cfds)
    if len(core) > CORE_SHRINK_LIMIT:
        return core
    index = 0
    while index < len(core):
        candidate = core[:index] + core[index + 1 :]
        if candidate and not is_consistent([p for p, _ in candidate], ctx.schema):
            core = candidate
        else:
            index += 1
    return core


def check_consistency(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """CFD001: the rule set admits no nonempty satisfying instance."""
    if ctx.cfds.consistent(ctx.schema):
        return
    core = _inconsistency_core(ctx)
    origins = sorted({origin for _, origin in core})
    yield Diagnostic(
        code="CFD001",
        severity="error",
        message=(
            "rule set is inconsistent: no nonempty instance can satisfy it "
            f"(conflicting core: {', '.join(origins)})"
        ),
        check="consistency",
        cfd=origins[0] if len(origins) == 1 else None,
        hint="remove or relax one of the conflicting CFDs; "
        "every tuple matching their patterns would violate one of them",
        witness={
            "conflicting_cfds": origins,
            "core": [
                str(part.embedded_fd) + " | " + part.tableau.render().splitlines()[-1]
                for part, _ in core
            ],
            "core_size": len(core),
        },
    )


# ---------------------------------------------------------------------------
# CFD002 / CFD003 / CFD009 — implication-based redundancy (deep)
# ---------------------------------------------------------------------------
def check_redundancy(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """CFD002 (redundant CFD), CFD003 (redundant LHS attribute), CFD009 (skipped).

    Mirrors the two reduction phases of MinCover (Figure 4 of the paper)
    but *reports* instead of rewriting; ``analyze(optimize=True)`` does the
    rewrite via :func:`~repro.reasoning.mincover.minimal_cover`.
    """
    if not ctx.deep or not ctx.cfds:
        return
    if not ctx.cfds.consistent(ctx.schema):
        # Implication from an inconsistent Σ is vacuously true; CFD001
        # already tells the real story.
        return
    normalized = _normal_form(ctx.cfds)
    if len(normalized) > DEEP_CHECK_LIMIT:
        yield Diagnostic(
            code="CFD009",
            severity="info",
            message=(
                f"deep implication checks skipped: {len(normalized)} "
                f"normalised CFDs exceed the limit of {DEEP_CHECK_LIMIT}"
            ),
            check="redundancy",
            hint="run `repro lint --optimize` offline to compute the minimal cover",
        )
        return

    parts = [part for part, _origin in normalized]
    reported_redundant: Set[str] = set()
    for index, (part, origin) in enumerate(normalized):
        rest = parts[:index] + parts[index + 1 :]
        if rest and implies(rest, part, ctx.schema):
            if origin not in reported_redundant:
                reported_redundant.add(origin)
                yield Diagnostic(
                    code="CFD002",
                    severity="warning",
                    message=(
                        f"pattern {part.name} is implied by the rest of the "
                        "rule set (redundant)"
                    ),
                    check="redundancy",
                    cfd=origin,
                    hint="drop it, or rewrite the rule set to its minimal "
                    "cover with `repro lint --optimize`",
                )
            continue
        for attribute in part.lhs:
            reduced = _drop_lhs_attribute(part, attribute)
            if implies(parts, reduced, ctx.schema):
                yield Diagnostic(
                    code="CFD003",
                    severity="warning",
                    message=(
                        f"LHS attribute {attribute!r} of pattern {part.name} "
                        "is redundant: the dependency holds without it"
                    ),
                    check="redundancy",
                    cfd=origin,
                    attribute=attribute,
                    hint="narrower LHSs mean fewer partition keys; "
                    "`repro lint --optimize` drops redundant attributes",
                )


# ---------------------------------------------------------------------------
# CFD004 — duplicate names
# ---------------------------------------------------------------------------
def check_names(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """CFD004: two CFDs share a name.

    Violation reports, repair audit trails and the SQL detector's generated
    table names all address CFDs *by name* — duplicates silently attribute
    one rule's violations to another.
    """
    by_name: Dict[str, int] = {}
    for cfd in ctx.cfds:
        by_name[cfd.name] = by_name.get(cfd.name, 0) + 1
    for name, count in by_name.items():
        if count > 1:
            yield Diagnostic(
                code="CFD004",
                severity="error",
                message=f"{count} CFDs share the name {name!r}",
                check="names",
                cfd=name,
                hint="give each CFD a distinct name=...; reports and repairs "
                "address CFDs by name",
                witness={"name": name, "count": count},
            )


# ---------------------------------------------------------------------------
# CFD005 — non-normal-form CFDs
# ---------------------------------------------------------------------------
def check_normal_form(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """CFD005: a CFD with several RHS attributes or pattern rows."""
    for cfd in ctx.cfds:
        if cfd.is_normal_form():
            continue
        yield Diagnostic(
            code="CFD005",
            severity="info",
            message=(
                f"CFD {cfd.name} is not in normal form "
                f"({len(cfd.rhs)} RHS attribute(s), {len(cfd.tableau)} "
                "pattern row(s)); reasoning normalises it internally"
            ),
            check="normal-form",
            cfd=cfd.name,
            hint="CFD.normalize() splits it into equivalent "
            "single-RHS, single-pattern parts",
        )


# ---------------------------------------------------------------------------
# CFD006 / CFD007 — schema conformance
# ---------------------------------------------------------------------------
def _pattern_cells(cfd: CFD, row: PatternTuple):
    for attribute in cfd.lhs:
        yield attribute, row.lhs_cell(attribute)
    for attribute in cfd.rhs:
        yield attribute, row.rhs_cell(attribute)


def check_schema(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """CFD006 (constant outside a finite domain), CFD007 (unknown attribute).

    Both need a schema; without one the checks are silent.  A constant no
    tuple can ever carry makes its pattern dead weight at best — and, under
    repair, a value the engine may try to *write*, which the relation's own
    domain validation would then reject mid-run.
    """
    schema = ctx.schema
    if schema is None:
        return
    for cfd in ctx.cfds:
        missing = [attr for attr in cfd.attributes if attr not in schema]
        for attribute in missing:
            yield Diagnostic(
                code="CFD007",
                severity="error",
                message=(
                    f"CFD {cfd.name} mentions attribute {attribute!r} which "
                    f"is not in schema {schema.name!r}"
                ),
                check="schema",
                cfd=cfd.name,
                attribute=attribute,
                witness={"attribute": attribute, "schema": list(schema.names)},
            )
        if missing:
            continue
        for row in cfd.tableau:
            for attribute, cell in _pattern_cells(cfd, row):
                if not cell.is_constant:
                    continue
                declared = schema[attribute]
                if not declared.has_finite_domain:
                    continue
                domain = declared.domain
                assert domain is not None
                if cell.value not in domain:
                    yield Diagnostic(
                        code="CFD006",
                        severity="error",
                        message=(
                            f"constant {cell.value!r} for {attribute!r} in "
                            f"CFD {cfd.name} is outside the attribute's "
                            "finite domain"
                        ),
                        check="schema",
                        cfd=cfd.name,
                        attribute=attribute,
                        hint="no tuple can match (LHS) or satisfy (RHS) this "
                        "pattern; fix the constant or widen the domain",
                        witness={
                            "value": cell.value,
                            "domain": sorted(domain, key=repr),
                        },
                    )


# ---------------------------------------------------------------------------
# CFD008 — duplicate pattern rows
# ---------------------------------------------------------------------------
def check_patterns(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """CFD008: identical pattern rows within one tableau.

    Detection and repair cost scales with pattern count, and every duplicate
    row re-checks exactly the same partitions — a structural (non-chase)
    redundancy the linter catches even with deep checks off.
    """
    for cfd in ctx.cfds:
        counts: Dict[object, int] = {}
        first: Dict[object, PatternTuple] = {}
        for row in cfd.tableau:
            key = row.key()
            counts[key] = counts.get(key, 0) + 1
            first.setdefault(key, row)
        for key, count in counts.items():
            if count > 1:
                yield Diagnostic(
                    code="CFD008",
                    severity="warning",
                    message=(
                        f"pattern row {first[key]!r} appears {count} times in "
                        f"CFD {cfd.name}"
                    ),
                    check="patterns",
                    cfd=cfd.name,
                    hint="duplicate rows multiply detection work for no "
                    "effect; keep one copy",
                    witness={"pattern": repr(first[key]), "count": count},
                )


# ---------------------------------------------------------------------------
# CFD101 / CFD102 — parallel-engine hazards
# ---------------------------------------------------------------------------
def check_parallel_hazards(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """CFD101 (cross-shard reconcile forced), CFD102 (single-shard degenerate).

    Reads the sharded engine's own predicates off the compiled specs — the
    overlap the parallel repairer tests
    (:attr:`repro.rules.CompiledRules.cross_shard_attributes`) and the
    empty-grouping degenerate case of ``repro.parallel.sharding.components``
    — so the linter can never drift from what the engine actually does.
    """
    severity = ctx.hazard_severity()
    overlap = ctx.cfds.cross_shard_attributes
    if overlap:
        yield Diagnostic(
            code="CFD101",
            severity=severity,
            message=(
                "RHS attribute(s) "
                + ", ".join(map(repr, overlap))
                + " are also grouping (LHS) attributes: repairs can move "
                "tuples between shards, forcing the parallel engine's "
                "serial cross-shard reconcile pass"
            ),
            check="parallel-hazards",
            hint="expect a serial reconcile after the parallel passes; "
            "see docs/parallel.md",
            witness={"overlap": overlap},
        )
    for spec in ctx.cfds.specs:
        if spec.lhs_free:
            continue
        yield Diagnostic(
            code="CFD102",
            severity=severity,
            message=(
                f"pattern row {spec.pattern_index} of CFD {spec.cfd.name} has "
                "no @-free LHS attribute: it groups every tuple together, so "
                'method="parallel" degenerates to a single shard'
            ),
            check="parallel-hazards",
            cfd=spec.cfd.name,
            hint="such a rule serialises the sharded engine; prefer detection "
            'method="indexed" and repair method="incremental" for this rule set',
            witness={"pattern_row": spec.pattern_index},
        )


#: Every check by name, sorted: the order :func:`repro.analysis.analyze`
#: runs them in by default.
CHECKS = (
    ("consistency", check_consistency),
    ("names", check_names),
    ("normal-form", check_normal_form),
    ("parallel-hazards", check_parallel_hazards),
    ("patterns", check_patterns),
    ("redundancy", check_redundancy),
    ("schema", check_schema),
)
