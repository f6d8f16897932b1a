"""The literal reading of Section 2: one scan of the relation per pattern tuple.

This is the body of ``repro.core.satisfaction`` before the oracle learned to
scan once per constant-LHS mask, kept verbatim as the executable
specification of the satisfaction semantics:

* ``tests/core/test_oracle_spec.py`` asserts that the oracle returns the
  same :class:`~repro.core.violations.ViolationReport`, in the same order;
* the speed gates in ``benchmarks/`` time the engines against it (the
  ``"seed-scan"`` backend of ``benchmarks/timing.py``), so their floors keep
  the baseline they were written against.

Its cost is ``O(|I| x TABSZ)`` row reads per CFD, which is why it lives here
and not in the package.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.cfd import CFD
from repro.core.tableau import PatternTuple
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    Violation,
    ViolationReport,
)
from repro.relation.relation import Relation


def find_violations(relation: Relation, cfd: CFD) -> ViolationReport:
    """All violations of a single CFD in ``relation``.

    The detection mirrors the two SQL queries of Section 4.1:

    * constant violations (``Q^C``): a tuple matches ``tc[X]`` but clashes
      with a constant in ``tc[Y]``;
    * variable violations (``Q^V``): tuples sharing the same ``X_free``
      projection and matching ``tc[X]`` take more than one distinct
      ``Y_free`` projection.
    """
    report = ViolationReport()
    for pattern_index, pattern in enumerate(cfd.tableau):
        # Both query shapes range over the same matching tuples; scan for
        # them once per pattern rather than once per query.
        matching = _matching_indices(relation, cfd.lhs, pattern)
        report.extend(_constant_violations(relation, cfd, pattern_index, pattern, matching))
        report.extend(_variable_violations(relation, cfd, pattern_index, pattern, matching))
    return report


def find_all_violations(relation: Relation, cfds: Iterable[CFD]) -> ViolationReport:
    """All violations of every CFD in ``cfds``."""
    report = ViolationReport()
    for cfd in cfds:
        report.extend(find_violations(relation, cfd))
    return report


# ----------------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------------
def _matching_indices(
    relation: Relation, lhs_attrs: Sequence[str], pattern: PatternTuple
) -> List[int]:
    """Indices of tuples whose LHS projection matches ``pattern[X]``."""
    cells = [(attr, pattern.lhs_cell(attr)) for attr in lhs_attrs]
    positions = relation.schema.positions(lhs_attrs)
    matches: List[int] = []
    for index, row in enumerate(relation):
        ok = True
        for (attr, cell), position in zip(cells, positions):
            if not cell.matches(row[position]):
                ok = False
                break
        if ok:
            matches.append(index)
    return matches


def _constant_violations(
    relation: Relation,
    cfd: CFD,
    pattern_index: int,
    pattern: PatternTuple,
    matching: Sequence[int],
) -> List[Violation]:
    """Single-tuple violations of one pattern tuple (the ``Q^C`` semantics).

    ``matching`` holds the indices of the tuples matching the pattern's LHS,
    as computed once per pattern by :func:`find_violations`.
    """
    violations: List[Violation] = []
    constant_rhs = [
        (attr, pattern.rhs_cell(attr))
        for attr in cfd.rhs
        if pattern.rhs_cell(attr).is_constant
    ]
    if not constant_rhs:
        return violations
    for index in matching:
        row = relation.row_dict(index)
        for attr, cell in constant_rhs:
            if row[attr] != cell.value:
                violations.append(
                    ConstantViolation(
                        cfd_name=cfd.name,
                        pattern_index=pattern_index,
                        tuple_indices=(index,),
                        attribute=attr,
                        expected=cell.value,
                        actual=row[attr],
                    )
                )
    return violations


def _variable_violations(
    relation: Relation,
    cfd: CFD,
    pattern_index: int,
    pattern: PatternTuple,
    matching: Sequence[int],
) -> List[Violation]:
    """Multi-tuple violations of one pattern tuple (the ``Q^V`` semantics).

    ``matching`` is the shared per-pattern match list (see
    :func:`_constant_violations`).
    """
    violations: List[Violation] = []
    lhs_free = [attr for attr in cfd.lhs if not pattern.lhs_cell(attr).is_dontcare]
    rhs_free = [attr for attr in cfd.rhs if not pattern.rhs_cell(attr).is_dontcare]
    if not rhs_free:
        return violations
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for index in matching:
        key = relation.project_row(index, lhs_free) if lhs_free else ()
        groups.setdefault(key, []).append(index)
    for key, indices in groups.items():
        if len(indices) < 2:
            continue
        rhs_values = {relation.project_row(index, rhs_free) for index in indices}
        if len(rhs_values) > 1:
            violations.append(
                VariableViolation(
                    cfd_name=cfd.name,
                    pattern_index=pattern_index,
                    tuple_indices=tuple(indices),
                    attributes=tuple(lhs_free),
                    group_key=key,
                )
            )
    return violations
