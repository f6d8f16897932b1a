"""In-memory CFD satisfaction checking and violation detection.

This module is the pure-Python *correctness oracle* for the SQL detection
techniques of Section 4: it implements the satisfaction semantics of
Section 2 (extended with the ``@`` don't-care symbol of Section 4.2)
directly over a :class:`~repro.relation.relation.Relation`.

Definition (Section 2, extended in Section 4.2.1): ``I |= (X → Y, Tp)`` iff
for each pair of tuples ``t1, t2`` in ``I`` and each pattern tuple ``tc`` in
``Tp``, if ``t1[X_free] = t2[X_free] ≍ tc[X_free]`` then
``t1[Y_free] = t2[Y_free] ≍ tc[Y_free]``, where ``X_free``/``Y_free`` are the
``@``-free attributes of ``tc``.

Like the paper's ``Q^C`` query, which joins the whole tableau against the
data at once, the oracle does not scan the relation once per pattern tuple.
It scans once per *constant-LHS mask* — the set of LHS positions a pattern
pins to constants — and finds every pattern of that mask with one dict
lookup per tuple, so a CFD costs ``O(|I| x #masks + TABSZ)`` row reads
rather than ``O(|I| x TABSZ)``.  Values are read only through the row API
(``__iter__``, ``value``, ``project_row``): no codes, kernels or indexes,
so the verdict stays independent of the engines it judges.  The literal
per-pattern scan is kept as the executable specification in
``tests/oracle_spec.py``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.cfd import CFD
from repro.core.pattern import PatternValue
from repro.core.tableau import PatternTuple
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    Violation,
    ViolationReport,
)
from repro.relation.relation import Relation


def satisfies(relation: Relation, cfd: CFD) -> bool:
    """Whether ``relation |= cfd`` under the semantics of Section 2."""
    return not find_violations(relation, cfd)


def satisfies_all(relation: Relation, cfds: Iterable[CFD]) -> bool:
    """Whether ``relation |= Σ`` for the whole set ``Σ`` of CFDs."""
    return all(satisfies(relation, cfd) for cfd in cfds)


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
    # Both query shapes range over the same matching tuples; find them for
    # every pattern at once rather than once per pattern and query.
    matching = _matching_indices(relation, cfd)
    for pattern_index, pattern in enumerate(cfd.tableau):
        matches = matching[pattern_index]
        report.extend(
            _constant_violations(relation, cfd, pattern_index, pattern, matches)
        )
        report.extend(
            _variable_violations(relation, cfd, pattern_index, pattern, matches)
        )
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
def _matching_indices(relation: Relation, cfd: CFD) -> List[List[int]]:
    """Per pattern tuple, the indices of the tuples matching ``tc[X]``.

    Patterns are bucketed by mask (the schema positions of their constant
    LHS cells) and, within a bucket, keyed by those constants.  One scan
    per mask then looks every tuple up in its bucket.  A dict lookup
    compares by hash and identity before ``==``, so each hit is confirmed
    with the cells' own :meth:`~repro.core.pattern.PatternValue.matches`:
    a NaN object shared by a pattern and a tuple is found by the lookup but
    does not match.  Tuple values must be hashable, as for every backend.
    The empty mask (only ``_``/``@`` cells) matches every tuple, unscanned.
    """
    positions = relation.schema.positions(cfd.lhs)
    buckets: Dict[Tuple[int, ...], Dict[Any, List[int]]] = {}
    constants: List[List[Tuple[int, PatternValue]]] = []
    for pattern_index, pattern in enumerate(cfd.tableau):
        cells = [
            (position, pattern.lhs_cell(attr))
            for position, attr in zip(positions, cfd.lhs)
            if pattern.lhs_cell(attr).is_constant
        ]
        constants.append(cells)
        mask = tuple(position for position, _ in cells)
        values = [cell.value for _, cell in cells]
        # Shaped like ``itemgetter(*mask)(row)``: a scalar for one position.
        key = values[0] if len(values) == 1 else tuple(values)
        buckets.setdefault(mask, {}).setdefault(key, []).append(pattern_index)

    matching: List[List[int]] = [[] for _ in constants]
    for mask, by_key in buckets.items():
        if not mask:
            everything = list(range(len(relation)))
            for pattern_index in by_key[()]:
                matching[pattern_index] = everything
            continue
        key_of = itemgetter(*mask)
        for index, row in enumerate(relation):
            hits = by_key.get(key_of(row))
            if hits is None:
                continue
            for pattern_index in hits:
                if all(
                    cell.matches(row[position])
                    for position, cell in constants[pattern_index]
                ):
                    matching[pattern_index].append(index)
    return matching


def _constant_violations(
    relation: Relation,
    cfd: CFD,
    pattern_index: int,
    pattern: PatternTuple,
    matching: Sequence[int],
) -> List[Violation]:
    """Single-tuple violations of one pattern tuple (the ``Q^C`` semantics).

    ``matching`` holds the indices of the tuples matching the pattern's LHS,
    as computed for every pattern at once by :func:`_matching_indices`.
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
        for attr, cell in constant_rhs:
            actual = relation.value(index, attr)
            if actual != cell.value:
                violations.append(
                    ConstantViolation(
                        cfd_name=cfd.name,
                        pattern_index=pattern_index,
                        tuple_indices=(index,),
                        attribute=attr,
                        expected=cell.value,
                        actual=actual,
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
