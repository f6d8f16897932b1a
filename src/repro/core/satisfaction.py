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
lookup per tuple, so a CFD costs ``O(|I| x #masks + TABSZ)`` tuple reads
rather than ``O(|I| x TABSZ)``.

Values are read only through the row API's projection,
``relation.project_rows(attrs(φ))``, called once per CFD on whatever
storage the relation uses (rows, a column store in any state, memory-mapped
columns): ``O(|I| x |attrs(φ)|)`` cell reads per CFD, with one CFD's
columns in memory at a time.  Positions and key getters are resolved once
per pattern, not per cell.  No codes, kernels or indexes are used, so the
verdict stays independent of the engines it judges.  The literal
per-pattern scan is kept as the executable specification in
``tests/oracle_spec.py``.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.cfd import CFD
from repro.core.pattern import PatternValue
from repro.core.tableau import PatternTuple
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    Violation,
    ViolationReport,
)
from repro.relation.relation import Relation, Row, project_tuples


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
    attributes = cfd.attributes
    # Any storage serves the row API's projection; a plain list of tuples
    # over attrs(φ) is what every pattern below reads.
    rows = list(relation.project_rows(attributes))
    position = {attr: index for index, attr in enumerate(attributes)}
    # Both query shapes range over the same matching tuples; find them for
    # every pattern at once rather than once per pattern and query.
    matching = _matching_indices(rows, position, cfd)
    for pattern_index, pattern in enumerate(cfd.tableau):
        matches = matching[pattern_index]
        report.extend(
            _constant_violations(rows, position, cfd, pattern_index, pattern, matches)
        )
        report.extend(
            _variable_violations(rows, position, cfd, pattern_index, pattern, matches)
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
def _matching_indices(
    rows: Sequence[Row], position: Mapping[str, int], cfd: CFD
) -> List[Sequence[int]]:
    """Per pattern tuple, the indices of the tuples matching ``tc[X]``.

    ``rows`` are the tuples projected onto ``attrs(φ)`` and ``position``
    maps each of those attributes to its place in them.  Patterns are
    bucketed by mask (the positions of their constant LHS cells) and,
    within a bucket, keyed by those constants.  One scan per mask then
    looks every tuple up in its bucket.  A dict lookup compares by hash and
    identity before ``==``, so each hit is confirmed with the cells' own
    :meth:`~repro.core.pattern.PatternValue.matches`: a NaN object shared by
    a pattern and a tuple is found by the lookup but does not match.  Tuple
    values must be hashable, as for every backend.  The empty mask (only
    ``_``/``@`` cells) matches every tuple, unscanned.
    """
    buckets: Dict[Tuple[int, ...], Dict[Any, List[int]]] = {}
    constants: List[List[Tuple[int, PatternValue]]] = []
    for pattern_index, pattern in enumerate(cfd.tableau):
        cells = [
            (position[attr], pattern.lhs_cell(attr))
            for attr in cfd.lhs
            if pattern.lhs_cell(attr).is_constant
        ]
        constants.append(cells)
        mask = tuple(cell_position for cell_position, _ in cells)
        values = [cell.value for _, cell in cells]
        # Shaped like ``itemgetter(*mask)(row)``: a scalar for one position.
        key = values[0] if len(values) == 1 else tuple(values)
        buckets.setdefault(mask, {}).setdefault(key, []).append(pattern_index)

    matching: List[List[int]] = [[] for _ in constants]
    for mask, by_key in buckets.items():
        if not mask:
            continue
        key_of = itemgetter(*mask)
        for index, row in enumerate(rows):
            hits = by_key.get(key_of(row))
            if hits is None:
                continue
            for pattern_index in hits:
                if all(
                    cell.matches(row[cell_position])
                    for cell_position, cell in constants[pattern_index]
                ):
                    matching[pattern_index].append(index)
    return [
        hits if cells else range(len(rows)) for hits, cells in zip(matching, constants)
    ]


def _constant_violations(
    rows: Sequence[Row],
    position: Mapping[str, int],
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
        (attr, position[attr], pattern.rhs_cell(attr).value)
        for attr in cfd.rhs
        if pattern.rhs_cell(attr).is_constant
    ]
    if not constant_rhs:
        return violations
    for index in matching:
        row = rows[index]
        for attr, cell_position, expected in constant_rhs:
            actual = row[cell_position]
            if actual != expected:
                violations.append(
                    ConstantViolation(
                        cfd_name=cfd.name,
                        pattern_index=pattern_index,
                        tuple_indices=(index,),
                        attribute=attr,
                        expected=expected,
                        actual=actual,
                    )
                )
    return violations


def _variable_violations(
    rows: Sequence[Row],
    position: Mapping[str, int],
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
    groups: Dict[Row, List[int]] = defaultdict(list)
    keys = project_tuples(
        map(rows.__getitem__, matching),
        [position[attr] for attr in lhs_free],
        len(matching),
    )
    for index, key in zip(matching, keys):
        groups[key].append(index)
    # Only the number of distinct Y_free projections counts, so one
    # position may stay a bare value.
    rhs_of = itemgetter(*(position[attr] for attr in rhs_free))
    for key, indices in groups.items():
        if len(indices) < 2:
            continue
        if len(set(map(rhs_of, map(rows.__getitem__, indices)))) > 1:
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
