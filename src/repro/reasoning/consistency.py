"""Consistency analysis of CFD sets (Section 3.1 of the paper).

The consistency problem asks whether a nonempty instance satisfying a set
``Σ`` of CFDs exists at all.  It is NP-complete in general (Theorem 3.1) but
decidable in ``O(|Σ|²)`` time when the schema is predefined or no attribute
in ``Σ`` has a finite domain (Theorem 3.2).  The algorithm implemented here
follows the chase sketched in the paper:

* CFD satisfaction is closed under sub-instances, so ``Σ`` is consistent iff
  some *single* tuple satisfies it;
* for attributes with unbounded domains the most general candidate tuple
  (one fresh value per attribute, specialised only when a CFD forces a
  constant) is a witness whenever any witness exists;
* attributes with finite domains are enumerated exhaustively, which is the
  source of intractability in the general case and a constant factor when the
  schema is predefined.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cfd import CFD, normalize_all
from repro.reasoning.chase import (
    ChaseConflict,
    SymbolicState,
    all_constants,
    single_tuple_chase,
)
from repro.relation.schema import Schema


def _attributes_of(cfds: Sequence[CFD], extra: Iterable[str] = ()) -> Tuple[str, ...]:
    """All attributes mentioned in the CFDs (plus ``extra``), in stable order."""
    seen: List[str] = []
    for cfd in cfds:
        for attribute in cfd.attributes:
            if attribute not in seen:
                seen.append(attribute)
    for attribute in extra:
        if attribute not in seen:
            seen.append(attribute)
    return tuple(seen)


def _finite_domains(
    attributes: Sequence[str], schema: Optional[Schema]
) -> Dict[str, Tuple[Any, ...]]:
    """Finite domains (from the schema) of the attributes that have one."""
    if schema is None:
        return {}
    domains: Dict[str, Tuple[Any, ...]] = {}
    for attribute in attributes:
        if attribute in schema and schema[attribute].has_finite_domain:
            domain = schema[attribute].domain
            assert domain is not None
            domains[attribute] = tuple(sorted(domain, key=repr))
    return domains


def _finite_assignments(
    domains: Dict[str, Tuple[Any, ...]]
) -> Iterable[Dict[str, Any]]:
    """Every total assignment of the finite-domain attributes."""
    if not domains:
        yield {}
        return
    names = list(domains)
    for values in itertools.product(*(domains[name] for name in names)):
        yield dict(zip(names, values))


def consistency_witness(
    cfds: Sequence[CFD],
    schema: Optional[Schema] = None,
    bindings: Optional[Dict[str, Any]] = None,
) -> Optional[Dict[str, Any]]:
    """A single tuple satisfying every CFD in ``cfds``, or ``None`` if none exists.

    ``bindings`` optionally pre-binds attributes to constants, which is how
    the ``(Σ, B = b)`` consistency test of Section 3.2 is expressed.
    """
    normalized = normalize_all(cfds)
    bindings = bindings or {}
    attributes = _attributes_of(normalized, extra=bindings)
    if not attributes:
        return {}
    domains = _finite_domains(attributes, schema)
    forbidden = all_constants(normalized)

    for assignment in _finite_assignments(domains):
        state = SymbolicState((0,), attributes)
        try:
            for attribute, value in bindings.items():
                state.bind(0, attribute, value)
            for attribute, value in assignment.items():
                state.bind(0, attribute, value)
            single_tuple_chase(normalized, state)
            concrete = state.instantiate(
                attributes, forbidden=forbidden, finite_domains=domains
            )
        except ChaseConflict:
            continue
        return concrete[0]
    return None


def is_consistent(cfds: Sequence[CFD], schema: Optional[Schema] = None) -> bool:
    """Whether a nonempty instance satisfying ``cfds`` exists (Theorem 3.2)."""
    return consistency_witness(cfds, schema=schema) is not None


def is_consistent_with_binding(
    cfds: Sequence[CFD],
    attribute: str,
    value: Any,
    schema: Optional[Schema] = None,
) -> bool:
    """The ``(Σ, B = b)`` consistency test used by inference rules FD7 and FD8.

    True iff some instance satisfies ``cfds`` *and* contains a tuple whose
    ``attribute`` equals ``value``.
    """
    return (
        consistency_witness(cfds, schema=schema, bindings={attribute: value})
        is not None
    )


def consistent_domain_values(
    cfds: Sequence[CFD],
    attribute: str,
    schema: Schema,
) -> Tuple[Any, ...]:
    """The values ``b`` of a finite-domain attribute with ``(Σ, B=b)`` consistent."""
    attr = schema[attribute]
    if not attr.has_finite_domain:
        raise ValueError(f"attribute {attribute!r} does not have a finite domain")
    assert attr.domain is not None
    values = tuple(sorted(attr.domain, key=repr))
    return tuple(
        value
        for value in values
        if is_consistent_with_binding(cfds, attribute, value, schema=schema)
    )
