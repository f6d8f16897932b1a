"""The compiled rule set: what every cleaning stage derives from the CFDs.

The paper decides consistency once for the whole set (Section 3.1) and
checks violations one pattern tuple at a time (Section 4).
:class:`CompiledRules` derives the verdict and the pattern specs once;
:meth:`repro.pipeline.Cleaner.clean` compiles its rules at the top, and the
pre-flight, detection, repair and the shard planner read them from it.  It
*is* the tuple of the CFDs, so any function taking ``cfds`` takes it.  The
oracle (:mod:`repro.core.satisfaction`) and :mod:`repro.sql` never read it,
so they stay independent of the code they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.cfd import CFD
from repro.core.pattern import PatternValue
from repro.reasoning.consistency import is_consistent
from repro.relation.schema import Schema


@dataclass(frozen=True)
class PatternSpec:
    """Everything needed to evaluate one pattern tuple against its class index."""

    spec_id: int
    cfd: CFD
    pattern_index: int
    #: ``@``-free LHS attributes in LHS order — the partition attributes,
    #: which detection, repair and the shard planner all read from here.
    lhs_free: Tuple[str, ...]
    #: LHS pattern cells aligned with ``lhs_free``.
    cells: Tuple[PatternValue, ...]
    #: ``(attribute, expected constant)`` per constant RHS cell.
    constant_rhs: Tuple[Tuple[str, Any], ...]
    #: non-``@`` RHS attributes in RHS order (the ``Q^V`` projection; the
    #: attributes a repair of the pattern writes).
    rhs_free: Tuple[str, ...]


def build_specs(cfds: Iterable[CFD]) -> List[PatternSpec]:
    """One :class:`PatternSpec` per pattern tuple, CFD by CFD in tableau order."""
    specs: List[PatternSpec] = []
    for cfd in cfds:
        for pattern_index, pattern in enumerate(cfd.tableau):
            lhs_free = tuple(
                attr for attr in cfd.lhs if not pattern.lhs_cell(attr).is_dontcare
            )
            specs.append(
                PatternSpec(
                    spec_id=len(specs),
                    cfd=cfd,
                    pattern_index=pattern_index,
                    lhs_free=lhs_free,
                    cells=tuple(pattern.lhs_cell(attr) for attr in lhs_free),
                    constant_rhs=tuple(
                        (attr, pattern.rhs_cell(attr).value)
                        for attr in cfd.rhs
                        if pattern.rhs_cell(attr).is_constant
                    ),
                    rhs_free=tuple(
                        attr
                        for attr in cfd.rhs
                        if not pattern.rhs_cell(attr).is_dontcare
                    ),
                )
            )
    return specs


class CompiledRules(Tuple[CFD, ...]):
    """The input CFDs, with the facts the stages derive from them.

    Each is computed on first use and kept: the pattern :attr:`specs` and the
    verdict of :meth:`consistent` per schema.  The set pickles as its CFDs
    only, so shard payloads never carry them.

    >>> from repro.datagen.cust import cust_cfds
    >>> rules = compile_rules(cust_cfds())
    >>> len(rules.specs) == sum(len(cfd.tableau) for cfd in rules)
    True
    """

    def __reduce__(self) -> Tuple[Any, ...]:
        return (CompiledRules, (tuple(self),))

    @cached_property
    def specs(self) -> Tuple[PatternSpec, ...]:
        return tuple(build_specs(self))

    @cached_property
    def _verdicts(self) -> Dict[Optional[Schema], bool]:
        return {}

    def consistent(self, schema: Optional[Schema] = None) -> bool:
        """Whether a nonempty instance satisfies the set (Section 3.1).

        Decided once per schema.  A set consistent under a schema's finite
        domains is consistent without them: ``schema=None`` reuses a ``True``.
        The chase normalises on its own and keeps no parts.
        """
        verdicts = self._verdicts
        if schema not in verdicts:
            if schema is None and any(verdicts.values()):
                verdicts[schema] = True
            else:
                verdicts[schema] = is_consistent(self, schema)
        return verdicts[schema]

    @property
    def cross_shard_attributes(self) -> List[str]:
        """The attributes some pattern groups by and some fix writes, sorted.

        Only a write to a grouping attribute can move a tuple into another
        class, possibly in another shard (see ``docs/parallel.md``).
        """
        grouping = {attr for spec in self.specs for attr in spec.lhs_free}
        written = {attr for spec in self.specs for attr in spec.rhs_free}
        return sorted(grouping & written)


def compile_rules(cfds: Union[CFD, Iterable[CFD]]) -> CompiledRules:
    """``cfds`` as a :class:`CompiledRules`; a compiled set is returned as is."""
    if isinstance(cfds, CompiledRules):
        return cfds
    return CompiledRules([cfds] if isinstance(cfds, CFD) else cfds)
