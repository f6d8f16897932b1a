"""CFDs and standard FDs.

A conditional functional dependency (CFD) on a relation schema ``R`` is a
pair ``φ = (R: X → Y, Tp)`` where ``X → Y`` is a standard FD (the *embedded
FD*) and ``Tp`` is a pattern tableau over ``X ∪ Y`` (Section 2 of the paper).

Two special cases are provided as conveniences:

* a standard FD ``X → Y`` is the CFD whose tableau holds a single all-wildcard
  pattern tuple (:meth:`FD.to_cfd`);
* an instance-level FD is a CFD whose single pattern tuple holds only
  constants (:meth:`CFD.is_instance_level`).

Reasoning (Section 3) works on CFDs in *normal form*: a single RHS attribute
and a single pattern tuple.  :meth:`CFD.normalize` produces that form; the
original CFD is equivalent to the conjunction of its normalised parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.tableau import CellSpec, PatternTableau, PatternTuple
from repro.errors import CFDError
from repro.relation.schema import Schema


@dataclass(frozen=True)
class FD:
    """A standard functional dependency ``X → Y``.

    >>> f2 = FD(("CC", "AC"), ("CT",))
    >>> f2.to_cfd().tableau[0].is_variable_only()
    True
    """

    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]

    def __init__(self, lhs: Sequence[str], rhs: Sequence[str]) -> None:
        object.__setattr__(self, "lhs", tuple(lhs))
        object.__setattr__(self, "rhs", tuple(rhs))
        if not self.rhs:
            raise CFDError("an FD must have at least one RHS attribute")

    def to_cfd(self, name: Optional[str] = None) -> CFD:
        """Express the FD as a CFD with a single all-wildcard pattern tuple."""
        pattern = ["_"] * (len(self.lhs) + len(self.rhs))
        return CFD.build(self.lhs, self.rhs, [pattern], name=name)

    def __str__(self) -> str:
        return f"[{', '.join(self.lhs)}] -> [{', '.join(self.rhs)}]"


class CFD:
    """A conditional functional dependency ``(X → Y, Tp)``.

    Parameters
    ----------
    lhs, rhs:
        Attribute names of the embedded FD.  ``rhs`` must be non-empty;
        ``lhs`` may be empty (a "constant" CFD such as ``(∅ → B, (b))`` from
        Example 3.3).
    tableau:
        The pattern tableau.  Its LHS/RHS attribute sets must equal
        ``lhs``/``rhs``.
    name:
        Optional identifier used in reports and generated SQL table names.
    schema:
        Optional schema the CFD is defined on; when given, attribute names
        are validated against it.
    """

    __slots__ = ("_lhs", "_rhs", "_tableau", "_name", "_schema")

    def __init__(
        self,
        lhs: Sequence[str],
        rhs: Sequence[str],
        tableau: PatternTableau,
        name: Optional[str] = None,
        schema: Optional[Schema] = None,
    ) -> None:
        lhs = tuple(lhs)
        rhs = tuple(rhs)
        if not rhs:
            raise CFDError("a CFD must have at least one RHS attribute")
        if len(set(lhs)) != len(lhs):
            raise CFDError(f"duplicate attributes in CFD LHS {lhs}")
        if len(set(rhs)) != len(rhs):
            raise CFDError(f"duplicate attributes in CFD RHS {rhs}")
        if (
            set(tableau.lhs_attributes) != set(lhs)
            or set(tableau.rhs_attributes) != set(rhs)
        ):
            raise CFDError(
                "pattern tableau attributes do not match the embedded FD: "
                f"tableau ({tableau.lhs_attributes} -> {tableau.rhs_attributes}) "
                f"vs FD ({lhs} -> {rhs})"
            )
        if schema is not None:
            schema.validate_attributes(lhs)
            schema.validate_attributes(rhs)
        if len(tableau) == 0:
            raise CFDError("a CFD must have at least one pattern tuple")
        self._lhs = lhs
        self._rhs = rhs
        self._tableau = tableau
        self._name = name
        self._schema = schema

    # ------------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        lhs: Sequence[str],
        rhs: Sequence[str],
        patterns: Iterable[Union[Sequence[CellSpec], Mapping[str, CellSpec]]],
        name: Optional[str] = None,
        schema: Optional[Schema] = None,
    ) -> CFD:
        """Build a CFD from raw pattern rows (see :meth:`PatternTableau.build`).

        >>> phi1 = CFD.build(["CC", "ZIP"], ["STR"], [["44", "_", "_"]], name="phi1")
        >>> phi1.embedded_fd
        FD(lhs=('CC', 'ZIP'), rhs=('STR',))
        """
        if not tuple(rhs):
            raise CFDError("a CFD must have at least one RHS attribute")
        tableau = PatternTableau.build(lhs, rhs, patterns)
        return cls(lhs, rhs, tableau, name=name, schema=schema)

    @classmethod
    def from_fd(
        cls, fd: FD, name: Optional[str] = None, schema: Optional[Schema] = None
    ) -> CFD:
        """Wrap a standard FD as a CFD (single all-wildcard pattern tuple)."""
        pattern = ["_"] * (len(fd.lhs) + len(fd.rhs))
        return cls.build(fd.lhs, fd.rhs, [pattern], name=name, schema=schema)

    # ------------------------------------------------------------------ accessors
    @property
    def lhs(self) -> Tuple[str, ...]:
        """The LHS attributes ``X`` of the embedded FD."""
        return self._lhs

    @property
    def rhs(self) -> Tuple[str, ...]:
        """The RHS attributes ``Y`` of the embedded FD."""
        return self._rhs

    @property
    def attributes(self) -> Tuple[str, ...]:
        """``X ∪ Y`` preserving first-occurrence order."""
        seen: List[str] = []
        for attr in self._lhs + self._rhs:
            if attr not in seen:
                seen.append(attr)
        return tuple(seen)

    @property
    def tableau(self) -> PatternTableau:
        """The pattern tableau ``Tp``."""
        return self._tableau

    @property
    def name(self) -> str:
        """The CFD's identifier (auto-derived from the FD if not supplied)."""
        if self._name:
            return self._name
        return f"cfd_{'_'.join(self._lhs) or 'empty'}__{'_'.join(self._rhs)}"

    @property
    def schema(self) -> Optional[Schema]:
        return self._schema

    @property
    def embedded_fd(self) -> FD:
        """The standard FD ``X → Y`` embedded in this CFD."""
        return FD(self._lhs, self._rhs)

    # ------------------------------------------------------------------ classification
    def is_standard_fd(self) -> bool:
        """True when the tableau is a single all-wildcard pattern tuple."""
        return len(self._tableau) == 1 and self._tableau[0].is_variable_only()

    def is_instance_level(self) -> bool:
        """True when the tableau is one all-constant pattern tuple ([13])."""
        return len(self._tableau) == 1 and self._tableau[0].is_constant_only()

    def is_normal_form(self) -> bool:
        """True when the CFD has a single RHS attribute and a single pattern tuple."""
        return len(self._rhs) == 1 and len(self._tableau) == 1

    def uses_dontcare(self) -> bool:
        """True when any cell is the merged-tableau don't-care symbol ``@``."""
        for row in self._tableau:
            for cell in list(row.lhs.values()) + list(row.rhs.values()):
                if cell.is_dontcare:
                    return True
        return False

    # ------------------------------------------------------------------ transforms
    def normalize(self) -> List[CFD]:
        """Split into normal-form CFDs ``(X → A, tp)``, one per RHS attribute and row.

        The resulting set ``Σφ`` is equivalent to the original CFD
        (Section 3.2 of the paper).
        """
        parts: List[CFD] = []
        for row_index, row in enumerate(self._tableau):
            for attr in self._rhs:
                tableau = PatternTableau(
                    self._lhs,
                    (attr,),
                    [row.restrict(self._lhs, (attr,))],
                )
                suffix = f"{self.name}_r{row_index}_{attr}"
                parts.append(
                    CFD(self._lhs, (attr,), tableau, name=suffix, schema=self._schema)
                )
        return parts

    def with_schema(self, schema: Schema) -> CFD:
        """Attach (and validate against) a schema."""
        return CFD(self._lhs, self._rhs, self._tableau, name=self._name, schema=schema)

    def single_pattern(self) -> PatternTuple:
        """The unique pattern tuple of a normal-form CFD."""
        if len(self._tableau) != 1:
            raise CFDError(
                f"CFD {self.name} has {len(self._tableau)} pattern tuples, expected 1"
            )
        return self._tableau[0]

    # ------------------------------------------------------------------ dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CFD):
            return NotImplemented
        return (
            self._lhs == other._lhs
            and self._rhs == other._rhs
            and set(self._tableau.rows) == set(other._tableau.rows)
        )

    def __hash__(self) -> int:
        return hash((self._lhs, self._rhs, frozenset(self._tableau.rows)))

    def __repr__(self) -> str:
        return (
            f"CFD({self.name}: [{', '.join(self._lhs)}] -> [{', '.join(self._rhs)}], "
            f"{len(self._tableau)} patterns)"
        )

    def render(self) -> str:
        """Multi-line rendering: embedded FD followed by the tableau."""
        return f"{self.name}: {self.embedded_fd}\n{self._tableau.render()}"


def normalize_all(cfds: Iterable[CFD]) -> List[CFD]:
    """The normal form of ``cfds``: a CFD already in it is kept as is."""
    result: List[CFD] = []
    for cfd in cfds:
        result.extend([cfd] if cfd.is_normal_form() else cfd.normalize())
    return result
