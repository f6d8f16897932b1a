"""Merging the pattern tableaux of several CFDs (Section 4.2.1).

To validate a whole set ``Σ`` of CFDs with a single pair of SQL queries, the
paper first merges all pattern tableaux into one pair of union-compatible
tableaux:

* every tableau is extended to the union of all LHS (resp. RHS) attributes,
  filling the new columns with the don't-care symbol ``@``;
* because one attribute may be an LHS attribute for one CFD and an RHS
  attribute for another, the merged tableau is split into ``T^X_Σ`` (LHS
  cells) and ``T^Y_Σ`` (RHS cells), linked by a per-pattern tuple id.

:class:`MergedTableau` holds the result; :func:`merge_cfds` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.cfd import CFD
from repro.core.pattern import DONTCARE, PatternValue
from repro.core.tableau import PatternTableau, PatternTuple
from repro.errors import SQLGenerationError


@dataclass(frozen=True)
class MergedPatternRow:
    """One row of the merged tableau.

    ``pattern_id`` links the ``T^X_Σ`` and ``T^Y_Σ`` halves; ``source_cfd``
    and ``source_pattern_index`` record provenance for reporting.
    """

    pattern_id: int
    source_cfd: str
    source_pattern_index: int
    lhs_cells: Dict[str, PatternValue]
    rhs_cells: Dict[str, PatternValue]

    def lhs_cell(self, attribute: str) -> PatternValue:
        return self.lhs_cells.get(attribute, DONTCARE)

    def rhs_cell(self, attribute: str) -> PatternValue:
        return self.rhs_cells.get(attribute, DONTCARE)

    def ymask(self) -> Tuple[bool, ...]:
        """Which RHS attributes are free (non-``@``), in merged-attribute order.

        Used by the merged ``Q^V_Σ`` query to avoid mixing pattern rows with
        different RHS shapes inside one GROUP BY group.
        """
        return tuple(not cell.is_dontcare for cell in self.rhs_cells.values())


class MergedTableau:
    """The union-compatible merged tableau ``T_Σ`` split into its X and Y halves."""

    def __init__(
        self,
        lhs_attributes: Sequence[str],
        rhs_attributes: Sequence[str],
        rows: Sequence[MergedPatternRow],
    ) -> None:
        if not rows:
            raise SQLGenerationError("cannot merge an empty CFD set")
        self._lhs_attributes = tuple(lhs_attributes)
        self._rhs_attributes = tuple(rhs_attributes)
        self._rows = tuple(rows)

    @property
    def lhs_attributes(self) -> Tuple[str, ...]:
        """Union of the LHS attributes of every merged CFD (``T^X_Σ`` columns)."""
        return self._lhs_attributes

    @property
    def rhs_attributes(self) -> Tuple[str, ...]:
        """Union of the RHS attributes of every merged CFD (``T^Y_Σ`` columns)."""
        return self._rhs_attributes

    @property
    def rows(self) -> Tuple[MergedPatternRow, ...]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    # ------------------------------------------------------------------ views
    def x_rows(self) -> List[Tuple[int, Tuple[PatternValue, ...]]]:
        """``T^X_Σ``: (pattern id, LHS cells in column order) for every row."""
        return [
            (row.pattern_id, tuple(row.lhs_cell(attr) for attr in self._lhs_attributes))
            for row in self._rows
        ]

    def y_rows(self) -> List[Tuple[int, Tuple[PatternValue, ...]]]:
        """``T^Y_Σ``: (pattern id, RHS cells in column order) for every row."""
        return [
            (row.pattern_id, tuple(row.rhs_cell(attr) for attr in self._rhs_attributes))
            for row in self._rows
        ]

    def to_cfd(self, name: str = "merged") -> CFD:
        """The merged tableau as a single CFD using ``@`` cells (Figure 6).

        Useful for checking the merged semantics with the in-memory detector.
        """
        tableau = PatternTableau(
            self._lhs_attributes,
            self._rhs_attributes,
            [
                PatternTuple(
                    {attr: row.lhs_cell(attr) for attr in self._lhs_attributes},
                    {attr: row.rhs_cell(attr) for attr in self._rhs_attributes},
                )
                for row in self._rows
            ],
        )
        return CFD(self._lhs_attributes, self._rhs_attributes, tableau, name=name)

    def render(self) -> str:
        """Plain-text rendering of both halves (in the style of Figure 7)."""
        lines = ["T^X_Sigma:", "id\t" + "\t".join(self._lhs_attributes)]
        for pattern_id, cells in self.x_rows():
            lines.append(f"{pattern_id}\t" + "\t".join(cell.render() for cell in cells))
        lines.append("T^Y_Sigma:")
        lines.append("id\t" + "\t".join(self._rhs_attributes))
        for pattern_id, cells in self.y_rows():
            lines.append(f"{pattern_id}\t" + "\t".join(cell.render() for cell in cells))
        return "\n".join(lines)


def merge_cfds(cfds: Sequence[CFD]) -> MergedTableau:
    """Merge the tableaux of ``cfds`` into a single :class:`MergedTableau`.

    >>> from repro.datagen.cust import cust_cfds
    >>> merged = merge_cfds(cust_cfds())
    >>> len(merged) == sum(len(cfd.tableau) for cfd in cust_cfds())
    True
    """
    cfds = list(cfds)
    if not cfds:
        raise SQLGenerationError("cannot merge an empty CFD set")
    lhs_attributes: List[str] = []
    rhs_attributes: List[str] = []
    for cfd in cfds:
        for attribute in cfd.lhs:
            if attribute not in lhs_attributes:
                lhs_attributes.append(attribute)
        for attribute in cfd.rhs:
            if attribute not in rhs_attributes:
                rhs_attributes.append(attribute)

    rows: List[MergedPatternRow] = []
    pattern_id = 0
    for cfd in cfds:
        for pattern_index, pattern in enumerate(cfd.tableau):
            lhs_cells = {
                attribute: (
                    pattern.lhs_cell(attribute) if attribute in cfd.lhs else DONTCARE
                )
                for attribute in lhs_attributes
            }
            rhs_cells = {
                attribute: (
                    pattern.rhs_cell(attribute) if attribute in cfd.rhs else DONTCARE
                )
                for attribute in rhs_attributes
            }
            rows.append(
                MergedPatternRow(
                    pattern_id=pattern_id,
                    source_cfd=cfd.name,
                    source_pattern_index=pattern_index,
                    lhs_cells=lhs_cells,
                    rhs_cells=rhs_cells,
                )
            )
            pattern_id += 1
    return MergedTableau(lhs_attributes, rhs_attributes, rows)
