"""Ablation: inlining pattern constants into the query text.

The paper's key engineering trick (Section 4.1) is to join the pattern tableau
as an ordinary table, which keeps the query text bounded by the embedded FD —
independent of how many pattern tuples the tableau holds.  The obvious
alternative is to *inline* every pattern tuple into the SQL text: one
conjunctive sub-query per pattern row, with the row's constants written as
literals.  This module implements that alternative so the design choice can be
ablated (see ``benchmarks/test_ablation_inline_vs_join.py``): the inlined
form produces SQL whose size grows linearly with TABSZ and that the database
must parse and plan on every execution, while the join form stays constant.
SQLite additionally caps compound SELECTs at ~500 arms, so the inlined form
cannot even express large tableaux — one more reason the paper's design is
the right one.
"""

from __future__ import annotations

from typing import List

from repro.core.cfd import CFD
from repro.core.tableau import PatternTuple
from repro.errors import SQLGenerationError
from repro.sql.dialect import DEFAULT_DIALECT, SQLDialect


class InlineCFDQueryBuilder:
    """Builds detection SQL with every pattern tuple inlined as literals.

    Semantically equivalent to :class:`repro.sql.single.SingleCFDQueryBuilder`
    (the tests check this); meant only as the ablation baseline for the
    paper's bounded-size tableau-join design.
    """

    def __init__(
        self, cfd: CFD, data_table: str, dialect: SQLDialect = DEFAULT_DIALECT
    ) -> None:
        self.cfd = cfd
        self.data_table = data_table
        self.dialect = dialect

    # ------------------------------------------------------------------ helpers
    def _data_col(self, attribute: str) -> str:
        return self.dialect.column("t", attribute)

    def _from_clause(self) -> str:
        return f"FROM {self.dialect.quote_identifier(self.data_table)} t"

    def _lhs_conjuncts(self, pattern: PatternTuple) -> List[str]:
        conjuncts = []
        for attribute in self.cfd.lhs:
            cell = pattern.lhs_cell(attribute)
            if cell.is_constant:
                conjuncts.append(
                    f"{self._data_col(attribute)} = {self.dialect.literal(cell.value)}"
                )
        return conjuncts

    # ------------------------------------------------------------------ queries
    def qc_sql(self) -> str:
        """The inlined ``Q^C_φ``: one sub-query per (pattern row, constant RHS attribute)."""
        index_col = self._data_col(self.dialect.index_column)
        branches: List[str] = []
        for pattern_index, pattern in enumerate(self.cfd.tableau):
            lhs_conjuncts = self._lhs_conjuncts(pattern)
            for attribute in self.cfd.rhs:
                cell = pattern.rhs_cell(attribute)
                if not cell.is_constant:
                    continue
                conjuncts = list(lhs_conjuncts)
                conjuncts.append(
                    f"{self._data_col(attribute)} <> {self.dialect.literal(cell.value)}"
                )
                branches.append(
                    f"SELECT {index_col} AS tuple_index, "
                    f"{pattern_index} AS pattern_index\n"
                    f"{self._from_clause()}\n"
                    f"WHERE {' AND '.join(conjuncts) if conjuncts else '1 = 1'}"
                )
        if not branches:
            # No constant RHS cells anywhere: Q^C can never return anything.
            return (
                f"SELECT {index_col} AS tuple_index, "
                f"-1 AS pattern_index\n{self._from_clause()}\nWHERE 1 = 0"
            )
        return "\nUNION ALL\n".join(branches)

    def qv_sql(self) -> str:
        """The inlined ``Q^V_φ``: per-pattern GROUP BY sub-queries, unioned."""
        if not self.cfd.rhs:
            raise SQLGenerationError("a CFD must have RHS attributes")
        group_columns = [self._data_col(attribute) for attribute in self.cfd.lhs]
        select_list = (
            ", ".join(
                f"{column} AS {self.dialect.quote_identifier(attr)}"
                for column, attr in zip(group_columns, self.cfd.lhs)
            )
            or "1 AS all_rows"
        )
        rhs_concat = self.dialect.concat(
            [self._data_col(attr) for attr in self.cfd.rhs]
        )
        group_by = f"GROUP BY {', '.join(group_columns)}\n" if group_columns else ""
        branches = []
        for pattern in self.cfd.tableau:
            conjuncts = self._lhs_conjuncts(pattern)
            where = " AND ".join(conjuncts) if conjuncts else "1 = 1"
            branches.append(
                f"SELECT DISTINCT {select_list}\n"
                f"{self._from_clause()}\n"
                f"WHERE {where}\n"
                f"{group_by}"
                f"HAVING COUNT(DISTINCT {rhs_concat}) > 1"
            )
        return "\nUNION\n".join(branches)

    def query_text_size(self) -> int:
        """Total characters of SQL — the quantity that grows with TABSZ here."""
        return len(self.qc_sql()) + len(self.qv_sql())
