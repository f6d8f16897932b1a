"""SQL generation for a merged CFD set: the query pair ``(Q^C_Σ, Q^V_Σ)`` of Section 4.2.2.

The merged scheme validates an arbitrary number of CFDs with a single pair of
queries whose text is bounded by the number of attributes involved (never by
the number of CFDs or pattern tuples), and that read the data table only
twice.  The key construction is the ``Macro`` derived relation, which joins
the data with ``T^X_Σ``/``T^Y_Σ`` and uses ``CASE`` expressions to mask with
``@`` every attribute the matched pattern row does not care about; the
subsequent ``GROUP BY`` then effectively groups each tuple only on the
attributes its pattern row constrains.

One refinement over the paper's text: the GROUP BY key additionally contains
the pattern row's RHS *shape* (which RHS attributes are ``@``).  Without it,
pattern rows that constrain the same LHS attributes but different RHS
attributes could land in one group and produce spurious ``COUNT(DISTINCT …)``
hits; grouping by the shape keeps the merged query equivalent to running the
per-CFD queries.  The shape is a constant per pattern row, so the query size
stays bounded by the embedded FDs exactly as the paper requires.
"""

from __future__ import annotations

from typing import List

from repro.sql.dialect import DEFAULT_DIALECT, SQLDialect
from repro.sql.merge import MergedTableau


class MergedQueryBuilder:
    """Builds ``Q^C_Σ`` and ``Q^V_Σ`` for a merged tableau against one data table."""

    def __init__(
        self,
        merged: MergedTableau,
        data_table: str,
        x_table: str,
        y_table: str,
        dialect: SQLDialect = DEFAULT_DIALECT,
    ) -> None:
        self.merged = merged
        self.data_table = data_table
        self.x_table = x_table
        self.y_table = y_table
        self.dialect = dialect

    # ------------------------------------------------------------------ helpers
    def _data_col(self, attribute: str) -> str:
        return self.dialect.column("t", attribute)

    def _x_col(self, attribute: str) -> str:
        return self.dialect.column("tx", self.dialect.lhs_column(attribute))

    def _y_col(self, attribute: str) -> str:
        return self.dialect.column("ty", self.dialect.rhs_column(attribute))

    def _from_clause(self) -> str:
        data = self.dialect.quote_identifier(self.data_table)
        x_table = self.dialect.quote_identifier(self.x_table)
        y_table = self.dialect.quote_identifier(self.y_table)
        return f"FROM {data} t, {x_table} tx, {y_table} ty"

    def _join_condition(self) -> str:
        pid = self.dialect.pattern_id_column
        return f"{self.dialect.column('tx', pid)} = {self.dialect.column('ty', pid)}"

    def _lhs_match_clauses(self) -> List[str]:
        return [
            self.dialect.match_predicate(
                self._data_col(attr), self._x_col(attr), with_dontcare=True
            )
            for attr in self.merged.lhs_attributes
        ]

    # ------------------------------------------------------------------ Q^C_Σ
    def qc_sql(self) -> str:
        """``Q^C_Σ``: single-tuple violations of any merged pattern row."""
        mismatch = [
            self.dialect.mismatch_predicate(
                self._data_col(attr), self._y_col(attr), with_dontcare=True
            )
            for attr in self.merged.rhs_attributes
        ]
        where_clauses = [self._join_condition()] + self._lhs_match_clauses()
        where_clauses.append("(" + " OR ".join(mismatch) + ")")
        index_col = self._data_col(self.dialect.index_column)
        pattern_id = self.dialect.column("tx", self.dialect.pattern_id_column)
        return (
            f"SELECT {index_col} AS tuple_index, {pattern_id} AS pattern_id\n"
            f"{self._from_clause()}\n"
            f"WHERE {' AND '.join(where_clauses)}"
        )

    # ------------------------------------------------------------------ Macro and Q^V_Σ
    def macro_sql(self, include_index: bool = False) -> str:
        """The ``Macro`` derived relation: data joined on X and masked by ``@`` cells.

        ``include_index`` additionally projects the data table's index column,
        which the expansion query uses to recover violating tuples.
        """
        at_literal = self.dialect.literal(self.dialect.dontcare_marker)
        quote = self.dialect.quote_identifier
        select_items: List[str] = []
        for attr in self.merged.lhs_attributes:
            select_items.append(
                f"CASE {self._x_col(attr)} WHEN {at_literal} THEN {at_literal} "
                f"ELSE {self._data_col(attr)} END AS {quote('mx_' + attr)}"
            )
        for attr in self.merged.rhs_attributes:
            select_items.append(
                f"CASE {self._y_col(attr)} WHEN {at_literal} THEN {at_literal} "
                f"ELSE {self._data_col(attr)} END AS {quote('my_' + attr)}"
            )
        ymask_parts = [
            f"CASE {self._y_col(attr)} WHEN {at_literal} THEN '0' ELSE '1' END"
            for attr in self.merged.rhs_attributes
        ]
        select_items.append("(" + " || ".join(ymask_parts) + f") AS {quote('_ymask')}")
        if include_index:
            select_items.append(
                f"{self._data_col(self.dialect.index_column)} AS "
                f"{self.dialect.quote_identifier(self.dialect.index_column)}"
            )
        where_clauses = [self._join_condition()] + self._lhs_match_clauses()
        return (
            f"SELECT {', '.join(select_items)}\n"
            f"{self._from_clause()}\n"
            f"WHERE {' AND '.join(where_clauses)}"
        )

    def _group_columns(self) -> List[str]:
        columns = [
            self.dialect.quote_identifier("mx_" + attr)
            for attr in self.merged.lhs_attributes
        ]
        columns.append(self.dialect.quote_identifier("_ymask"))
        return columns

    def _distinct_rhs_expression(self) -> str:
        return self.dialect.concat(
            self.dialect.quote_identifier("my_" + attr)
            for attr in self.merged.rhs_attributes
        )

    def qv_sql(self) -> str:
        """``Q^V_Σ``: multi-tuple violations via GROUP BY over the masked ``Macro``."""
        group_columns = self._group_columns()
        return (
            f"SELECT DISTINCT {', '.join(group_columns)}\n"
            f"FROM ({self.macro_sql()}) tM\n"
            f"GROUP BY {', '.join(group_columns)}\n"
            f"HAVING COUNT(DISTINCT {self._distinct_rhs_expression()}) > 1"
        )

    def qv_expansion_sql(self) -> str:
        """Recover the tuple indices belonging to the violating ``Q^V_Σ`` groups.

        Returns one row per (group column values..., tuple index) so callers
        can attribute every recovered tuple to its violating group.
        """
        group_columns = self._group_columns()
        join_conditions = " AND ".join(
            f"tM.{column} = v.{column}" for column in group_columns
        )
        group_select = ", ".join(f"v.{column}" for column in group_columns)
        index_col = self.dialect.quote_identifier(self.dialect.index_column)
        return (
            f"SELECT DISTINCT {group_select}, tM.{index_col} AS tuple_index\n"
            f"FROM ({self.macro_sql(include_index=True)}) tM\n"
            f"JOIN ({self.qv_sql()}) v ON {join_conditions}"
        )
