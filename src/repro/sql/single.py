"""SQL generation for a single CFD: the query pair ``(Q^C_φ, Q^V_φ)`` of Section 4.1.

``Q^C_φ`` finds *single-tuple* violations (a tuple matches a pattern on ``X``
but clashes with a constant in the pattern's ``Y`` cells); ``Q^V_φ`` finds
*multi-tuple* violations (tuples agreeing on ``X`` and matching a pattern on
``X`` but taking more than one distinct ``Y`` value).  The pattern tableau is
joined as an ordinary table, so the query text is bounded by the size of the
embedded FD and independent of the number of pattern tuples.

Both queries are produced in two formulations of the WHERE clause:

* ``cnf`` — the conjunctive normal form given verbatim in the paper;
* ``dnf`` — the disjunctive normal form the paper's experiments found far
  friendlier to the optimizer (Figure 9(a)/(b)); the blow-up is exponential
  only in the number of attributes of the embedded FD, which is small.
"""

from __future__ import annotations

from itertools import product
from typing import List, Tuple

from repro.core.cfd import CFD
from repro.errors import SQLGenerationError
from repro.sql.dialect import DEFAULT_DIALECT, SQLDialect

QueryForm = str  # "cnf" | "dnf"

_VALID_FORMS = ("cnf", "dnf")


def _check_form(form: str) -> str:
    if form not in _VALID_FORMS:
        raise SQLGenerationError(
            f"unknown query form {form!r}; expected one of {_VALID_FORMS}"
        )
    return form


class SingleCFDQueryBuilder:
    """Builds the detection SQL for one CFD against one data table.

    Parameters
    ----------
    cfd:
        The CFD to check.
    data_table:
        Name of the table holding the relation instance.
    tableau_table:
        Name of the table holding the CFD's pattern tableau (one row per
        pattern tuple, LHS cells in ``x_<attr>`` columns, RHS cells in
        ``y_<attr>`` columns — see :class:`repro.sql.dialect.SQLDialect`).
    dialect:
        Rendering rules; defaults to the SQLite-friendly dialect.
    """

    def __init__(
        self,
        cfd: CFD,
        data_table: str,
        tableau_table: str,
        dialect: SQLDialect = DEFAULT_DIALECT,
    ) -> None:
        self.cfd = cfd
        self.data_table = data_table
        self.tableau_table = tableau_table
        self.dialect = dialect

    # ------------------------------------------------------------------ atoms
    def _data_col(self, attribute: str) -> str:
        return self.dialect.column("t", attribute)

    def _lhs_col(self, attribute: str) -> str:
        return self.dialect.column("tp", self.dialect.lhs_column(attribute))

    def _rhs_col(self, attribute: str) -> str:
        return self.dialect.column("tp", self.dialect.rhs_column(attribute))

    def _from_clause(self) -> str:
        data = self.dialect.quote_identifier(self.data_table)
        tableau = self.dialect.quote_identifier(self.tableau_table)
        return f"FROM {data} t, {tableau} tp"

    def _lhs_match_atoms(self, attribute: str) -> Tuple[str, str]:
        """The two atoms of ``t[X] ≍ tp[X]``: equality and wildcard."""
        data_col = self._data_col(attribute)
        pattern_col = self._lhs_col(attribute)
        marker = self.dialect.literal(self.dialect.wildcard_marker)
        return f"{data_col} = {pattern_col}", f"{pattern_col} = {marker}"

    def _rhs_mismatch_conjunction(self, attribute: str) -> str:
        """``t[Y] ≭ tp[Y]``: the constant cell exists and is contradicted."""
        data_col = self._data_col(attribute)
        pattern_col = self._rhs_col(attribute)
        marker = self.dialect.literal(self.dialect.wildcard_marker)
        return f"({data_col} <> {pattern_col} AND {pattern_col} <> {marker})"

    # ------------------------------------------------------------------ WHERE clauses
    def _lhs_where_cnf(self) -> List[str]:
        clauses = []
        for attribute in self.cfd.lhs:
            equality, wildcard = self._lhs_match_atoms(attribute)
            clauses.append(f"({equality} OR {wildcard})")
        return clauses

    def _lhs_where_dnf_disjuncts(self) -> List[List[str]]:
        """Every choice of one atom per LHS attribute — ``2^|X|`` conjunct lists."""
        per_attribute = [self._lhs_match_atoms(attribute) for attribute in self.cfd.lhs]
        if not per_attribute:
            return [[]]
        return [list(choice) for choice in product(*per_attribute)]

    def qc_where(self, form: QueryForm = "cnf") -> str:
        """The WHERE clause of ``Q^C_φ`` in the requested form."""
        _check_form(form)
        rhs_disjuncts = [
            self._rhs_mismatch_conjunction(attribute) for attribute in self.cfd.rhs
        ]
        if form == "cnf":
            clauses = self._lhs_where_cnf()
            clauses.append("(" + " OR ".join(rhs_disjuncts) + ")")
            return " AND ".join(clauses) if clauses else "1 = 1"
        disjuncts = []
        for lhs_conjuncts in self._lhs_where_dnf_disjuncts():
            for rhs in rhs_disjuncts:
                conjuncts = lhs_conjuncts + [rhs]
                disjuncts.append("(" + " AND ".join(conjuncts) + ")")
        return " OR ".join(disjuncts)

    def qv_where(self, form: QueryForm = "cnf") -> str:
        """The WHERE clause of ``Q^V_φ`` in the requested form."""
        _check_form(form)
        if form == "cnf":
            clauses = self._lhs_where_cnf()
            return " AND ".join(clauses) if clauses else "1 = 1"
        disjuncts = []
        for lhs_conjuncts in self._lhs_where_dnf_disjuncts():
            if not lhs_conjuncts:
                return "1 = 1"
            disjuncts.append("(" + " AND ".join(lhs_conjuncts) + ")")
        return " OR ".join(disjuncts)

    # ------------------------------------------------------------------ queries
    def qc_sql(self, form: QueryForm = "cnf") -> str:
        """``Q^C_φ``: the single-tuple (constant-clash) violation query.

        Selects the data table's index column and the matching pattern id so
        the result can be turned into structured violation objects.

        With ``form="cnf"`` the WHERE clause is the paper's conjunctive form.
        With ``form="dnf"`` the query is emitted as a UNION ALL of purely
        conjunctive sub-queries, one per DNF disjunct: this is how the
        disjuncts are presented to the optimizer as separately optimizable
        units (the paper's Section 5 observation that "care must be taken to
        present the complicated where clauses ... to the optimizer in a way
        that can be easily optimized"), and it is what lets SQLite drive each
        disjunct through the LHS index.  The number of sub-queries is
        ``|Y| · 2^|X|`` — bounded by the embedded FD, independent of TABSZ.
        """
        _check_form(form)
        index_col = self._data_col(self.dialect.index_column)
        pid = self.dialect.column("tp", self.dialect.pattern_id_column)
        select_clause = f"SELECT {index_col} AS tuple_index, {pid} AS pattern_index"
        from_clause = self._from_clause()
        if form == "cnf":
            return f"{select_clause}\n{from_clause}\nWHERE {self.qc_where('cnf')}"
        rhs_disjuncts = [
            self._rhs_mismatch_conjunction(attribute) for attribute in self.cfd.rhs
        ]
        branches: List[str] = []
        for lhs_conjuncts in self._lhs_where_dnf_disjuncts():
            for rhs in rhs_disjuncts:
                conjuncts = lhs_conjuncts + [rhs]
                where = " AND ".join(conjuncts)
                branches.append(f"{select_clause}\n{from_clause}\nWHERE {where}")
        return "\nUNION ALL\n".join(branches)

    def qv_sql(self, form: QueryForm = "cnf") -> str:
        """``Q^V_φ``: the multi-tuple violation query (GROUP BY ``X`` HAVING > 1 ``Y``).

        The ``"dnf"`` form wraps a UNION ALL of conjunctive matching
        sub-queries (one per DNF disjunct of the LHS match condition) in the
        GROUP BY, for the same optimizer reasons as :meth:`qc_sql`.
        """
        _check_form(form)
        group_columns = [self._data_col(attribute) for attribute in self.cfd.lhs]
        rhs_concat = self.dialect.concat(
            [self._data_col(attribute) for attribute in self.cfd.rhs]
        )
        select_list = (
            ", ".join(
                f"{column} AS {self.dialect.quote_identifier(attr)}"
                for column, attr in zip(group_columns, self.cfd.lhs)
            )
            or "1 AS all_rows"
        )
        group_by = f"GROUP BY {', '.join(group_columns)}\n" if group_columns else ""
        if form == "cnf":
            return (
                f"SELECT DISTINCT {select_list}\n"
                f"{self._from_clause()}\n"
                f"WHERE {self.qv_where('cnf')}\n"
                f"{group_by}"
                f"HAVING COUNT(DISTINCT {rhs_concat}) > 1"
            )
        inner_select_items = [
            f"{self._data_col(attr)} AS {self.dialect.quote_identifier(attr)}"
            for attr in self.cfd.lhs
        ]
        inner_select_items.extend(
            f"{self._data_col(attr)} AS {self.dialect.quote_identifier('rhs_' + attr)}"
            for attr in self.cfd.rhs
        )
        inner_select = ", ".join(inner_select_items)
        from_clause = self._from_clause()
        branches = []
        for lhs_conjuncts in self._lhs_where_dnf_disjuncts():
            where = " AND ".join(lhs_conjuncts) if lhs_conjuncts else "1 = 1"
            branches.append(f"SELECT {inner_select}\n{from_clause}\nWHERE {where}")
        inner = "\nUNION ALL\n".join(branches)
        outer_group_columns = [
            self.dialect.quote_identifier(attr) for attr in self.cfd.lhs
        ]
        outer_select = ", ".join(outer_group_columns) or "1 AS all_rows"
        outer_group_by = (
            f"GROUP BY {', '.join(outer_group_columns)}\n"
            if outer_group_columns
            else ""
        )
        outer_rhs_concat = self.dialect.concat(
            self.dialect.quote_identifier("rhs_" + attr) for attr in self.cfd.rhs
        )
        return (
            f"SELECT DISTINCT {outer_select}\n"
            f"FROM (\n{inner}\n) matched\n"
            f"{outer_group_by}"
            f"HAVING COUNT(DISTINCT {outer_rhs_concat}) > 1"
        )

    def qv_expansion_sql(self) -> str:
        """Fetch the tuples belonging to one violating ``X`` group.

        The paper notes that the complete violating tuples "can be easily
        obtained from the result of the two queries by means of a simple SQL
        query"; this is that query, parameterised by the group key
        (one ``?`` placeholder per LHS attribute).
        """
        if not self.cfd.lhs:
            return (
                f"SELECT {self._data_col(self.dialect.index_column)} AS tuple_index\n"
                f"FROM {self.dialect.quote_identifier(self.data_table)} t"
            )
        conditions = " AND ".join(
            f"{self._data_col(attribute)} = ?" for attribute in self.cfd.lhs
        )
        return (
            f"SELECT {self._data_col(self.dialect.index_column)} AS tuple_index\n"
            f"FROM {self.dialect.quote_identifier(self.data_table)} t\n"
            f"WHERE {conditions}"
        )
