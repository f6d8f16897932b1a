"""SQL dialect helpers: identifier quoting, literals, and pattern markers.

The paper treats the pattern tableau as an ordinary data table joined with the
relation, so the unnamed variable ``_`` and the don't-care symbol ``@`` must
be representable as column *values*.  The markers used for them are part of
the dialect so that tests (and users whose data legitimately contains ``_`` or
``@``) can change them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.core.pattern import PatternValue
from repro.errors import SQLGenerationError

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class SQLDialect:
    """Rendering rules for the generated SQL.

    The defaults target SQLite but the generated text is intentionally plain
    (ANSI joins in the FROM list, CASE expressions, GROUP BY / HAVING) so it
    also runs on DB2/PostgreSQL-style engines; the only SQLite-specific
    accommodation is that multi-column ``COUNT(DISTINCT a, b)`` is emulated by
    concatenating the columns with :attr:`concat_separator`.
    """

    wildcard_marker: str = "_"
    dontcare_marker: str = "@"
    concat_separator: str = "\x1f"
    lhs_prefix: str = "x_"
    rhs_prefix: str = "y_"
    index_column: str = "_idx"
    pattern_id_column: str = "pid"

    # ------------------------------------------------------------------ identifiers
    def quote_identifier(self, name: str) -> str:
        """Quote an identifier; reject names that cannot be quoted safely."""
        if '"' in name:
            raise SQLGenerationError(f"identifier {name!r} contains a double quote")
        if _IDENTIFIER_RE.match(name):
            return f'"{name}"'
        return f'"{name}"'

    def column(self, table_alias: str, name: str) -> str:
        """Render ``alias."name"``."""
        return f"{table_alias}.{self.quote_identifier(name)}"

    # ------------------------------------------------------------------ literals
    def literal(self, value: Any) -> str:
        """Render a Python value as a SQL literal."""
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, (int, float)):
            return repr(value)
        text = str(value).replace("'", "''")
        return f"'{text}'"

    # ------------------------------------------------------------------ pattern cells
    def encode_cell(self, cell: PatternValue) -> Any:
        """The value stored in a tableau table for a pattern cell."""
        if cell.is_wildcard:
            return self.wildcard_marker
        if cell.is_dontcare:
            return self.dontcare_marker
        return cell.value

    def lhs_column(self, attribute: str) -> str:
        """The tableau column storing a pattern's LHS cell for ``attribute``."""
        return f"{self.lhs_prefix}{attribute}"

    def rhs_column(self, attribute: str) -> str:
        """The tableau column storing a pattern's RHS cell for ``attribute``."""
        return f"{self.rhs_prefix}{attribute}"

    # ------------------------------------------------------------------ predicates
    def match_predicate(
        self, data_column: str, pattern_column: str, with_dontcare: bool = False
    ) -> str:
        """The ``t[X] ≍ tp[X]`` shorthand of Section 4.1 / 4.2.2.

        ``(t.X = tp.X OR tp.X = '_')``, extended with ``OR tp.X = '@'`` for
        merged tableaux.
        """
        clauses = [
            f"{data_column} = {pattern_column}",
            f"{pattern_column} = {self.literal(self.wildcard_marker)}",
        ]
        if with_dontcare:
            clauses.append(f"{pattern_column} = {self.literal(self.dontcare_marker)}")
        return "(" + " OR ".join(clauses) + ")"

    def mismatch_predicate(
        self, data_column: str, pattern_column: str, with_dontcare: bool = False
    ) -> str:
        """The ``t[Y] ≭ tp[Y]`` shorthand: a constant cell contradicted by the data."""
        clauses = [
            f"{data_column} <> {pattern_column}",
            f"{pattern_column} <> {self.literal(self.wildcard_marker)}",
        ]
        if with_dontcare:
            clauses.append(f"{pattern_column} <> {self.literal(self.dontcare_marker)}")
        return "(" + " AND ".join(clauses) + ")"

    def concat(self, columns: Any) -> str:
        """Concatenate columns with the dialect separator (multi-column DISTINCT emulation)."""
        columns = list(columns)
        if not columns:
            raise SQLGenerationError(
                "cannot build a DISTINCT expression over zero columns"
            )
        if len(columns) == 1:
            return columns[0]
        separator = self.literal(self.concat_separator)
        return f" || {separator} || ".join(columns)


DEFAULT_DIALECT = SQLDialect()
