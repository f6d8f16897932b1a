"""Loading relations and pattern tableaux into SQLite.

The detection engine treats the pattern tableau exactly as the paper does —
as an ordinary table joined with the data — so both the relation instance and
every tableau are materialised as SQLite tables here.
"""

from __future__ import annotations

import re
import sqlite3
from itertools import count
from operator import add
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cfd import CFD
from repro.errors import DetectionError
from repro.relation.relation import Relation
from repro.sql.dialect import DEFAULT_DIALECT, SQLDialect
from repro.sql.merge import MergedTableau

_NAME_SANITIZER = re.compile(r"[^A-Za-z0-9_]")

#: What ``sqlite3`` raises for a parameter it cannot bind.
_BIND_ERRORS = (sqlite3.InterfaceError, sqlite3.ProgrammingError, OverflowError)


def sanitize_name(name: str) -> str:
    """Turn an arbitrary name into a safe SQL identifier fragment."""
    sanitized = _NAME_SANITIZER.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"t_{sanitized}"
    return sanitized


def data_table_name(relation: Relation) -> str:
    """The table name used for a relation instance."""
    return sanitize_name(relation.schema.name)


def tableau_table_name(cfd: CFD) -> str:
    """The table name used for a single CFD's pattern tableau."""
    return f"tab_{sanitize_name(cfd.name)}"


def load_relation(
    connection: sqlite3.Connection,
    relation: Relation,
    dialect: SQLDialect = DEFAULT_DIALECT,
    table_name: Optional[str] = None,
    attributes: Optional[Iterable[str]] = None,
) -> str:
    """Create and populate the data table; returns its name.

    The table holds the dialect's index column, which stores the row's
    position in the in-memory relation so that SQL results can be mapped
    back to :class:`Relation` indices, followed by ``attributes`` in schema
    order (every schema attribute when ``attributes`` is None).  The
    detection queries read only ``attrs(Σ)``, so :class:`SQLDetector` loads
    just those; the rows come from :meth:`Relation.project_rows`, which
    copies no row.  A cell SQLite cannot store raises
    :class:`~repro.errors.DetectionError` naming its attribute.
    """
    name = table_name or data_table_name(relation)
    names = relation.schema.names
    if attributes is not None:
        wanted = set(attributes)
        names = [attribute for attribute in names if attribute in wanted]
    quoted = dialect.quote_identifier(name)
    index_column = dialect.quote_identifier(dialect.index_column)
    columns = [f"{index_column} INTEGER PRIMARY KEY"]
    columns.extend(dialect.quote_identifier(attribute) for attribute in names)
    connection.execute(f"DROP TABLE IF EXISTS {quoted}")
    connection.execute(f"CREATE TABLE {quoted} ({', '.join(columns)})")
    placeholders = ", ".join(["?"] * len(columns))
    try:
        connection.executemany(
            f"INSERT INTO {quoted} VALUES ({placeholders})",
            map(add, zip(count()), relation.project_rows(names)),
        )
    except _BIND_ERRORS:
        # The rows before the refused one are in: their count is its index.
        index = connection.execute(f"SELECT COUNT(*) FROM {quoted}").fetchone()[0]
        connection.rollback()
        for attribute, value in zip(names, relation.project_row(index, names)):
            try:
                connection.execute("SELECT ?", (value,))
            except _BIND_ERRORS:
                raise DetectionError(
                    f"SQLite cannot store {value!r} ({type(value).__name__}) "
                    f"in attribute {attribute!r} of tuple {index}"
                ) from None
        raise
    connection.commit()
    return name


def create_indexes(
    connection: sqlite3.Connection,
    table_name: str,
    cfds: Iterable[CFD],
    dialect: SQLDialect = DEFAULT_DIALECT,
) -> List[str]:
    """Create one covering index per distinct CFD LHS on the data table.

    Mirrors the paper's observation that constants in pattern tuples let the
    optimizer use indexes, while variables restrict index use.  Each index
    holds the LHS followed by the RHS attributes (not already in the LHS) of
    every CFD sharing that LHS, in first-seen order, so that a DNF
    ``Q^C``/``Q^V`` branch that searches the data by the index reads the
    index alone, never the table.  An index that already exists under the
    same name is kept as it is.
    """
    columns_by_lhs: Dict[Tuple[str, ...], List[str]] = {}
    for cfd in cfds:
        if not cfd.lhs:
            continue
        columns = columns_by_lhs.setdefault(cfd.lhs, list(cfd.lhs))
        columns.extend(attr for attr in cfd.rhs if attr not in columns)
    created: List[str] = []
    for lhs, columns in columns_by_lhs.items():
        suffix = "_".join(sanitize_name(attribute) for attribute in lhs)
        index_name = f"idx_{sanitize_name(table_name)}_{suffix}"
        column_list = ", ".join(dialect.quote_identifier(attr) for attr in columns)
        connection.execute(
            f"CREATE INDEX IF NOT EXISTS {dialect.quote_identifier(index_name)} "
            f"ON {dialect.quote_identifier(table_name)} ({column_list})"
        )
        created.append(index_name)
    connection.commit()
    return created


def load_single_tableau(
    connection: sqlite3.Connection,
    cfd: CFD,
    dialect: SQLDialect = DEFAULT_DIALECT,
    table_name: Optional[str] = None,
) -> str:
    """Create and populate the tableau table of one CFD; returns its name.

    The table stores LHS cells in ``x_<attr>`` columns and RHS cells in
    ``y_<attr>`` columns (this keeps the two occurrences of an attribute that
    appears on both sides distinct, the paper's ``t[A_L]``/``t[A_R]``).
    """
    name = table_name or tableau_table_name(cfd)
    quoted = dialect.quote_identifier(name)
    pid = dialect.quote_identifier(dialect.pattern_id_column)
    columns = [f"{pid} INTEGER PRIMARY KEY"]
    columns.extend(
        dialect.quote_identifier(dialect.lhs_column(attr)) for attr in cfd.lhs
    )
    columns.extend(
        dialect.quote_identifier(dialect.rhs_column(attr)) for attr in cfd.rhs
    )
    connection.execute(f"DROP TABLE IF EXISTS {quoted}")
    connection.execute(f"CREATE TABLE {quoted} ({', '.join(columns)})")
    width = 1 + len(cfd.lhs) + len(cfd.rhs)
    placeholders = ", ".join(["?"] * width)
    rows = []
    for pattern_index, pattern in enumerate(cfd.tableau):
        cells = [pattern_index]
        cells.extend(dialect.encode_cell(pattern.lhs_cell(attr)) for attr in cfd.lhs)
        cells.extend(dialect.encode_cell(pattern.rhs_cell(attr)) for attr in cfd.rhs)
        rows.append(tuple(cells))
    connection.executemany(f"INSERT INTO {quoted} VALUES ({placeholders})", rows)
    connection.commit()
    return name


def load_merged_tableau(
    connection: sqlite3.Connection,
    merged: MergedTableau,
    dialect: SQLDialect = DEFAULT_DIALECT,
    name_prefix: str = "sigma",
) -> Dict[str, str]:
    """Create and populate ``T^X_Σ`` and ``T^Y_Σ``; returns their table names."""
    prefix = sanitize_name(name_prefix)
    x_name = f"tx_{prefix}"
    y_name = f"ty_{prefix}"
    pid = dialect.quote_identifier(dialect.pattern_id_column)

    x_quoted = dialect.quote_identifier(x_name)
    x_columns = [f"{pid} INTEGER PRIMARY KEY"]
    x_columns.extend(
        dialect.quote_identifier(dialect.lhs_column(attr))
        for attr in merged.lhs_attributes
    )
    connection.execute(f"DROP TABLE IF EXISTS {x_quoted}")
    connection.execute(f"CREATE TABLE {x_quoted} ({', '.join(x_columns)})")
    x_placeholders = ", ".join(["?"] * (1 + len(merged.lhs_attributes)))
    connection.executemany(
        f"INSERT INTO {x_quoted} VALUES ({x_placeholders})",
        (
            (pattern_id,) + tuple(dialect.encode_cell(cell) for cell in cells)
            for pattern_id, cells in merged.x_rows()
        ),
    )

    y_quoted = dialect.quote_identifier(y_name)
    y_columns = [f"{pid} INTEGER PRIMARY KEY"]
    y_columns.extend(
        dialect.quote_identifier(dialect.rhs_column(attr))
        for attr in merged.rhs_attributes
    )
    connection.execute(f"DROP TABLE IF EXISTS {y_quoted}")
    connection.execute(f"CREATE TABLE {y_quoted} ({', '.join(y_columns)})")
    y_placeholders = ", ".join(["?"] * (1 + len(merged.rhs_attributes)))
    connection.executemany(
        f"INSERT INTO {y_quoted} VALUES ({y_placeholders})",
        (
            (pattern_id,) + tuple(dialect.encode_cell(cell) for cell in cells)
            for pattern_id, cells in merged.y_rows()
        ),
    )
    connection.commit()
    return {"x": x_name, "y": y_name}
