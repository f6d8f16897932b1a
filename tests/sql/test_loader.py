"""Tests for loading relations and tableaux into SQLite."""

import sqlite3

import pytest

from repro.core.cfd import CFD
from repro.datagen.cust import cust_relation, phi2, phi3, phi5
from repro.sql.dialect import DEFAULT_DIALECT
from repro.sql.loader import (
    create_indexes,
    data_table_name,
    load_merged_tableau,
    load_relation,
    load_single_tableau,
    sanitize_name,
    tableau_table_name,
)
from repro.sql.merge import merge_cfds


@pytest.fixture
def connection():
    conn = sqlite3.connect(":memory:")
    yield conn
    conn.close()


class TestNames:
    def test_sanitize_replaces_special_characters(self):
        assert sanitize_name("my table!") == "my_table_"

    def test_sanitize_prefixes_leading_digit(self):
        assert sanitize_name("1abc").startswith("t_")

    def test_sanitize_empty(self):
        assert sanitize_name("") == "t_"

    def test_table_name_helpers(self):
        assert data_table_name(cust_relation()) == "cust"
        assert tableau_table_name(phi2()) == "tab_phi2"


class TestRelationLoading:
    def test_row_count_and_index_column(self, connection):
        relation = cust_relation()
        table = load_relation(connection, relation)
        count = connection.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]
        assert count == len(relation)
        indices = [row[0] for row in connection.execute(f'SELECT "_idx" FROM "{table}" ORDER BY "_idx"')]
        assert indices == list(range(len(relation)))

    def test_values_round_trip(self, connection):
        relation = cust_relation()
        table = load_relation(connection, relation)
        row = connection.execute(
            f'SELECT "CC", "AC", "CT" FROM "{table}" WHERE "_idx" = 5'
        ).fetchone()
        assert row == ("44", "131", "EDI")

    def test_reload_replaces_table(self, connection):
        relation = cust_relation()
        load_relation(connection, relation)
        table = load_relation(connection, relation)
        count = connection.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]
        assert count == len(relation)

    def test_custom_table_name(self, connection):
        table = load_relation(connection, cust_relation(), table_name="custom")
        assert table == "custom"
        assert connection.execute('SELECT COUNT(*) FROM "custom"').fetchone()[0] == 6


class TestTableauLoading:
    def test_single_tableau_columns_and_rows(self, connection):
        cfd = phi2()
        table = load_single_tableau(connection, cfd)
        columns = [row[1] for row in connection.execute(f'PRAGMA table_info("{table}")')]
        assert "pid" in columns
        assert "x_CC" in columns and "y_CT" in columns
        count = connection.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]
        assert count == len(cfd.tableau)

    def test_wildcards_stored_as_marker(self, connection):
        cfd = phi2()
        table = load_single_tableau(connection, cfd)
        markers = connection.execute(f'SELECT "x_PN" FROM "{table}"').fetchall()
        assert all(row[0] == DEFAULT_DIALECT.wildcard_marker for row in markers)

    def test_merged_tableau_tables(self, connection):
        merged = merge_cfds([phi3(), phi5()])
        tables = load_merged_tableau(connection, merged)
        x_count = connection.execute(f'SELECT COUNT(*) FROM "{tables["x"]}"').fetchone()[0]
        y_count = connection.execute(f'SELECT COUNT(*) FROM "{tables["y"]}"').fetchone()[0]
        assert x_count == y_count == len(merged)

    def test_merged_tableau_stores_dontcare(self, connection):
        merged = merge_cfds([phi3(), phi5()])
        tables = load_merged_tableau(connection, merged)
        # CC is an LHS attribute of phi3 only, so the phi5 row holds '@' there.
        values = {row[0] for row in connection.execute(f'SELECT "x_CC" FROM "{tables["x"]}"')}
        assert DEFAULT_DIALECT.dontcare_marker in values


class TestIndexes:
    def test_indexes_created_per_distinct_lhs(self, connection):
        table = load_relation(connection, cust_relation())
        created = create_indexes(connection, table, [phi2(), phi3(), phi3()])
        assert len(created) == 2  # phi3 counted once

    def test_empty_lhs_skipped(self, connection):
        table = load_relation(connection, cust_relation())
        cfd = CFD.build([], ["CT"], [["NYC"]], name="const")
        assert create_indexes(connection, table, [cfd]) == []

    def test_index_creation_is_idempotent(self, connection):
        table = load_relation(connection, cust_relation())
        create_indexes(connection, table, [phi2()])
        created = create_indexes(connection, table, [phi2()])
        assert len(created) == 1


class TestPhysicalDesign:
    def test_load_keeps_the_named_attributes_in_schema_order(self, connection):
        relation = cust_relation()
        table = load_relation(connection, relation, attributes=["ZIP", "CC", "CT"])
        pragma = f'PRAGMA table_info("{table}")'
        columns = [row[1] for row in connection.execute(pragma)]
        assert columns == ["_idx", "CC", "CT", "ZIP"]
        row = connection.execute(f'SELECT * FROM "{table}" WHERE "_idx" = 5').fetchone()
        assert row == (5,) + relation.project_row(5, ["CC", "CT", "ZIP"])

    def test_index_covers_the_rhs_of_every_cfd_sharing_its_lhs(self, connection):
        table = load_relation(connection, cust_relation())
        street = CFD.build(["CC", "AC"], ["STR", "CT"], [["_", "_", "_", "_"]])
        created = create_indexes(connection, table, [phi3(), street, phi2()])
        assert len(created) == 2
        columns = {
            name: [row[2] for row in connection.execute(f'PRAGMA index_info("{name}")')]
            for name in created
        }
        assert columns == {
            "idx_cust_CC_AC": ["CC", "AC", "CT", "STR"],
            "idx_cust_CC_AC_PN": ["CC", "AC", "PN", "STR", "CT", "ZIP"],
        }
