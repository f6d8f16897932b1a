"""Edge-case data values through the SQL detection path.

Data and pattern constants are passed to SQLite as bound parameters, so
quotes, unicode and marker-like strings must survive the round trip; these
tests pin that down by cross-checking against the in-memory oracle.
"""

import pytest

from repro.config import DetectionConfig
from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.detection.engine import cross_check, detect_violations
from repro.errors import DetectionError
from repro.relation.relation import Relation
from repro.relation.schema import Schema


def _check(relation, cfds):
    result = cross_check(relation, cfds, form="dnf")
    assert result.agree, f"in-memory {result.inmemory_indices} vs sql {result.sql_indices}"
    merged = cross_check(relation, cfds, strategy="merged")
    assert merged.agree
    return result


class TestAwkwardValues:
    def test_single_quotes_in_values(self):
        schema = Schema("r", ["CT", "ST"])
        relation = Relation(schema, [("O'Fallon", "MO"), ("O'Fallon", "IL")])
        cfd = CFD.build(["CT"], ["ST"], [["O'Fallon", "MO"]], name="quote")
        result = _check(relation, [cfd])
        # tuple 1 clashes with the constant, and the pair additionally disagrees on ST
        assert result.inmemory_indices == frozenset({0, 1})

    def test_double_quotes_and_backslashes(self):
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [('say "hi"\\', "x"), ('say "hi"\\', "y")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]], name="fd")
        result = _check(relation, [cfd])
        assert result.inmemory_indices == frozenset({0, 1})

    def test_unicode_values(self):
        schema = Schema("r", ["CT", "ST"])
        relation = Relation(schema, [("Zürich", "ZH"), ("Zürich", "GE"), ("Genève", "GE")])
        cfd = CFD.build(["CT"], ["ST"], [["Zürich", "ZH"]], name="unicode")
        result = _check(relation, [cfd])
        # tuple 1 clashes with the constant and the Zürich pair disagrees on ST
        assert result.inmemory_indices == frozenset({0, 1})

    def test_empty_string_values(self):
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [("", "x"), ("", "y")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]], name="fd")
        result = _check(relation, [cfd])
        assert result.inmemory_indices == frozenset({0, 1})

    def test_numeric_values(self):
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [(1, 10), (1, 20), (2, 30)])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]], name="fd")
        result = _check(relation, [cfd])
        assert result.inmemory_indices == frozenset({0, 1})

    def test_marker_like_data_value_on_rhs_is_not_a_wildcard(self):
        """A data value equal to the wildcard marker must still be compared as data."""
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [("a", "_"), ("a", "x")])
        cfd = CFD.build(["A"], ["B"], [["a", "x"]], name="const")
        # in-memory: tuple 0 clashes with the constant 'x'
        oracle = find_all_violations(relation, [cfd])
        assert {v.tuple_indices[0] for v in oracle.constant_violations()} == {0}
        result = _check(relation, [cfd])
        assert 0 in result.inmemory_indices

    def test_long_values(self):
        long_value = "x" * 5000
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [(long_value, "b1"), (long_value, "b2")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]], name="fd")
        result = _check(relation, [cfd])
        assert result.inmemory_indices == frozenset({0, 1})


class TestKnownMarkerCollisionLimitation:
    def test_wildcard_marker_on_the_lhs_is_a_documented_false_match(self):
        """A *pattern-side* cell can never hold the literal string '_' (it is the
        wildcard token); a *data-side* '_' on a join attribute is compared by
        value and matches only the wildcard or an equal constant, which the
        default dialect cannot express.  The in-memory detector treats it as an
        ordinary value, so the two backends are documented to agree only when
        join attributes do not use the marker strings as data values."""
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [("_", "x"), ("_", "y")])
        cfd = CFD.build(["A"], ["B"], [["other", "_"]], name="const_lhs")
        oracle = find_all_violations(relation, [cfd])
        assert oracle.is_clean()


class TestUnbindableCells:
    """SQLite binds only None, int, float, str and bytes."""

    def test_list_outside_the_rule_attributes_is_never_loaded(self):
        schema = Schema("r", ["A", "B", "C"])
        rows = [("1", "x", [1]), ("1", "y", [2]), ("2", "z", ["a"])]
        relation = Relation(schema, rows)
        cfd = CFD.build(["A"], ["B"], [["_", "_"], ["2", "w"]], name="fd")
        inmemory = DetectionConfig(method="inmemory")
        oracle = detect_violations(relation, [cfd], config=inmemory)
        found = detect_violations(relation, [cfd], config=DetectionConfig(method="sql"))
        assert oracle.violating_indices() == frozenset({0, 1, 2})
        assert found.violating_indices() == oracle.violating_indices()
        assert {v.tuple_index for v in found.constant_violations()} == {2}
        groups = [sorted(v.tuple_indices) for v in found.variable_violations()]
        assert groups == [[0, 1]]
        assert groups == [sorted(v.tuple_indices) for v in oracle.variable_violations()]

    def test_list_in_a_rule_attribute_names_the_attribute(self):
        schema = Schema("r", ["A", "B", "C"])
        relation = Relation(schema, [("1", "x", "c"), ("1", ["y"], "c")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]], name="fd")
        with pytest.raises(DetectionError, match="attribute 'B' of tuple 1"):
            detect_violations(relation, [cfd], config=DetectionConfig(method="sql"))
