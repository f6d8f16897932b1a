"""Unit tests for the delta-maintained repair state."""

import pytest

from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.errors import DetectionError
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.incremental import RepairState, canonical_order


def _ab_relation(rows):
    return Relation(Schema("r", ["A", "B"]), rows)


# ---------------------------------------------------------------------------
# RepairState
# ---------------------------------------------------------------------------
class TestRepairStateInitial:
    def test_initial_report_matches_oracle(self, cust, cust_constraints):
        state = RepairState(cust, cust_constraints)
        oracle = find_all_violations(cust, cust_constraints)
        assert list(state.report()) == canonical_order(oracle, cust_constraints)
        assert state.violation_count() == len(oracle)

    def test_clean_relation_is_clean(self):
        rel = _ab_relation([("a", "x"), ("b", "y")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        state = RepairState(rel, [cfd])
        assert state.is_clean()
        assert state.report().is_clean()


class TestApplyChange:
    def test_rhs_change_clears_variable_violation(self):
        rel = _ab_relation([("a", "x"), ("a", "y")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        state = RepairState(rel, [cfd])
        assert not state.is_clean()
        assert state.apply_change(1, "B", "x")
        assert state.is_clean()
        assert rel.value(1, "B") == "x"

    def test_lhs_change_moves_tuple_between_classes(self):
        # Tuples 0,1 conflict in class ('a',); moving tuple 1 into class
        # ('b',) creates a *new* conflict there and clears the old one.
        rel = _ab_relation([("a", "x"), ("a", "y"), ("b", "z")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        state = RepairState(rel, [cfd])
        assert state.apply_change(1, "A", "b")
        report = state.report()
        [violation] = report.variable_violations()
        assert violation.group_key == ("b",)
        assert violation.tuple_indices == (1, 2)

    def test_lhs_change_to_fresh_value_creates_singleton_class(self):
        rel = _ab_relation([("a", "x"), ("a", "y")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        state = RepairState(rel, [cfd])
        assert state.apply_change(0, "A", "__fresh__")
        assert state.is_clean()

    def test_constant_violation_appears_and_clears(self):
        rel = _ab_relation([("a", "right")])
        cfd = CFD.build(["A"], ["B"], [["a", "right"]])
        state = RepairState(rel, [cfd])
        assert state.is_clean()
        state.apply_change(0, "B", "wrong")
        [violation] = state.report().constant_violations()
        assert violation.expected == "right" and violation.actual == "wrong"
        state.apply_change(0, "B", "right")
        assert state.is_clean()

    def test_noop_change_returns_false_and_costs_nothing(self):
        rel = _ab_relation([("a", "x")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        state = RepairState(rel, [cfd])
        assert not state.apply_change(0, "B", "x")
        assert state.stats()["changes_applied"] == 0

    def test_only_patterns_mentioning_the_attribute_reevaluate(self):
        schema = Schema("r", ["A", "B", "C"])
        rel = Relation(schema, [("a", "x", "c1"), ("a", "x", "c2")])
        ab = CFD.build(["A"], ["B"], [["_", "_"]])
        ac = CFD.build(["A"], ["C"], [["_", "_"]])
        state = RepairState(rel, [ab, ac])
        before = state.stats()["patterns_reevaluated"]
        state.apply_change(0, "C", "c2")  # only the [A] -> [C] pattern cares
        assert state.stats()["patterns_reevaluated"] == before + 1

    def test_delta_touches_only_the_two_affected_classes(self):
        rows = [(f"k{i}", "v") for i in range(50)] + [("k0", "w")]
        rel = _ab_relation(rows)
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        state = RepairState(rel, [cfd])
        before = state.stats()["partitions_reevaluated"]
        state.apply_change(50, "A", "k1")  # moves between classes k0 and k1
        assert state.stats()["partitions_reevaluated"] == before + 2

    def test_report_tracks_oracle_through_a_change_sequence(self, cust, cust_constraints):
        state = RepairState(cust, cust_constraints)
        changes = [
            (0, "CT", "MH"),
            (3, "STR", "Elm Str."),
            (1, "ZIP", "10012"),
            (2, "AC", "908"),
            (0, "CT", "NYC"),
        ]
        for tuple_index, attribute, value in changes:
            state.apply_change(tuple_index, attribute, value)
            oracle = find_all_violations(cust, cust_constraints)
            assert list(state.report()) == canonical_order(oracle, cust_constraints)

    def test_mutating_outside_apply_change_raises_on_the_next_read(self):
        # The state used to go silently stale here (the old documented
        # hazard); the relation's version counter now turns every read after
        # a bypassing mutation into a loud DetectionError.
        rel = _ab_relation([("a", "x"), ("a", "y")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        state = RepairState(rel, [cfd])
        rel.update(1, "B", "x")  # bypasses the state
        with pytest.raises(DetectionError):
            state.is_clean()
        with pytest.raises(DetectionError):
            state.report()
        assert not find_all_violations(rel, [cfd])

    def test_delete_invalidates_the_state(self):
        rel = _ab_relation([("a", "x"), ("a", "y"), ("b", "z")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        state = RepairState(rel, [cfd])
        rel.delete(0)  # shifts every later tuple index
        with pytest.raises(DetectionError):
            state.report()
        with pytest.raises(DetectionError):
            state.apply_change(0, "B", "w")
