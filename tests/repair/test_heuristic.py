"""Tests for the greedy repair heuristic."""

import pytest

from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations, satisfies_all
from repro.errors import InconsistentCFDsError
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.cost import CostModel
from repro.repair.heuristic import repair


class TestBasicRepairs:
    def test_cust_example_repairs_clean(self, cust, cust_constraints):
        result = repair(cust, cust_constraints)
        assert result.clean
        assert satisfies_all(result.relation, cust_constraints)

    def test_original_relation_untouched(self, cust, cust_constraints):
        snapshot = cust.rows
        repair(cust, cust_constraints)
        assert cust.rows == snapshot

    def test_clean_input_needs_no_changes(self, cust, cfd_phi1, cfd_phi3):
        result = repair(cust, [cfd_phi1, cfd_phi3])
        assert result.clean
        assert result.changes == []
        assert result.total_cost == 0.0

    def test_constant_violation_fixed_to_pattern_constant(self):
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [("a", "wrong")])
        cfd = CFD.build(["A"], ["B"], [["a", "right"]])
        result = repair(relation, [cfd])
        assert result.clean
        assert result.relation.value(0, "B") == "right"

    def test_variable_violation_resolved_to_plurality_value(self):
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [("a", "x"), ("a", "x"), ("a", "y")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        result = repair(relation, [cfd])
        assert result.clean
        values = {result.relation.value(i, "B") for i in range(3)}
        assert values == {"x"}
        assert len(result.changes) == 1

    def test_empty_cfd_list(self, cust):
        result = repair(cust, [])
        assert result.clean
        assert result.changes == []

    def test_empty_relation(self, cust_constraints):
        schema = Schema("cust", ["CC", "AC", "PN", "NM", "STR", "CT", "ZIP"])
        result = repair(Relation(schema), cust_constraints)
        assert result.clean

    def test_duplicate_cfd_names_resolve_to_the_right_cfd(self):
        """Auto-derived names collide; the repair must not wedge on the wrong one.

        Both CFDs are named ``cfd_A__B``.  The first's pattern has a
        don't-care RHS, so it can never produce a variable violation; a bare
        name lookup would pick it, return no fix, and raise 'no progress'.
        """
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [("1", "x"), ("1", "y")])
        dontcare_rhs = CFD.build(["A"], ["B"], [["1", "@"]])
        plain_fd = CFD.build(["A"], ["B"], [["_", "_"]])
        for method in ("scan", "incremental"):
            result = repair(relation, [dontcare_rhs, plain_fd], method=method)
            assert result.clean
            assert len(result.changes) == 1

    def test_inconsistent_cfds_rejected(self, cust):
        inconsistent = [
            CFD.build(["CC"], ["CT"], [["_", "x"]]),
            CFD.build(["CC"], ["CT"], [["_", "y"]]),
        ]
        with pytest.raises(InconsistentCFDsError):
            repair(cust, inconsistent)


class TestRepairBookkeeping:
    def test_changes_record_old_and_new_values(self, cust, cust_constraints):
        result = repair(cust, cust_constraints)
        for change in result.changes:
            assert change.old_value != change.new_value
            assert result.relation.value(change.tuple_index, change.attribute) is not None

    def test_total_cost_positive_when_changes_exist(self, cust, cust_constraints):
        result = repair(cust, cust_constraints)
        assert result.changes
        assert result.total_cost > 0

    def test_summary_fields(self, cust, cust_constraints):
        summary = repair(cust, cust_constraints).summary()
        assert set(summary) == {"changes", "total_cost", "clean", "passes"}

    def test_changed_cells_are_unique_pairs(self, cust, cust_constraints):
        result = repair(cust, cust_constraints)
        assert len(result.changed_cells()) <= len(result.changes)

    def test_cost_model_weights_steer_the_plurality_choice(self):
        """With a heavily trusted minority tuple, the group moves to its value."""
        schema = Schema("r", ["A", "B"])
        relation = Relation(schema, [("a", "x"), ("a", "x"), ("a", "y")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        trusted_minority = CostModel(tuple_weights={0: 100.0, 1: 100.0})
        cheap = repair(relation, [cfd])
        assert cheap.relation.value(2, "B") == "x"
        expensive = repair(relation, [cfd], cost_model=CostModel(tuple_weights={2: 100.0}))
        # Moving tuple 2 now costs 100, so the cheaper repair moves tuples 0 and 1.
        assert expensive.relation.value(0, "B") == "y"
        assert trusted_minority is not None


class TestGeneratedWorkloads:
    def test_noisy_tax_records_become_clean(self, small_tax_workload):
        from repro.datagen.cfd_catalog import zip_state_cfd, exemption_cfd

        cfds = [zip_state_cfd(), exemption_cfd()]
        result = repair(small_tax_workload.relation, cfds)
        assert result.clean
        assert find_all_violations(result.relation, cfds).is_clean()

    def test_repair_touches_mostly_dirty_tuples(self, small_tax_workload):
        from repro.datagen.cfd_catalog import zip_state_cfd

        cfds = [zip_state_cfd()]
        result = repair(small_tax_workload.relation, cfds)
        changed = {change.tuple_index for change in result.changes}
        # Every changed tuple must at least have been involved in a violation.
        report = find_all_violations(small_tax_workload.relation, cfds)
        assert changed <= set(report.violating_indices())
