"""The sharding invariant: no equivalence class ever spans two shards."""

from __future__ import annotations

import pytest

from repro.core.cfd import CFD
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.cust import cust_cfds, cust_relation
from repro.datagen.generator import TaxRecordGenerator
from repro.errors import ParallelExecutionError
from repro.parallel.sharding import components as _components
from repro.parallel.sharding import shard_relation
from repro.relation.columnar import ColumnStore


def components(relation, cfds):
    return _components(ColumnStore.from_relation(relation), cfds)


def indices_of(shard):
    return [int(index) for index in shard.global_indices()]


def shard_of(plan):
    """Map global tuple index -> shard id for every tuple in the plan."""
    owners = {}
    for shard in plan.shards:
        for global_index in indices_of(shard):
            assert global_index not in owners, "tuple assigned to two shards"
            owners[global_index] = shard.shard_id
    return owners


def assert_invariant(relation, cfds, plan):
    """No two tuples sharing any pattern's LHS equivalence class split up."""
    owners = shard_of(plan)
    assert sorted(owners) == list(range(len(relation)))
    for cfd in cfds:
        for pattern in cfd.tableau:
            lhs_free = [
                attr for attr in cfd.lhs if not pattern.lhs_cell(attr).is_dontcare
            ]
            for indices in relation.group_by(lhs_free).values():
                shard_ids = {owners[index] for index in indices}
                assert len(shard_ids) == 1, (
                    f"class {indices} of {cfd.name} spans shards {shard_ids}"
                )


class TestComponents:
    def test_empty_relation_has_no_components(self, relation_factory):
        assert components(relation_factory(["A", "B"], []), []) == []

    def test_no_cfds_means_singleton_components(self, relation_factory):
        relation = relation_factory(["A", "B"], [("a", "1"), ("a", "2"), ("b", "1")])
        assert components(relation, []) == [[0], [1], [2]]

    def test_shared_lhs_value_merges_components(self, relation_factory):
        relation = relation_factory(["A", "B"], [("a", "1"), ("a", "2"), ("b", "1")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        assert components(relation, [cfd]) == [[0, 1], [2]]

    def test_all_dontcare_lhs_collapses_to_one_component(self, relation_factory):
        relation = relation_factory(["A", "B"], [("a", "1"), ("b", "2"), ("c", "3")])
        cfd = CFD.build(["A"], ["B"], [["@", "_"]])
        assert components(relation, [cfd]) == [[0, 1, 2]]

    def test_transitive_closure_across_cfds(self, relation_factory):
        # 0 and 1 share A; 1 and 2 share B: one component via transitivity.
        relation = relation_factory(
            ["A", "B", "C"],
            [("a", "x", "1"), ("a", "y", "2"), ("b", "y", "3"), ("c", "z", "4")],
        )
        by_a = CFD.build(["A"], ["C"], [["_", "_"]])
        by_b = CFD.build(["B"], ["C"], [["_", "_"]])
        assert components(relation, [by_a, by_b]) == [[0, 1, 2], [3]]


class TestShardPlan:
    def test_invariant_on_cust(self):
        relation, cfds = cust_relation(), cust_cfds()
        for shard_count in (1, 2, 3, 4, 10):
            with shard_relation(relation, cfds, shard_count) as plan:
                assert_invariant(relation, cfds, plan)

    def test_invariant_on_tax(self):
        relation = TaxRecordGenerator(size=400, noise=0.08, seed=3).generate_relation()
        cfds = [zip_state_cfd()]
        with shard_relation(relation, cfds, 4) as plan:
            assert_invariant(relation, cfds, plan)
            assert len(plan) == 4
            # Greedy packing keeps the shards roughly balanced.
            assert max(plan.sizes()) <= 2 * min(plan.sizes()) + max(
                len(members) for members in components(relation, cfds)
            )

    def test_shard_count_larger_than_rows(self, relation_factory):
        relation = relation_factory(["A", "B"], [("a", "1"), ("b", "2")])
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        with shard_relation(relation, [cfd], 50) as plan:
            assert len(plan) == 2  # one shard per component, never more
            assert plan.requested_shard_count == 50
            assert_invariant(relation, [cfd], plan)

    def test_empty_relation_yields_single_empty_plan(self, relation_factory):
        with shard_relation(relation_factory(["A", "B"], []), [], 4) as plan:
            assert len(plan) == 0
            assert plan.sizes() == ()
            assert plan.component_count == 0

    def test_rows_keep_relative_order_and_content(self):
        relation, cfds = cust_relation(), cust_cfds()
        with shard_relation(relation, cfds, 3) as plan:
            for shard in plan.shards:
                local_rows = plan.open_shard(shard.shard_id)
                assert indices_of(shard) == sorted(indices_of(shard))
                for local, global_index in enumerate(indices_of(shard)):
                    assert local_rows[local] == relation[global_index]

    def test_plan_is_deterministic(self):
        relation, cfds = cust_relation(), cust_cfds()
        with shard_relation(relation, cfds, 3) as first:
            with shard_relation(relation, cfds, 3) as second:
                assert first.plan_dir != second.plan_dir
                assert [indices_of(s) for s in first.shards] == [
                    indices_of(s) for s in second.shards
                ]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ParallelExecutionError):
            shard_relation(cust_relation(), cust_cfds(), 0)

    def test_summary_is_json_friendly(self):
        import json

        with shard_relation(cust_relation(), cust_cfds(), 2) as plan:
            assert json.dumps(plan.summary())
