"""Parallel repair: byte-identical to incremental, fallbacks, auto escalation."""

from __future__ import annotations

import pytest

from repro import registry
from repro.config import RepairConfig
from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.cust import cust_cfds, cust_relation
from repro.datagen.generator import TaxRecordGenerator
from repro.detection.engine import detect_violations
from repro.errors import ReproError
from repro.parallel import executor, sharding
from repro.pipeline import Cleaner, DetectionConfig
from repro.repair.cost import CostModel
from repro.repair.heuristic import repair
from repro.repair.incremental import canonical_order


@pytest.fixture(scope="module")
def tax():
    return TaxRecordGenerator(size=600, noise=0.06, seed=7).generate_relation()


@pytest.fixture(scope="module")
def tax_cfds():
    return [zip_state_cfd()]


class TestParallelRepair:
    @pytest.mark.parametrize("shard_count,workers", [(2, 1), (4, 2), (16, 2)])
    def test_byte_identical_to_incremental_on_tax(self, tax, tax_cfds, shard_count, workers):
        parallel = repair(
            tax,
            tax_cfds,
            config=RepairConfig(
                method="parallel", shard_count=shard_count, workers=workers
            ),
        )
        incremental = repair(tax, tax_cfds, method="incremental")
        assert parallel.clean and incremental.clean
        assert parallel.relation == incremental.relation
        assert parallel.relation.rows == incremental.relation.rows
        # Same set of cell changes, possibly discovered in shard order.
        assert {
            (c.tuple_index, c.attribute, c.old_value, c.new_value)
            for c in parallel.changes
        } == {
            (c.tuple_index, c.attribute, c.old_value, c.new_value)
            for c in incremental.changes
        }
        assert parallel.total_cost == pytest.approx(incremental.total_cost)

    def test_identical_on_cust(self):
        parallel = repair(
            cust_relation(),
            cust_cfds(),
            config=RepairConfig(method="parallel", shard_count=4, workers=2),
        )
        incremental = repair(cust_relation(), cust_cfds(), method="incremental")
        assert parallel.relation == incremental.relation
        assert parallel.clean

    def test_input_relation_is_not_mutated(self, tax, tax_cfds):
        before = tax.rows
        repair(tax, tax_cfds, config=RepairConfig(method="parallel", workers=1))
        assert tax.rows == before

    def test_first_pass_count_matches_initial_violations(self, tax, tax_cfds):
        result = repair(
            tax, tax_cfds, config=RepairConfig(method="parallel", shard_count=4, workers=1)
        )
        assert result.pass_violation_counts
        assert result.pass_violation_counts[0] == len(
            find_all_violations(tax, tax_cfds)
        )

    def test_stats_attached(self, tax, tax_cfds):
        result = repair(
            tax, tax_cfds, config=RepairConfig(method="parallel", shard_count=4, workers=2)
        )
        assert result.parallel_stats is not None
        assert result.parallel_stats.shard_count == 4
        assert len(result.parallel_stats.timings) == 4

    def test_single_shard_degrades_to_serial_incremental(self, tax, tax_cfds):
        result = repair(
            tax, tax_cfds, config=RepairConfig(method="parallel", shard_count=1)
        )
        assert result.clean
        assert result.parallel_stats.mode == executor.SERIAL
        assert result.relation == repair(tax, tax_cfds, method="incremental").relation

    def test_pool_start_failure_falls_back_to_serial(self, tax, tax_cfds, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError("no process spawning here")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)
        result = repair(
            tax, tax_cfds, config=RepairConfig(method="parallel", shard_count=4, workers=4)
        )
        assert result.clean
        assert result.parallel_stats.mode == executor.SERIAL
        assert result.relation == repair(tax, tax_cfds, method="incremental").relation

    def test_worker_crash_surfaces_as_repro_error(self, tax, tax_cfds, monkeypatch):
        from repro.parallel import repairer as repairer_module

        def explode(payload):
            raise RuntimeError("shard repair died")

        monkeypatch.setattr(repairer_module, "_repair_shard", explode)
        with pytest.raises(ReproError) as excinfo:
            repair(
                tax,
                tax_cfds,
                config=RepairConfig(method="parallel", shard_count=4, workers=1),
            )
        assert "shard repair died" in str(excinfo.value)

    def test_tuple_weights_are_localized_per_shard(self, relation_factory):
        # Two conflicting groups; the weighted tuple must win the plurality
        # vote in its group no matter which shard it lands in.
        relation = relation_factory(
            ["A", "B"],
            [("a", "1"), ("a", "2"), ("a", "2"), ("b", "7"), ("b", "8"), ("b", "8")],
        )
        cfd = CFD.build(["A"], ["B"], [["_", "_"]])
        heavy = CostModel(tuple_weights={0: 100.0, 3: 100.0})
        parallel = repair(
            relation,
            [cfd],
            config=RepairConfig(
                method="parallel", shard_count=2, workers=1, cost_model=heavy
            ),
        )
        incremental = repair(
            relation,
            [cfd],
            config=RepairConfig(method="incremental", cost_model=heavy),
        )
        assert parallel.relation == incremental.relation
        assert parallel.relation.value(1, "B") == "1"  # moved onto the heavy tuple
        assert parallel.relation.value(4, "B") == "7"

    def test_overlap_gate_detects_written_grouping_attributes(self):
        from repro.parallel.repairer import _repairs_may_cross_shards

        # [ZIP] -> [ST]: ST is written, only ZIP groups -> no overlap.
        assert not _repairs_may_cross_shards([zip_state_cfd()])
        # phi_a writes B, phi_b groups by B -> overlap.
        phi_a = CFD.build(["A"], ["B"], [["a", "v"]])
        phi_b = CFD.build(["B"], ["C"], [["_", "_"]])
        assert _repairs_may_cross_shards([phi_a, phi_b])

    def test_cross_shard_residue_is_reconciled(self, relation_factory):
        # phi_a's constant pattern *writes* B="v" into shard 0, creating an
        # agreement with shard 1 on phi_b's LHS that did not exist when the
        # plan was computed.  The merge must re-verify and finish serially.
        relation = relation_factory(
            ["A", "B", "C"],
            [("a", "x", "1"), ("b", "v", "2")],
        )
        phi_a = CFD.build(["A"], ["B"], [["a", "v"]])
        phi_b = CFD.build(["B"], ["C"], [["_", "_"]])
        plan_sizes = [1, 1]  # two singleton components -> two shards
        parallel = repair(
            relation,
            [phi_a, phi_b],
            config=RepairConfig(method="parallel", shard_count=2, workers=1),
        )
        assert parallel.parallel_stats.shard_count == len(plan_sizes)
        assert parallel.clean
        assert find_all_violations(parallel.relation, [phi_a, phi_b]).is_clean()
        incremental = repair(relation, [phi_a, phi_b], method="incremental")
        assert parallel.relation == incremental.relation


class TestSingleShardSpillsNothing:
    """With fewer than two shards there is nothing to distribute or spill."""

    @pytest.fixture(autouse=True)
    def refuse_plan_dirs(self, monkeypatch):
        def refuse(base):
            raise AssertionError("a single-shard run must not create a plan dir")

        monkeypatch.setattr(sharding, "create_run_dir", refuse)

    @pytest.mark.parametrize("shape", ["one-shard", "one-component"])
    def test_matches_the_serial_engines(self, tax, tax_cfds, relation_factory, shape):
        if shape == "one-shard":
            relation, cfds, shard_count = tax, tax_cfds, 1
        else:
            # Every tuple shares A, so [A] -> [B] joins them into one component.
            relation = relation_factory(
                ["A", "B"], [("a", f"b{index % 3}") for index in range(12)]
            )
            cfds, shard_count = [CFD.build(["A"], ["B"], [["_", "_"]])], 2
        report = detect_violations(
            relation,
            cfds,
            config=DetectionConfig(
                method="parallel", shard_count=shard_count, workers=2
            ),
        )
        serial_report = detect_violations(relation, cfds, method="indexed")
        assert list(report.violations) == canonical_order(serial_report, cfds)

        result = repair(
            relation,
            cfds,
            config=RepairConfig(method="parallel", shard_count=shard_count, workers=2),
        )
        serial = repair(relation, cfds, method="incremental")
        assert result.relation.rows == serial.relation.rows
        assert result.changes == serial.changes
        assert result.total_cost == serial.total_cost
        assert result.parallel_stats.shard_count == 1
        assert result.parallel_stats.mode == executor.SERIAL


class TestAutoEscalation:
    def test_auto_escalates_past_the_row_threshold(self, tax, tax_cfds, monkeypatch):
        monkeypatch.setattr(registry, "PARALLEL_AUTO_ROW_THRESHOLD", 100)
        assert registry.select_detection_method(tax, tax_cfds) == "parallel"
        assert registry.select_repair_method(tax, tax_cfds) == "parallel"

    def test_auto_stays_serial_below_the_threshold(self, tax, tax_cfds):
        assert registry.select_detection_method(tax, tax_cfds) != "parallel"
        assert registry.select_repair_method(tax, tax_cfds) != "parallel"

    def test_cleaner_runs_end_to_end_with_escalated_auto(self, tax, tax_cfds, monkeypatch):
        monkeypatch.setattr(registry, "PARALLEL_AUTO_ROW_THRESHOLD", 100)
        result = Cleaner(
            detection=DetectionConfig(workers=2, shard_count=4),
            repair=RepairConfig(workers=2, shard_count=4),
        ).clean(tax, tax_cfds)
        assert result.clean
        assert result.backends["detect"] == "parallel"
        assert result.backends["repair"] == "parallel"
        serial = Cleaner(repair=RepairConfig(method="incremental")).clean(tax, tax_cfds)
        assert result.relation == serial.relation
