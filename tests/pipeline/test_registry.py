"""The fixed backend tables, auto-selection, compat wrappers."""

import pytest

from repro import registry
from repro.config import REPAIR_BACKENDS, DetectionConfig, RepairConfig
from repro.datagen.generator import TaxRecordGenerator
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.detection.engine import DETECTORS, detect_violations
from repro.errors import ConfigError, DetectionError, RegistryError, RepairError
from repro.repair.heuristic import REPAIRERS, repair


class TestDetectorRegistration:
    def test_builtins_are_registered(self):
        assert registry.detector_names() == ("indexed", "inmemory", "parallel", "sql")
        assert REPAIR_BACKENDS == ("incremental", "parallel", "scan")
        assert tuple(DETECTORS) == registry.detector_names()
        assert tuple(REPAIRERS) == REPAIR_BACKENDS

    def test_unknown_names_raise_with_choices(self):
        with pytest.raises(ConfigError) as excinfo:
            DetectionConfig(method="psychic")
        for method in registry.detector_names() + ("auto",):
            assert repr(method) in str(excinfo.value)
        with pytest.raises(ConfigError) as excinfo:
            RepairConfig(method="psychic")
        for method in REPAIR_BACKENDS + ("auto",):
            assert repr(method) in str(excinfo.value)


class TestAutoSelection:
    def test_small_workload_picks_scans(self, cust, cust_constraints):
        assert registry.select_detection_method(cust, cust_constraints) == "inmemory"
        assert registry.select_repair_method(cust, cust_constraints) == "incremental"

    def test_large_workload_picks_indexes(self):
        relation = TaxRecordGenerator(size=2_000, noise=0.0, seed=1).generate_relation()
        cfds = [zip_state_cfd()]  # hundreds of patterns -> cells above threshold
        assert registry.select_detection_method(relation, cfds) == "indexed"
        assert registry.select_repair_method(relation, cfds) == "incremental"

    def test_selection_boundary_is_the_cell_threshold(self, relation_factory):
        from repro.core.cfd import CFD

        cfd = CFD.build(["A"], ["B"], [["_", "_"]])  # exactly one pattern
        # rows x patterns == threshold -> detection still on the scan side.
        rows = [("a", "b")] * registry.AUTO_CELL_THRESHOLD
        at = relation_factory(["A", "B"], rows)
        assert registry.select_detection_method(at, [cfd]) == "inmemory"
        assert registry.select_repair_method(at, [cfd]) == "incremental"
        # one row past it -> the indexed side; repair is incremental on both.
        over = relation_factory(["A", "B"], rows + [("a", "b")])
        assert registry.select_detection_method(over, [cfd]) == "indexed"
        assert registry.select_repair_method(over, [cfd]) == "incremental"

    def test_empty_cfd_set_counts_as_one_pattern(self, cust):
        assert registry.select_detection_method(cust, []) == "inmemory"

    def test_resolve_auto_requires_a_relation(self):
        with pytest.raises(RegistryError):
            registry.resolve_detector("auto")
        with pytest.raises(RegistryError):
            registry.resolve_repairer("auto")

    def test_auto_repair_matches_pinned_methods(self, cust, cust_constraints):
        auto = repair(cust, cust_constraints, method="auto")
        pinned = repair(cust, cust_constraints, method="incremental")
        assert auto.clean and pinned.clean
        assert auto.relation == pinned.relation

    def test_auto_repair_through_config(self, cust, cust_constraints):
        result = repair(cust, cust_constraints, config=RepairConfig(method="auto"))
        assert result.clean


class TestCompatWrappers:
    def test_unknown_detection_method_still_raises_detection_error(self, cust, cust_constraints):
        with pytest.raises(DetectionError):
            detect_violations(cust, cust_constraints, method="psychic")

    def test_unknown_repair_method_still_raises_repair_error(self, cust, cust_constraints):
        with pytest.raises(RepairError):
            repair(cust, cust_constraints, method="psychic")

    def test_repair_config_and_keywords_are_mutually_exclusive(self, cust, cust_constraints):
        with pytest.raises(RepairError):
            repair(cust, cust_constraints, max_passes=3, config=RepairConfig())
        # Keywords equal to their defaults are still keywords.
        with pytest.raises(RepairError):
            repair(
                cust,
                cust_constraints,
                max_passes=25,
                method="incremental",
                config=RepairConfig(method="scan", max_passes=1),
            )

    def test_repair_records_pass_violation_counts(self, cust, cust_constraints):
        result = repair(cust, cust_constraints)
        assert result.pass_violation_counts
        assert result.pass_violation_counts[0] == 4
        assert result.pass_violation_counts[-1] == 0
