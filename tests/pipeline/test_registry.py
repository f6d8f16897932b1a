"""The backend registry: registration, auto-selection, compat wrappers."""

import pytest

from repro import registry
from repro.config import RepairConfig
from repro.core.violations import ViolationReport
from repro.datagen.generator import TaxRecordGenerator
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.detection.engine import detect_violations
from repro.errors import DetectionError, RegistryError, RepairError
from repro.repair.heuristic import repair
from repro.core.satisfaction import find_all_violations


class TestDetectorRegistration:
    def test_builtins_are_registered(self):
        assert set(registry.detector_names()) >= {"inmemory", "sql", "indexed"}
        assert set(registry.repairer_names()) >= {"scan", "incremental", "parallel"}
        assert "indexed" not in registry.repairer_names()

    def test_custom_detector_dispatches_through_the_facade(self, cust, cust_constraints):
        calls = []

        @registry.register_detector("custom_oracle")
        def custom(relation, cfds, config):
            calls.append(config.method)
            return find_all_violations(relation, cfds)

        try:
            report = detect_violations(cust, cust_constraints, method="custom_oracle")
            assert report.violating_indices() == frozenset({0, 1, 2, 3})
            assert calls == ["custom_oracle"]
        finally:
            registry.unregister_detector("custom_oracle")
        with pytest.raises(DetectionError):
            detect_violations(cust, cust_constraints, method="custom_oracle")

    def test_custom_repair_engine_drives_the_loop(self, cust, cust_constraints):
        class RecordingScanEngine:
            """A scan engine that counts report() calls."""

            reports = 0

            def __init__(self, relation, cfds, config):
                self.relation = relation
                self._cfds = cfds

            def report(self):
                from repro.repair.incremental import canonical_order

                type(self).reports += 1
                report = find_all_violations(self.relation, self._cfds)
                return ViolationReport(canonical_order(report, self._cfds))

            def update(self, tuple_index, attribute, new_value):
                self.relation.update(tuple_index, attribute, new_value)

        registry.register_repairer("recording")(RecordingScanEngine)
        try:
            result = repair(cust, cust_constraints, method="recording")
            assert result.clean
            assert RecordingScanEngine.reports > 0
            baseline = repair(cust, cust_constraints, method="scan")
            assert result.relation == baseline.relation
        finally:
            registry.unregister_repairer("recording")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            registry.register_detector("inmemory")(lambda r, c, cfg: None)
        with pytest.raises(RegistryError):
            registry.register_repairer("scan")(object)

    def test_replace_allows_overwriting(self):
        original = registry.get_detector("inmemory")
        try:
            registry.register_detector("inmemory", replace=True)(original)
            assert registry.get_detector("inmemory") is original
        finally:
            registry.register_detector("inmemory", replace=True)(original)

    def test_auto_is_a_reserved_name(self):
        with pytest.raises(RegistryError):
            registry.register_detector("auto")
        with pytest.raises(RegistryError):
            registry.register_repairer("auto")

    def test_unknown_names_raise_with_choices(self):
        with pytest.raises(RegistryError) as excinfo:
            registry.get_detector("psychic")
        assert "auto" in str(excinfo.value)
        with pytest.raises(RegistryError):
            registry.get_repairer("psychic")


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

    def test_repair_records_pass_violation_counts(self, cust, cust_constraints):
        result = repair(cust, cust_constraints)
        assert result.pass_violation_counts
        assert result.pass_violation_counts[0] == 4
        assert result.pass_violation_counts[-1] == 0
