"""The top-level public API: everything advertised in ``repro.__all__`` works."""

import repro
import repro.pipeline

#: The advertised surface of ``repro``.  This list is a *contract*: additions
#: belong at the right place alphabetically, removals are breaking changes.
EXPECTED_REPRO_ALL = [
    "AnalysisReport",
    "AnalysisWarning",
    "Attribute",
    "CFD",
    "Cleaner",
    "CleaningResult",
    "ColumnStore",
    "ConstantViolation",
    "CSVSource",
    "DetectionConfig",
    "Diagnostic",
    "DONTCARE",
    "FD",
    "IndexedDetector",
    "IterableSource",
    "MmapColumnStore",
    "PatternTableau",
    "PatternTuple",
    "PatternValue",
    "Relation",
    "RelationSource",
    "RepairConfig",
    "RowSource",
    "Schema",
    "SQLDetector",
    "SQLiteSource",
    "VariableViolation",
    "Violation",
    "ViolationReport",
    "WILDCARD",
    "analyze",
    "as_source",
    "clean",
    "cross_check",
    "cust_cfds",
    "cust_relation",
    "detect_violations",
    "find_violations_parallel",
    "implies",
    "is_consistent",
    "kernel_names",
    "minimal_cover",
    "numpy_available",
    "repair",
    "select_detection_method",
    "select_repair_method",
    "spill_run",
    "use_kernel",
    "__version__",
]

#: The advertised surface of ``repro.pipeline``.
EXPECTED_PIPELINE_ALL = [
    "CleaningResult",
    "Cleaner",
    "DetectionConfig",
    "RepairConfig",
    "RowSource",
    "clean",
]


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} is missing"

    def test_module_docstring_quickstart_holds(self):
        report = repro.detect_violations(repro.cust_relation(), repro.cust_cfds())
        assert sorted(report.violating_indices()) == [0, 1, 2, 3]

    def test_core_types_are_the_same_objects_as_submodules(self):
        from repro.core.cfd import CFD
        from repro.relation.relation import Relation

        assert repro.CFD is CFD
        assert repro.Relation is Relation

    def test_reasoning_shortcuts(self):
        psi1 = repro.CFD.build(["A"], ["B"], [["_", "b"]])
        psi2 = repro.CFD.build(["B"], ["C"], [["_", "c"]])
        assert repro.is_consistent([psi1, psi2])
        assert repro.implies([psi1, psi2], repro.CFD.build(["A"], ["C"], [["a", "_"]]))
        assert len(repro.minimal_cover([psi1, psi2])) == 2

    def test_repair_shortcut(self):
        result = repro.repair(repro.cust_relation(), repro.cust_cfds())
        assert result.clean

    def test_sql_detector_export(self):
        with repro.SQLDetector(repro.cust_relation()) as detector:
            run = detector.detect(repro.cust_cfds())
        assert not run.report.is_clean()

    def test_repro_all_is_stable(self):
        assert repro.__all__ == EXPECTED_REPRO_ALL

    def test_pipeline_all_is_stable(self):
        assert repro.pipeline.__all__ == EXPECTED_PIPELINE_ALL

    def test_pipeline_all_names_resolve(self):
        for name in repro.pipeline.__all__:
            assert hasattr(repro.pipeline, name), f"repro.pipeline.{name} is missing"

    def test_pipeline_shortcut(self):
        result = repro.Cleaner().clean(repro.cust_relation(), repro.cust_cfds())
        assert result.clean
        assert repro.detect_violations(result.relation, repro.cust_cfds()).is_clean()

    def test_pipeline_types_are_the_same_objects_as_submodules(self):
        from repro.config import DetectionConfig, RepairConfig
        from repro.pipeline import Cleaner

        assert repro.Cleaner is Cleaner
        assert repro.DetectionConfig is DetectionConfig
        assert repro.RepairConfig is RepairConfig
