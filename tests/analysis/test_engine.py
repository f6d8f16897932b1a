"""The analyze() driver: check selection, optimize mode, require_clean."""

import pytest

from repro.analysis import AnalysisReport, analyze, require_clean
from repro.analysis.checks import CHECKS
from repro.core.cfd import CFD
from repro.errors import AnalysisError, RegistryError
from repro.reasoning.implication import equivalent


def clash():
    return [
        CFD.build(["A"], ["B"], [["_", "b"]], name="p1"),
        CFD.build(["A"], ["B"], [["_", "c"]], name="p2"),
    ]


class TestAnalyze:
    def test_empty_rule_set_is_clean(self):
        report = analyze([])
        assert report.ok
        assert len(report) == 0
        assert report.seconds >= 0

    def test_runs_every_registered_check_by_default(self, cust_constraints):
        report = analyze(cust_constraints)
        assert report.checks_run == tuple(name for name, _check in CHECKS)
        assert report.checks_run == tuple(sorted(report.checks_run))
        assert report.deep

    def test_check_subset_selection(self):
        report = analyze(clash(), checks=["names"])
        assert report.checks_run == ("names",)
        assert not report.by_code("CFD001")  # consistency did not run

    def test_unknown_check_name_raises(self):
        with pytest.raises(RegistryError):
            analyze([], checks=["no-such-check"])

    def test_optimize_attaches_an_equivalent_minimal_cover(self):
        twins = [
            CFD.build(["A"], ["B"], [["_", "b"]], name="twin1"),
            CFD.build(["A"], ["B"], [["_", "b"]], name="twin2"),
        ]
        report = analyze(twins, optimize=True)
        assert report.optimized is not None
        assert len(report.optimized) < len(twins)
        assert equivalent(report.optimized, twins)

    def test_optimize_is_skipped_on_inconsistent_sets(self):
        report = analyze(clash(), optimize=True)
        assert report.optimized is None
        assert "optimized_cfds" not in report.to_dict()

    def test_optimized_counts_in_json_payload(self, cust_constraints):
        payload = analyze(cust_constraints, optimize=True).to_dict()
        assert payload["optimized_cfds"] >= 1
        assert payload["optimized_patterns"] >= payload["optimized_cfds"]


class TestRequireClean:
    def test_clean_report_passes(self, cust_constraints):
        require_clean(analyze(cust_constraints))

    def test_errors_raise_with_the_report_attached(self):
        report = analyze(clash())
        with pytest.raises(AnalysisError) as excinfo:
            require_clean(report)
        assert excinfo.value.report is report
        assert "CFD001" in str(excinfo.value)


class TestCustomChecks:
    def test_report_type(self):
        assert isinstance(analyze([]), AnalysisReport)
