"""The Cleaner pre-flight gate: Cleaner(analysis="strict" | "warn" | "off")."""

import warnings

import pytest

from repro.analysis import AnalysisReport, AnalysisWarning
from repro.config import ANALYSIS_LEVELS
from repro.core.cfd import CFD
from repro.errors import AnalysisError, ConfigError
from repro.pipeline import Cleaner


def clashing_rules():
    return [
        CFD.build(["A"], ["B"], [["_", "b"]], name="p1"),
        CFD.build(["A"], ["B"], [["_", "c"]], name="p2"),
    ]


def duplicate_name_rules():
    """Consistent rules whose shared name is an error-severity lint finding."""
    return [
        CFD.build(["A"], ["B"], [["_", "_"]], name="phi"),
        CFD.build(["B"], ["C"], [["_", "_"]], name="phi"),
    ]


@pytest.fixture
def abc_relation(relation_factory):
    return relation_factory(["A", "B", "C"], [("a", "b", "c")])


class TestLevelResolution:
    def test_default_ignores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS", "strict")
        assert Cleaner().analysis == "warn"

    def test_config_validates_level(self):
        with pytest.raises(ConfigError):
            Cleaner(analysis="pedantic")
        for level in ANALYSIS_LEVELS:
            assert Cleaner(analysis=level).analysis == level


class TestStrictGate:
    def test_refuses_inconsistent_rules_before_detection(self, abc_relation):
        cleaner = Cleaner(analysis="strict")
        with pytest.raises(AnalysisError) as excinfo:
            cleaner.clean(abc_relation, clashing_rules())
        # The gate, not the repair engine, refused: the error carries the
        # report whose CFD001 witness names the conflicting pair.
        (diagnostic,) = excinfo.value.report.by_code("CFD001")
        assert diagnostic.witness["conflicting_cfds"] == ["p1", "p2"]

    def test_refuses_error_findings_of_consistent_rules(self, abc_relation):
        cleaner = Cleaner(analysis="strict")
        with pytest.raises(AnalysisError) as excinfo:
            cleaner.clean(abc_relation, duplicate_name_rules())
        assert excinfo.value.report.by_code("CFD004")

    def test_clean_rules_pass_strict(self, cust, cust_constraints):
        cleaner = Cleaner(analysis="strict")
        result = cleaner.clean(cust, cust_constraints)
        assert result.clean
        assert isinstance(result.analysis_report, AnalysisReport)
        assert result.analysis_report.ok


class TestWarnGate:
    def test_error_findings_become_warnings_and_the_run_proceeds(
        self, abc_relation
    ):
        cleaner = Cleaner(analysis="warn")
        with pytest.warns(AnalysisWarning, match="CFD004"):
            result = cleaner.clean(abc_relation, duplicate_name_rules())
        assert result.clean
        assert result.analysis_report.by_code("CFD004")

    def test_info_findings_stay_silent(self, cust, cust_constraints):
        # The default level is "warn"; the cust rules only produce infos,
        # so a stock run must not emit any warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", AnalysisWarning)
            result = Cleaner().clean(cust, cust_constraints)
        assert result.clean
        assert result.analysis_report is not None
        assert result.analysis_report.ok

    def test_gate_is_shallow(self, cust, cust_constraints):
        result = Cleaner().clean(cust, cust_constraints)
        assert result.analysis_report.deep is False


class TestOffGate:
    def test_no_report_is_stored(self, cust, cust_constraints):
        result = Cleaner(analysis="off").clean(cust, cust_constraints)
        assert result.clean
        assert result.analysis_report is None

    def test_byte_identical_output_across_levels(self, cust, cust_constraints):
        off = Cleaner(analysis="off").clean(cust, cust_constraints)
        warn = Cleaner().clean(cust, cust_constraints)
        strict = Cleaner(analysis="strict").clean(cust, cust_constraints)
        assert off.relation == warn.relation == strict.relation
        assert off.changes == warn.changes == strict.changes

    def test_env_cannot_switch_the_gate_off(self, cust, cust_constraints, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS", "off")
        result = Cleaner().clean(cust, cust_constraints)
        assert result.analysis_report is not None

    def test_explicit_config_beats_env(self, abc_relation, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS", "off")
        cleaner = Cleaner(analysis="strict")
        with pytest.raises(AnalysisError):
            cleaner.clean(abc_relation, clashing_rules())
