"""Tests for the detection façade."""

import pytest

from repro.config import DetectionConfig
from repro.core.satisfaction import find_all_violations
from repro.datagen.cfd_catalog import experiment_cfd_set
from repro.datagen.generator import TaxRecordGenerator
from repro.detection.engine import CrossCheckResult, cross_check, detect_violations
from repro.errors import DetectionError
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation


class TestDetectViolations:
    def test_default_method_is_inmemory(self, cust, cust_constraints):
        report = detect_violations(cust, cust_constraints)
        assert report.violating_indices() == frozenset({0, 1, 2, 3})

    def test_sql_method(self, cust, cust_constraints):
        report = detect_violations(cust, cust_constraints, method="sql")
        assert report.violating_indices() == frozenset({0, 1, 2, 3})

    def test_sql_merged_strategy(self, cust, cust_constraints):
        report = detect_violations(cust, cust_constraints, method="sql", strategy="merged")
        assert report.violating_indices() == frozenset({0, 1, 2, 3})

    def test_accepts_a_single_cfd(self, cust, cfd_phi2):
        report = detect_violations(cust, cfd_phi2)
        assert not report.is_clean()

    def test_indexed_method(self, cust, cust_constraints):
        report = detect_violations(cust, cust_constraints, method="indexed")
        assert report.violating_indices() == frozenset({0, 1, 2, 3})

    def test_indexed_single_cfd(self, cust, cfd_phi2):
        assert not detect_violations(cust, cfd_phi2, method="indexed").is_clean()

    def test_unknown_method_rejected(self, cust, cust_constraints):
        with pytest.raises(DetectionError) as excinfo:
            detect_violations(cust, cust_constraints, method="psychic")
        # The error should name every valid backend.
        for method in ("inmemory", "sql", "indexed"):
            assert method in str(excinfo.value)

    def test_unknown_sql_strategy_rejected(self, cust, cust_constraints):
        with pytest.raises(DetectionError):
            detect_violations(cust, cust_constraints, method="sql", strategy="telepathy")

    def test_clean_input_gives_clean_report(self, cust, cfd_phi1, cfd_phi3):
        assert detect_violations(cust, [cfd_phi1, cfd_phi3]).is_clean()

    def test_empty_cfd_collection(self, cust):
        assert detect_violations(cust, []).is_clean()

    def test_auto_method(self, cust, cust_constraints):
        report = detect_violations(cust, cust_constraints, method="auto")
        assert report.violating_indices() == frozenset({0, 1, 2, 3})

    def test_config_object(self, cust, cust_constraints):
        config = DetectionConfig(method="sql", strategy="merged")
        report = detect_violations(cust, cust_constraints, config=config)
        assert report.violating_indices() == frozenset({0, 1, 2, 3})

    def test_config_and_keywords_are_mutually_exclusive(self, cust, cust_constraints):
        with pytest.raises(DetectionError):
            detect_violations(
                cust, cust_constraints, method="sql", config=DetectionConfig()
            )
        # A keyword equal to its default is still a keyword.
        with pytest.raises(DetectionError):
            detect_violations(
                cust,
                cust_constraints,
                method="inmemory",
                config=DetectionConfig(method="sql"),
            )

    def test_strategy_with_non_sql_method_raises(self, cust, cust_constraints):
        # The old API silently ignored SQL-only knobs off the SQL path.
        with pytest.raises(DetectionError, match="strategy='merged'"):
            detect_violations(
                cust, cust_constraints, method="indexed", strategy="merged"
            )

    def test_form_with_non_sql_method_raises(self, cust, cust_constraints):
        with pytest.raises(DetectionError, match="form='cnf'"):
            detect_violations(cust, cust_constraints, method="inmemory", form="cnf")


@pytest.mark.parametrize("storage", ["columnar", "mmap"])
def test_sql_detection_reads_the_store_it_is_handed(storage, tmp_path, monkeypatch):
    relation = TaxRecordGenerator(size=500, noise=0.05, seed=7).generate_relation()
    cfds = experiment_cfd_set(num_cfds=5, tabsz=50, seed=7)
    expected = detect_violations(relation, cfds, method="sql")
    assert not expected.is_clean()
    store = (
        MmapColumnStore.from_relation(relation, spill_dir=tmp_path)
        if storage == "mmap"
        else ColumnStore.from_relation(relation)
    )

    def refuse(cls, schema, rows):
        raise AssertionError("the relation was copied into rows")

    monkeypatch.setattr(Relation, "from_validated_rows", classmethod(refuse))
    try:
        report = detect_violations(store, cfds, method="sql")
    finally:
        if isinstance(store, MmapColumnStore):
            store.release()
    assert list(report.violations) == list(expected.violations)


@pytest.mark.parametrize("method", ["inmemory", "sql"])
def test_row_readers_make_no_store(method, monkeypatch):
    relation = TaxRecordGenerator(size=500, noise=0.05, seed=7).generate_relation()
    cfds = experiment_cfd_set(num_cfds=5, tabsz=50, seed=7)
    expected = detect_violations(relation, cfds, method=method)
    assert expected.violating_indices() == (
        find_all_violations(relation, cfds).violating_indices()
    )
    assert not expected.is_clean()

    def refuse(cls, *args, **kwargs):
        raise AssertionError("the relation was copied into a column store")

    for store in (ColumnStore, MmapColumnStore):
        monkeypatch.setattr(store, "from_relation", classmethod(refuse))
    report = detect_violations(relation, cfds, method=method)
    assert list(report.violations) == list(expected.violations)


class TestCrossCheck:
    def test_agreement_on_cust(self, cust, cust_constraints):
        result = cross_check(cust, cust_constraints)
        assert result.agree
        assert result.only_inmemory == frozenset()
        assert result.only_sql == frozenset()

    def test_three_way_check_includes_indexed(self, cust, cust_constraints):
        result = cross_check(cust, cust_constraints)
        assert result.indexed_indices == result.inmemory_indices
        assert result.only_indexed == frozenset()
        assert result.disagreements() == {}

    def test_indexed_backend_is_always_run(self, cust, cust_constraints):
        # The two-way include_indexed=False shape of PR 1 is gone: the result
        # always carries all three index sets.
        result = cross_check(cust, cust_constraints)
        assert isinstance(result.indexed_indices, frozenset)
        with pytest.raises(TypeError):
            cross_check(cust, cust_constraints, include_indexed=False)

    def test_agreement_on_generated_data(self, small_tax_workload):
        from repro.datagen.cfd_catalog import zip_city_state_cfd

        result = cross_check(small_tax_workload.relation, [zip_city_state_cfd()])
        assert result.agree

    def test_merged_strategy_cross_check(self, cust, cust_constraints):
        result = cross_check(cust, cust_constraints, strategy="merged")
        assert result.agree

    def test_single_cfd_argument(self, cust, cfd_phi2):
        assert cross_check(cust, cfd_phi2).agree

    def test_disagreement_reporting_fields(self):
        result = CrossCheckResult(
            inmemory_indices=frozenset({1, 2}),
            sql_indices=frozenset({2, 3}),
            indexed_indices=frozenset({1, 2}),
        )
        assert not result.agree
        assert result.only_inmemory == frozenset({1})
        assert result.only_sql == frozenset({3})

    def test_three_way_disagreement_is_pairwise(self):
        result = CrossCheckResult(
            inmemory_indices=frozenset({1, 2}),
            sql_indices=frozenset({1, 2}),
            indexed_indices=frozenset({2, 3}),
        )
        assert not result.agree
        assert result.only_indexed == frozenset({3})
        assert result.disagreements() == {
            ("inmemory", "indexed"): frozenset({1, 3}),
            ("sql", "indexed"): frozenset({1, 3}),
        }
