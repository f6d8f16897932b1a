"""Tests for the SQLite detection engine."""

import pytest

from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.datagen.cust import phi2, phi3
from repro.errors import DetectionError
from repro.sql.engine import SQLDetector
from repro.sql.loader import create_indexes, tableau_table_name
from repro.sql.single import SingleCFDQueryBuilder


@pytest.fixture
def detector(cust):
    with SQLDetector(cust) as det:
        yield det


class TestDetect:
    @pytest.mark.parametrize("strategy,form", [
        ("per_cfd", "cnf"),
        ("per_cfd", "dnf"),
        ("merged", "cnf"),
    ])
    def test_strategies_agree_with_oracle_on_cust(self, cust, cust_constraints, strategy, form):
        oracle = find_all_violations(cust, cust_constraints)
        with SQLDetector(cust) as detector:
            run = detector.detect(cust_constraints, strategy=strategy, form=form)
        assert run.report.violating_indices() == oracle.violating_indices()

    def test_empty_cfd_list(self, detector):
        run = detector.detect([])
        assert run.report.is_clean()
        assert run.timings == []

    def test_unknown_strategy_rejected(self, detector, cust_constraints):
        with pytest.raises(DetectionError):
            detector.detect(cust_constraints, strategy="magic")

    def test_clean_relation_produces_clean_report(self, clean_tax_relation):
        from repro.datagen.cfd_catalog import zip_state_cfd

        with SQLDetector(clean_tax_relation) as detector:
            run = detector.detect([zip_state_cfd()])
        assert run.report.is_clean()

    def test_constant_violations_carry_pattern_provenance(self, detector, cfd_phi2):
        run = detector.detect([cfd_phi2])
        constant = run.report.constant_violations()
        assert constant
        assert all(violation.cfd_name == "phi2" for violation in constant)
        assert all(violation.pattern_index == 0 for violation in constant)

    def test_variable_violations_expanded_to_tuples(self, detector, cfd_phi2):
        run = detector.detect([cfd_phi2])
        variable = run.report.variable_violations()
        assert variable
        indices = set()
        for violation in variable:
            indices.update(violation.tuple_indices)
        assert indices == {2, 3}

    def test_expansion_can_be_disabled(self, detector, cfd_phi2):
        run = detector.detect([cfd_phi2], expand_variable_violations=False)
        variable = run.report.variable_violations()
        assert variable
        assert all(violation.tuple_indices == () for violation in variable)

    def test_detector_is_reusable(self, detector, cust_constraints):
        first = detector.detect(cust_constraints)
        second = detector.detect(cust_constraints)
        assert first.report.violating_indices() == second.report.violating_indices()


class TestTimings:
    def test_per_cfd_timings_cover_both_queries(self, detector, cust_constraints):
        run = detector.detect(cust_constraints, expand_variable_violations=False)
        labels = {timing.label for timing in run.timings}
        for cfd in cust_constraints:
            assert f"qc:{cfd.name}" in labels
            assert f"qv:{cfd.name}" in labels

    def test_merged_timings_have_two_queries(self, detector, cust_constraints):
        run = detector.detect(cust_constraints, strategy="merged", expand_variable_violations=False)
        labels = [timing.label for timing in run.timings]
        assert labels == ["qc:merged", "qv:merged"]

    def test_total_and_prefix_sums(self, detector, cust_constraints):
        run = detector.detect(cust_constraints, expand_variable_violations=False)
        assert run.total_seconds == pytest.approx(
            sum(timing.seconds for timing in run.timings)
        )
        assert run.seconds_for("qc") <= run.total_seconds

    def test_timings_record_row_counts(self, detector, cfd_phi2):
        run = detector.detect([cfd_phi2], expand_variable_violations=False)
        qc_timing = next(timing for timing in run.timings if timing.label.startswith("qc"))
        assert qc_timing.rows == 2


class TestGeneratedSQL:
    def test_per_cfd_sql_map(self, detector, cust_constraints):
        queries = detector.generated_sql(cust_constraints, strategy="per_cfd", form="cnf")
        assert len(queries) == 2 * len(cust_constraints)
        assert all("SELECT" in sql for sql in queries.values())

    def test_merged_sql_map(self, detector, cust_constraints):
        queries = detector.generated_sql(cust_constraints, strategy="merged")
        assert set(queries) == {"qc:merged", "qv:merged"}

    def test_unknown_strategy_rejected(self, detector, cust_constraints):
        with pytest.raises(DetectionError):
            detector.generated_sql(cust_constraints, strategy="magic")


class TestLargerWorkload:
    def test_generated_workload_cross_backend_agreement(self, small_tax_workload):
        from repro.datagen.cfd_catalog import zip_state_cfd, exemption_cfd

        relation = small_tax_workload.relation
        cfds = [zip_state_cfd(), exemption_cfd()]
        oracle = find_all_violations(relation, cfds)
        with SQLDetector(relation) as detector:
            per_cfd = detector.detect(cfds, strategy="per_cfd", form="dnf")
            merged = detector.detect(cfds, strategy="merged")
        assert per_cfd.report.violating_indices() == oracle.violating_indices()
        assert merged.report.violating_indices() == oracle.violating_indices()

    def test_detected_tuples_are_subset_of_injected_plus_collateral(self, small_tax_workload):
        from repro.datagen.cfd_catalog import zip_state_cfd

        relation = small_tax_workload.relation
        with SQLDetector(relation) as detector:
            run = detector.detect([zip_state_cfd()])
        constant_violators = {
            violation.tuple_indices[0] for violation in run.report.constant_violations()
        }
        # Every constant (single-tuple) violation must be an injected dirty tuple.
        assert constant_violators <= small_tax_workload.dirty_indices


def _normalized(report):
    """A report in a form both detectors produce: constant violations as
    distinct ``(cfd, pattern, tuple)`` (SQL reports one per pattern, the
    oracle one per RHS attribute), variable ones as distinct member sets (SQL
    reports one per violating group, the oracle one per pattern it matches)."""
    constant = {
        (violation.cfd_name, violation.pattern_index, violation.tuple_index)
        for violation in report.constant_violations()
    }
    variable = {frozenset(v.tuple_indices) for v in report.variable_violations()}
    return constant, variable


def _columns(detector):
    table = detector.data_table
    pragma = f'PRAGMA table_info("{table}")'
    return [row[1] for row in detector.connection.execute(pragma)]


class TestPhysicalDesign:
    def test_data_table_holds_the_index_column_and_attrs_sigma(self, detector, cust):
        cfds = [phi2(), phi3()]
        detector.detect(cfds)
        named = {attr for cfd in cfds for attr in (*cfd.lhs, *cfd.rhs)}
        assert "NM" not in named
        expected = [attr for attr in cust.schema.names if attr in named]
        assert _columns(detector) == ["_idx"] + expected
        assert expected == ["CC", "AC", "PN", "STR", "CT", "ZIP"]

    @pytest.mark.parametrize("query", ["qc_sql", "qv_sql"])
    def test_dnf_queries_read_covering_lhs_indexes(self, detector, query):
        cfds = [phi2(), phi3()]
        detector.detect(cfds)
        for cfd in cfds:
            builder = SingleCFDQueryBuilder(
                cfd, detector.data_table, tableau_table_name(cfd)
            )
            sql = getattr(builder, query)("dnf")
            explained = detector.connection.execute(f"EXPLAIN QUERY PLAN {sql}")
            plan = [row[-1] for row in explained]
            on_data = [step for step in plan if " t USING " in step]
            assert any("USING COVERING INDEX idx_" in step for step in on_data), plan
            assert not any("USING INDEX idx_" in step for step in on_data), plan

    def test_second_detect_reloads_over_the_union(self, detector, cust):
        detector.detect([phi3()])
        assert "NM" not in _columns(detector)
        name_fd = CFD.build(["PN"], ["NM"], [["_", "_"]], name="pn_nm")
        cfds = [phi2(), name_fd]
        run = detector.detect(cfds)
        assert _normalized(run.report) == _normalized(find_all_violations(cust, cfds))
        assert _columns(detector) == ["_idx"] + list(cust.schema.names)

    def test_data_table_before_any_detect_holds_every_attribute(
        self, cust, cust_constraints
    ):
        with SQLDetector(cust) as detector:
            assert _columns(detector) == ["_idx"] + list(cust.schema.names)
            create_indexes(detector.connection, detector.data_table, [phi2()])
            count = detector.connection.execute(
                f'SELECT COUNT(*) FROM "{detector.data_table}" WHERE "NM" IS NOT NULL'
            ).fetchone()[0]
            assert count == len(cust)
            run = detector.detect(cust_constraints)
            assert _columns(detector) == ["_idx"] + list(cust.schema.names)
        oracle = find_all_violations(cust, cust_constraints)
        assert run.report.violating_indices() == oracle.violating_indices()
