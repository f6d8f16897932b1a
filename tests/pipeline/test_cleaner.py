"""The Cleaner facade: full detect → repair → verify runs with audit trails."""

from collections import Counter

import pytest

from repro.analysis import AnalysisWarning
from repro.config import DetectionConfig, RepairConfig
from repro.core.satisfaction import find_all_violations
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.core.cfd import CFD
from repro.datagen.generator import TaxRecordGenerator, tax_schema
from repro.detection.engine import detect_violations
from repro.errors import InconsistentCFDsError, ReproError
from repro.io.sources import CSVSource, IterableSource, RelationSource
from repro.kernels import numpy_available
from repro.pipeline import Cleaner, CleaningResult, clean
from repro.reasoning.consistency import is_consistent
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation


@pytest.mark.parametrize("storage", ["columnar", "mmap"])
def test_clean_ingests_straight_into_its_store(
    storage, cust, cust_constraints, monkeypatch, tmp_path
):
    expected = Cleaner().clean(cust, cust_constraints).relation.rows

    def refuse(cls, *args, **kwargs):
        raise AssertionError("the ingested relation was converted")

    for store in (ColumnStore, MmapColumnStore):
        monkeypatch.setattr(store, "from_relation", classmethod(refuse))
    monkeypatch.setattr(Relation, "from_validated_rows", classmethod(refuse))
    source = IterableSource(cust.schema, list(cust))
    config = RepairConfig(storage=storage, spill_dir=str(tmp_path))
    result = Cleaner(repair=config).clean(source, cust_constraints)
    assert result.clean
    assert result.backends["storage"] == storage
    assert result.relation.rows == expected
    if isinstance(result.relation, MmapColumnStore):
        result.relation.release()


class TestCleanOnCust:
    def test_reaches_a_verified_clean_relation(self, cust, cust_constraints):
        result = Cleaner().clean(cust, cust_constraints)
        assert isinstance(result, CleaningResult)
        assert result.clean
        assert result.final_report.is_clean()
        assert find_all_violations(result.relation, cust_constraints).is_clean()

    def test_source_relation_is_not_mutated(self, cust, cust_constraints):
        before = cust.rows
        Cleaner().clean(cust, cust_constraints)
        assert cust.rows == before

    def test_audit_trail_fields(self, cust, cust_constraints):
        result = Cleaner().clean(cust, cust_constraints)
        assert len(result.initial_report) == 4
        assert result.pass_violation_counts[0] == 4
        assert result.pass_violation_counts[-1] == 0
        assert result.rounds == 1
        assert result.passes >= 1
        assert result.changes and result.total_cost > 0
        assert set(result.stage_seconds) == {
            "analyze",
            "ingest",
            "detect",
            "repair",
            "verify",
        }
        assert result.total_seconds >= 0
        assert result.backends["verify"] == "inmemory"
        summary = result.summary()
        assert summary["clean"] is True
        assert summary["initial_violations"] == 4
        assert summary["final_violations"] == 0

    @pytest.mark.skipif(not numpy_available(), reason="needs the [fast] extra")
    def test_backends_record_the_repair_kernel_separately(self, cust, cust_constraints):
        result = Cleaner(
            DetectionConfig(kernel="python"),
            RepairConfig(kernel="numpy", method="incremental"),
        ).clean(cust, cust_constraints)
        assert result.backends["kernel"] == "python"
        assert result.backends["repair_kernel"] == "numpy"
        assert result.summary()["backends"]["repair_kernel"] == "numpy"

    def test_matches_direct_repair(self, cust, cust_constraints):
        from repro.repair.heuristic import repair

        pipeline_result = Cleaner().clean(cust, cust_constraints)
        direct = repair(cust, cust_constraints)
        assert pipeline_result.relation == direct.relation

    def test_already_clean_input_short_circuits(self, cust, cfd_phi1):
        result = Cleaner().clean(cust, cfd_phi1)
        assert result.clean
        assert result.rounds == 0
        assert result.passes == 0
        assert not result.changes

    def test_module_level_clean_shortcut(self, cust, cust_constraints):
        assert clean(cust, cust_constraints).clean

    def test_inconsistent_cfds_raise(self, relation_factory):
        from repro.core.cfd import CFD

        relation = relation_factory(["A", "B"], [("a", "b")])
        contradictory = [
            CFD.build(["A"], ["B"], [["_", "b"]]),
            CFD.build(["A"], ["B"], [["_", "c"]]),
        ]
        with pytest.raises(InconsistentCFDsError):
            Cleaner().clean(relation, contradictory)

    def test_max_rounds_validated(self):
        with pytest.raises(ReproError):
            Cleaner(max_rounds=0)


class TestOneConsistencyVerdict:
    """The pre-flight's consistency verdict is the only one a clean() makes."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro import rules

        calls = []

        def counting(cfds, schema=None):
            calls.append(len(cfds))
            return is_consistent(cfds, schema)

        # The compiled rule set decides every verdict the stages read.
        monkeypatch.setattr(rules, "is_consistent", counting)
        return calls

    def test_dirty_consistent_set_is_decided_once(
        self, cust, cust_constraints, counted
    ):
        result = Cleaner(analysis="warn").clean(cust, cust_constraints)
        assert result.changes and result.clean
        assert "consistency" in result.analysis_report.checks_run
        assert len(counted) == 1

    def test_inconsistent_set_still_raises_without_analysis(
        self, relation_factory, counted
    ):
        relation = relation_factory(["A", "B"], [("a", "b")])
        contradictory = [
            CFD.build(["A"], ["B"], [["_", "b"]], name="p1"),
            CFD.build(["A"], ["B"], [["_", "c"]], name="p2"),
        ]
        with pytest.raises(InconsistentCFDsError):
            Cleaner(analysis="off").clean(relation, contradictory)
        assert len(counted) == 1


@pytest.fixture
def compile_counts(monkeypatch):
    """Record each spec build, each ``CFD.normalize`` and each chase."""
    from repro import rules
    from repro.reasoning import consistency

    counts = {"built": [], "normalized": [], "decided": []}
    build_specs, normalize = rules.build_specs, CFD.normalize
    witness = consistency.consistency_witness

    def counting_build_specs(cfds):
        counts["built"].append(len(cfds))
        return build_specs(cfds)

    def counting_normalize(self):
        counts["normalized"].append(self)
        return normalize(self)

    def counting_witness(cfds, schema=None, bindings=None):
        counts["decided"].append(schema)
        return witness(cfds, schema, bindings)

    monkeypatch.setattr(rules, "build_specs", counting_build_specs)
    monkeypatch.setattr(CFD, "normalize", counting_normalize)
    monkeypatch.setattr(consistency, "consistency_witness", counting_witness)
    return counts


@pytest.mark.parametrize("analysis", ["off", "warn", "strict"])
def test_clean_compiles_the_rule_set_once(
    analysis, cust, cust_constraints, compile_counts
):
    """One clean() builds the specs once and decides consistency once."""
    cleaner = Cleaner(detection=DetectionConfig(method="indexed"), analysis=analysis)
    result = cleaner.clean(cust, cust_constraints)

    assert result.changes and result.clean
    assert result.backends["detect"] == "indexed"
    assert compile_counts["built"] == [len(cust_constraints)]
    # Once per input CFD that is not in normal form, never on a part.
    split = [cfd for cfd in cust_constraints if not cfd.is_normal_form()]
    normalized = compile_counts["normalized"]
    assert split and sorted(map(id, normalized)) == sorted(map(id, split))
    assert len(compile_counts["decided"]) == 1


def test_warn_with_cfd001_decides_again_without_the_schema(
    relation_factory, compile_counts
):
    """The one case that decides, and normalises, more than once.

    The pre-flight's ``False`` under the schema cannot answer repair's
    question without it, and the CFD001 core splits the rules once more.
    """
    relation = relation_factory(["A", "B"], [("a", "b")])
    contradictory = CFD.build(["A"], ["B"], [["_", "b"], ["_", "c"]], name="p")
    cleaner = Cleaner(detection=DetectionConfig(method="indexed"), analysis="warn")
    with pytest.warns(AnalysisWarning, match="CFD001"):
        with pytest.raises(InconsistentCFDsError):
            cleaner.clean(relation, [contradictory])

    assert compile_counts["built"] == [1]
    # The chase under the schema, the CFD001 core and repair's chase.
    assert compile_counts["normalized"] == [contradictory] * 3
    schema = relation.schema
    # The verdict, the core's two one-part shrink steps, then repair's.
    assert compile_counts["decided"] == [schema, schema, schema, None]


def test_row_engines_ingest_no_column_store(monkeypatch):
    cfds = [
        zip_state_cfd(),
        CFD.build(["ZIP", "MR"], ["STX"], [["_"] * 3], name="zip_mr_stx"),
    ]
    rows = TaxRecordGenerator(size=500, noise=0.05, seed=5).iter_rows()
    relation = Relation(tax_schema(), list(rows))
    cleaner = Cleaner(
        detection=DetectionConfig(method="inmemory"),
        repair=RepairConfig(method="scan"),
    )
    # The old path: a column store ingested, then decoded by the scan engine.
    before = cleaner.clean(ColumnStore.from_relation(relation), cfds)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a ColumnStore was built")

    monkeypatch.setattr(ColumnStore, "__init__", refuse)
    result = cleaner.clean(IterableSource(tax_schema(), list(relation)), cfds)
    assert result.backends["storage"] == "rows"
    assert result.changes, "the input must actually need repairs"
    assert result.clean
    assert result.changes == before.changes
    assert result.relation.rows == before.relation.rows


class TestSourcesThroughThePipeline:
    def test_csv_source(self, cust, cust_constraints, tmp_path):
        path = tmp_path / "cust.csv"
        cust.to_csv(path)
        result = Cleaner().clean(CSVSource(path), cust_constraints)
        assert result.clean
        assert str(path) in result.source

    def test_csv_path_string_is_coerced(self, cust, cust_constraints, tmp_path):
        path = tmp_path / "cust.csv"
        cust.to_csv(path)
        assert Cleaner().clean(str(path), cust_constraints).clean

    def test_iterable_source_with_schema(self, cust, cust_constraints):
        rows = list(cust.iter_dicts())
        result = Cleaner().clean(rows, cust_constraints, schema=cust.schema)
        assert result.clean
        assert len(result.relation) == len(cust)

    def test_detect_stage_only(self, cust, cust_constraints):
        report = Cleaner().detect(RelationSource(cust), cust_constraints)
        assert sorted(report.violating_indices()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("storage", ["columnar", "mmap"])
    def test_detect_streams_non_relation_sources(
        self, cust, cust_constraints, tmp_path, storage
    ):
        # An indexed/auto detect over a CSV goes through detect_stream and
        # must match the oracle on the materialised relation, violation for
        # violation, whichever store holds the streamed projection.
        path = tmp_path / "cust.csv"
        cust.to_csv(path)
        cleaner = Cleaner(
            detection=DetectionConfig(
                method="indexed", storage=storage, spill_dir=str(tmp_path / "spill")
            )
        )
        report = cleaner.detect(CSVSource(path), cust_constraints)
        oracle = find_all_violations(CSVSource(path).to_relation(), cust_constraints)
        assert list(report.violations) == list(oracle.violations)

    def test_detect_auto_streams_too(self, cust, cust_constraints, tmp_path):
        path = tmp_path / "cust.csv"
        cust.to_csv(path)
        report = Cleaner().detect(CSVSource(path), cust_constraints)
        assert sorted(report.violating_indices()) == [0, 1, 2, 3]


class TestBackendEquivalence:
    """Identical cleaned output no matter which backends do the work."""

    @pytest.fixture(scope="class")
    def noisy_tax(self):
        relation = TaxRecordGenerator(size=2_000, noise=0.05, seed=9).generate_relation()
        return relation, [zip_state_cfd()]

    @pytest.mark.parametrize("repair_method", ["scan", "incremental", "auto"])
    def test_identical_relation_across_repair_methods(self, noisy_tax, repair_method):
        relation, cfds = noisy_tax
        baseline = Cleaner(repair=RepairConfig(method="incremental")).clean(relation, cfds)
        result = Cleaner(repair=RepairConfig(method=repair_method)).clean(relation, cfds)
        assert result.clean
        assert result.relation == baseline.relation
        assert detect_violations(result.relation, cfds).is_clean()

    @pytest.mark.parametrize("detect_method", ["inmemory", "indexed", "sql", "auto"])
    def test_detection_backend_does_not_change_the_outcome(self, noisy_tax, detect_method):
        relation, cfds = noisy_tax
        result = Cleaner(detection=DetectionConfig(method=detect_method)).clean(relation, cfds)
        assert result.clean
        assert find_all_violations(result.relation, cfds).is_clean()


class TestStreamedOutOfCore:
    """Generator rows streamed into mmap storage clean like the columnar run."""

    @staticmethod
    def _clean(storage, spill_dir):
        cfd = CFD.build(
            ["ZIP", "MR", "CH"], ["STX", "MTX", "CTX"], [["_"] * 6], name="exemption_fd"
        )
        rows = TaxRecordGenerator(size=3_000, noise=0.05, seed=11).iter_rows()
        cleaner = Cleaner(
            detection=DetectionConfig(
                method="parallel", storage=storage, shard_count=2, spill_dir=spill_dir
            ),
            repair=RepairConfig(
                method="parallel",
                storage=storage,
                shard_count=2,
                check_consistency=False,
                spill_dir=spill_dir,
            ),
            verify_method="indexed",
        )
        return cleaner.clean(IterableSource(tax_schema(), rows), [cfd])

    @staticmethod
    def _changes(result):
        return Counter(
            (change.tuple_index, change.attribute, change.old_value, change.new_value)
            for change in result.changes
        )

    def test_mmap_pipeline_matches_columnar(self, tmp_path):
        columnar = self._clean("columnar", str(tmp_path))
        mmap = self._clean("mmap", str(tmp_path))
        try:
            assert mmap.backends["storage"] == "mmap"
            assert columnar.backends["storage"] == "columnar"
            assert mmap.clean and columnar.clean
            assert columnar.changes, "the workload must actually need repairs"
            assert mmap.relation.rows == columnar.relation.rows
            assert self._changes(mmap) == self._changes(columnar)
        finally:
            mmap.relation.release()
