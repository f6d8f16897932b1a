"""Tests for the partition-indexed detection backend.

The indexed backend must be *violation-for-violation* identical to the
in-memory oracle of Section 2 semantics — not merely agree on index sets —
so most tests compare full violation sequences, order included.
"""

import pytest

from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations, find_violations
from repro.datagen.cfd_catalog import zip_city_state_cfd
from repro.detection.indexed import (
    IndexedDetector,
    detect_stream,
    find_cfd_violations_indexed,
    find_violations_indexed,
)
from repro.detection.partition_index import PartitionIndexCache
from repro.errors import DetectionError
from repro.relation import relation as relation_module
from repro.sql.merge import merge_cfds


class TestFindViolationsIndexed:
    def test_cust_violations_identical_to_oracle(self, cust, cust_constraints):
        oracle = find_all_violations(cust, cust_constraints)
        indexed = find_violations_indexed(cust, cust_constraints)
        assert list(indexed.violations) == list(oracle.violations)
        assert indexed.violating_indices() == frozenset({0, 1, 2, 3})

    def test_constant_violation_fields(self, cust, cfd_phi2):
        indexed = find_violations_indexed(cust, cfd_phi2)
        oracle = find_violations(cust, cfd_phi2)
        assert set(indexed.constant_violations()) == set(oracle.constant_violations())
        assert set(indexed.variable_violations()) == set(oracle.variable_violations())

    def test_accepts_single_cfd(self, cust, cfd_phi2):
        assert not find_violations_indexed(cust, cfd_phi2).is_clean()

    def test_clean_input_gives_clean_report(self, cust, cfd_phi1, cfd_phi3):
        assert find_violations_indexed(cust, [cfd_phi1, cfd_phi3]).is_clean()

    def test_empty_cfd_collection(self, cust):
        assert find_violations_indexed(cust, []).is_clean()

    def test_single_cfd_helper(self, cust, cfd_phi2):
        assert set(find_cfd_violations_indexed(cust, cfd_phi2).violations) == set(
            find_violations(cust, cfd_phi2).violations
        )

    def test_generated_tax_data_matches_oracle(self, small_tax_workload):
        cfd = zip_city_state_cfd()
        oracle = find_all_violations(small_tax_workload.relation, [cfd])
        indexed = find_violations_indexed(small_tax_workload.relation, [cfd])
        assert list(indexed.violations) == list(oracle.violations)

    def test_merged_dontcare_tableau_matches_oracle(self, cust, cust_constraints):
        merged = merge_cfds(cust_constraints).to_cfd()
        oracle = find_all_violations(cust, [merged])
        indexed = find_violations_indexed(cust, [merged])
        assert list(indexed.violations) == list(oracle.violations)

    def test_empty_lhs_cfd(self, relation_factory):
        relation = relation_factory(["A", "B"], [("x", "1"), ("y", "1"), ("z", "2")])
        cfd = CFD.build([], ["B"], [{"B": "1"}])
        oracle = find_all_violations(relation, [cfd])
        indexed = find_violations_indexed(relation, [cfd])
        assert list(indexed.violations) == list(oracle.violations)
        # Row 2 clashes with the constant; the single empty-LHS group also
        # takes two distinct B values, flagging every row.
        assert indexed.violating_indices() == frozenset({0, 1, 2})

    def test_rejects_cache_built_for_another_relation(self, cust, cust_constraints):
        other_cache = PartitionIndexCache(cust.copy())
        with pytest.raises(DetectionError):
            find_violations_indexed(cust, cust_constraints, cache=other_cache)

    def test_shared_cache_is_reused_across_calls(self, cust, cust_constraints):
        cache = PartitionIndexCache(cust)
        find_violations_indexed(cust, cust_constraints, cache=cache)
        misses_after_first = cache.stats()["misses"]
        find_violations_indexed(cust, cust_constraints, cache=cache)
        assert cache.stats()["misses"] == misses_after_first
        assert cache.stats()["hits"] > 0


class TestIndexedDetector:
    def test_detect_matches_oracle(self, cust, cust_constraints):
        detector = IndexedDetector(cust)
        report = detector.detect(cust_constraints)
        assert report.violating_indices() == frozenset({0, 1, 2, 3})

    def test_cache_persists_across_detect_calls(self, cust, cust_constraints):
        detector = IndexedDetector(cust)
        detector.detect(cust_constraints)
        misses = detector.cache_stats()["misses"]
        detector.detect(cust_constraints)
        assert detector.cache_stats()["misses"] == misses

    def test_patterns_sharing_an_lhs_share_one_index(self, cust, cfd_phi2):
        # phi2 has multiple pattern tuples over the same LHS: one build, then hits.
        assert len(cfd_phi2.tableau) > 1
        detector = IndexedDetector(cust)
        detector.detect([cfd_phi2])
        stats = detector.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(cfd_phi2.tableau) - 1

    def test_invalidate_rebuilds_after_mutation(self, cust, cfd_phi2):
        detector = IndexedDetector(cust)
        before = detector.detect([cfd_phi2]).violating_indices()
        # Repair t1's city: the (01, 908 || MH) pattern is no longer violated.
        cust.update(0, "CT", "MH")
        cust.update(1, "CT", "MH")
        detector.invalidate()
        after = detector.detect([cfd_phi2]).violating_indices()
        assert after == find_violations(cust, cfd_phi2).violating_indices()
        assert after != before

    def test_mutation_without_invalidate_raises(self, cust, cfd_phi2):
        # The detector computes over an encoded copy of the plain relation;
        # a mutation of the relation itself must still be caught.
        detector = IndexedDetector(cust)
        detector.detect([cfd_phi2])
        cust.update(0, "CT", "MH")
        with pytest.raises(DetectionError):
            detector.detect([cfd_phi2])


class TestDetectStream:
    def test_stream_matches_oracle_with_small_chunks(
        self, cust, cust_constraints, monkeypatch
    ):
        # The projection is ingested a block at a time; tiny blocks must not
        # change a thing.
        oracle = find_all_violations(cust, cust_constraints)
        for block_rows in (1, 2, 4, 100):
            monkeypatch.setattr(relation_module, "INGEST_BLOCK_ROWS", block_rows)
            report = detect_stream(cust.schema, iter(cust.rows), cust_constraints)
            assert list(report.violations) == list(oracle.violations)

    def test_stream_accepts_mapping_rows(self, cust, cust_constraints):
        report = detect_stream(cust.schema, cust.iter_dicts(), cust_constraints)
        assert report.violating_indices() == find_all_violations(cust, cust_constraints).violating_indices()

    def test_stream_indices_refer_to_stream_positions(self, cust, cfd_phi2):
        report = detect_stream(cust.schema, iter(cust.rows), cfd_phi2)
        assert report.violating_indices() == find_violations(cust, cfd_phi2).violating_indices()

    def test_stream_empty_cfds(self, cust):
        assert detect_stream(cust.schema, iter(cust.rows), []).is_clean()

    def test_stream_only_consumes_source_once(self, cust, cust_constraints):
        consumed = []

        def source():
            for row in cust.rows:
                consumed.append(row)
                yield row

        detect_stream(cust.schema, source(), cust_constraints)
        assert len(consumed) == len(cust)

    def test_stream_projects_away_unconstrained_attributes(self, relation_factory):
        # B is untouched by the CFD; rows missing it positionally would fail a
        # full materialisation but the stream only keeps A and C.
        relation = relation_factory(
            ["A", "B", "C"],
            [("a1", "pad0", "c1"), ("a1", "pad1", "c2"), ("a2", "pad2", "c1")],
        )
        cfd = CFD.build(["A"], ["C"], [["_", "_"]])
        report = detect_stream(relation.schema, iter(relation.rows), cfd)
        assert report.violating_indices() == find_violations(relation, cfd).violating_indices()
        assert report.violating_indices() == frozenset({0, 1})
