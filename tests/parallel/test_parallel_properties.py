"""Hypothesis properties: parallel execution is invisible in the results.

For *random shard counts and worker counts* — at least two shards, up to
degenerate ones like ``shard_count > rows`` — sharded parallel detection must
report exactly the violations the serial engines find, in canonical order,
and sharded parallel repair must keep the parallel contract of
``docs/parallel.md``: the incremental engine's repaired relation, the same
multiset of cell changes and the same total cost.  Randomising the execution geometry (rather than the rule set) is
the point: the workload is held fixed and known-consistent, the split is
what varies.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import RepairConfig
from repro.core.satisfaction import find_all_violations
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.cust import cust_cfds, cust_relation
from repro.datagen.generator import TaxRecordGenerator
from repro.detection.engine import detect_violations
from repro.parallel.engine import find_violations_parallel
from repro.parallel.sharding import shard_relation
from repro.repair.heuristic import repair

# Keep worker counts small: every drawn example may start a process pool.
# Two shards at least, so every example plans, spills and merges.
shard_counts = st.integers(min_value=2, max_value=40)
worker_counts = st.integers(min_value=1, max_value=3)


def _change_key(change):
    return (change.tuple_index, change.attribute, change.old_value, change.new_value)


@pytest.fixture(scope="module")
def tax():
    return TaxRecordGenerator(size=300, noise=0.07, seed=13).generate_relation()


@pytest.fixture(scope="module")
def tax_cfds():
    return [zip_state_cfd()]


@pytest.fixture(scope="module")
def tax_oracle(tax, tax_cfds):
    return set(find_all_violations(tax, tax_cfds).violations)


@pytest.fixture(scope="module")
def tax_serial(tax, tax_cfds):
    return list(detect_violations(tax, tax_cfds, method="indexed").violations)


@pytest.fixture(scope="module")
def tax_incremental(tax, tax_cfds):
    return repair(tax, tax_cfds, method="incremental")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shard_count=shard_counts, workers=worker_counts)
def test_parallel_detection_agrees_for_any_geometry(
    tax, tax_cfds, tax_oracle, tax_serial, shard_count, workers
):
    report = find_violations_parallel(
        tax, tax_cfds, shard_count=shard_count, workers=workers
    )
    assert set(report.violations) == tax_oracle
    assert list(report.violations) == tax_serial


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shard_count=shard_counts, workers=worker_counts)
def test_parallel_repair_agrees_for_any_geometry(
    tax, tax_cfds, tax_incremental, shard_count, workers
):
    result = repair(
        tax,
        tax_cfds,
        config=RepairConfig(method="parallel", shard_count=shard_count, workers=workers),
    )
    assert result.parallel_stats.shard_count >= 2
    assert result.clean == tax_incremental.clean
    assert result.relation.rows == tax_incremental.relation.rows
    assert Counter(map(_change_key, result.changes)) == Counter(
        map(_change_key, tax_incremental.changes)
    )
    assert result.total_cost == pytest.approx(tax_incremental.total_cost)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shard_count=st.integers(min_value=1, max_value=100))
def test_shard_plan_partitions_the_relation_for_any_count(shard_count):
    relation, cfds = cust_relation(), cust_cfds()
    with shard_relation(relation, cfds, shard_count) as plan:
        seen = sorted(
            int(index) for shard in plan.shards for index in shard.global_indices()
        )
        assert seen == list(range(len(relation)))
        assert len(plan) <= max(1, min(shard_count, len(relation)))
