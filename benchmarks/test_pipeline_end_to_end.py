"""End-to-end pipeline benchmark: ``Cleaner.clean`` on the 10K tax workload.

The per-stage ablations time detection and repair in isolation; this suite
times (and asserts) what the unified pipeline API delivers end to end on the
acceptance workload — 10K noisy tax tuples against the ``[ZIP] → [ST]``
constraint:

* the cleaned relation is violation-free under the *oracle* backend (the
  reference semantics vouch for the result, whatever backends did the work);
* the cleaned relation is byte-identical whether the repair loop is driven
  by ``scan``, ``incremental`` or ``auto`` (which must resolve to
  ``incremental`` at this size);
* the full pipeline is timed next to the per-stage series.
"""

import pytest

from benchmarks.conftest import BENCH_NOISE, BENCH_SEED
from benchmarks.timing import time_clean
from repro.bench.harness import build_workload
from repro.config import DetectionConfig, RepairConfig
from repro.detection.engine import detect_violations
from repro.pipeline import Cleaner
from repro.registry import select_repair_method

#: The acceptance workload: 10K tax tuples at the paper's default 5% noise.
TAX_SZ = 10_000
#: Pattern sample of the [ZIP] -> [ST] tableau (as in the repair ablation).
TAX_TABSZ = 300


@pytest.fixture(scope="module")
def tax_workload():
    return build_workload(
        size=TAX_SZ, noise=BENCH_NOISE, seed=BENCH_SEED,
        num_attrs=2, tabsz=TAX_TABSZ, num_consts=1.0,
    )


def _clean_with(workload, repair_method):
    cleaner = Cleaner(
        detection=DetectionConfig(method="indexed"),
        repair=RepairConfig(method=repair_method, check_consistency=False),
    )
    return cleaner.clean(workload.relation, workload.cfds)


# ---------------------------------------------------------------------------
# timed series
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="pipeline-tax")
def test_pipeline_clean_tax(benchmark, tax_workload):
    result = benchmark.pedantic(
        lambda: _clean_with(tax_workload, "incremental"), rounds=3, iterations=1
    )
    assert result.clean


# ---------------------------------------------------------------------------
# headline assertions (the ISSUE 3 acceptance criterion, asserted outright)
# ---------------------------------------------------------------------------
def test_cleaner_output_is_oracle_clean_and_method_independent(tax_workload):
    assert select_repair_method(tax_workload.relation, tax_workload.cfds) == "incremental"
    results = {
        method: _clean_with(tax_workload, method)
        for method in ("scan", "incremental", "auto")
    }
    baseline = results["incremental"]
    # The oracle backend vouches the cleaned relation is violation-free.
    assert detect_violations(baseline.relation, tax_workload.cfds, method="inmemory").is_clean()
    for method, result in results.items():
        assert result.clean, method
        assert result.relation == baseline.relation, method
        assert result.passes == baseline.passes, method
        assert [
            (c.tuple_index, c.attribute, c.old_value, c.new_value)
            for c in result.changes
        ] == [
            (c.tuple_index, c.attribute, c.old_value, c.new_value)
            for c in baseline.changes
        ], method
    assert results["auto"].backends["repair"] == "incremental"


def test_pipeline_stage_timings_cover_the_run(tax_workload):
    seconds, result = time_clean(tax_workload)
    assert result.clean
    assert set(result.stage_seconds) == {
        "analyze", "ingest", "detect", "repair", "verify",
    }
    # The staged timings account for (almost all of) the measured wall clock.
    assert 0 < result.total_seconds <= seconds * 1.05
