"""Ablation: partition-indexed detection vs the oracle vs the seed scan vs SQL.

The seed scan (``tests/oracle_spec.py``, the oracle's specification)
re-scans the relation once per pattern tuple, so its cost is
``O(|I| x TABSZ)``.  The in-memory oracle scans once per constant-LHS mask
with a dict lookup per tuple, ``O(|I| x #masks + TABSZ)``.  The indexed
backend builds one partition map per distinct LHS attribute set and answers
every pattern from it, so its cost is ``O(|I| + TABSZ x #partitions)`` — see
``docs/detection.md``.  This ablation times the backends on the paper's
tax-records generator (Section 5 knobs) and on the running-example ``cust``
instance, and asserts the headline claim outright: indexed beats the
per-pattern scan on the 10K-tuple tax workload.

Each indexed round starts from a cold cache, so partition construction is
included in the measured time — the comparison is end-to-end, not
amortised.  SQL rounds time only the query pair (load/indexing is setup),
mirroring ``time_detection``.
"""

import pytest

from benchmarks.conftest import BENCH_NOISE, BENCH_SEED
from benchmarks.timing import SEED_SCAN, time_backend
from repro.bench.harness import build_workload
from repro.core.satisfaction import find_all_violations
from repro.datagen.cust import cust_cfds, cust_relation
from repro.detection.engine import cross_check
from repro.detection.indexed import IndexedDetector
from tests.oracle_spec import find_all_violations as seed_scan_violations

#: The acceptance workload: 10K tax tuples (the paper's smallest SZ point).
TAX_SZ = 10_000
#: Modest tableau so the per-pattern seed-scan series stays tolerable.
TAX_TABSZ = 100


@pytest.fixture(scope="module")
def tax_workload():
    return build_workload(
        size=TAX_SZ, noise=BENCH_NOISE, seed=BENCH_SEED,
        num_attrs=3, tabsz=TAX_TABSZ, num_consts=0.5,
    )


@pytest.fixture(scope="module")
def cust_workload():
    from repro.bench.harness import DetectionWorkload

    return DetectionWorkload(relation=cust_relation(), cfds=cust_cfds(), label="cust (Figure 1)")


# ---------------------------------------------------------------------------
# tax-records generator (Section 5 workload)
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="ablation-indexed-vs-scan-tax")
def test_indexed_tax(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: IndexedDetector(tax_workload.relation).detect(tax_workload.cfds),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="ablation-indexed-vs-scan-tax")
def test_inmemory_tax(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: find_all_violations(tax_workload.relation, tax_workload.cfds),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="ablation-indexed-vs-scan-tax")
def test_seed_scan_tax(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: seed_scan_violations(tax_workload.relation, tax_workload.cfds),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="ablation-indexed-vs-scan-tax")
def test_sql_tax(benchmark, tax_workload):
    detector = tax_workload.detector()

    def run():
        detector.detect(tax_workload.cfds, form="dnf", expand_variable_violations=False)

    try:
        benchmark.pedantic(run, rounds=3, iterations=1)
    finally:
        detector.close()


# ---------------------------------------------------------------------------
# cust running example (Figures 1-2 workload)
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="ablation-indexed-vs-scan-cust")
def test_indexed_cust(benchmark, cust_workload):
    benchmark.pedantic(
        lambda: IndexedDetector(cust_workload.relation).detect(cust_workload.cfds),
        rounds=5, iterations=10,
    )


@pytest.mark.benchmark(group="ablation-indexed-vs-scan-cust")
def test_inmemory_cust(benchmark, cust_workload):
    benchmark.pedantic(
        lambda: find_all_violations(cust_workload.relation, cust_workload.cfds),
        rounds=5, iterations=10,
    )


@pytest.mark.benchmark(group="ablation-indexed-vs-scan-cust")
def test_sql_cust(benchmark, cust_workload):
    detector = cust_workload.detector()

    def run():
        detector.detect(cust_workload.cfds, form="dnf", expand_variable_violations=False)

    try:
        benchmark.pedantic(run, rounds=5, iterations=10)
    finally:
        detector.close()


# ---------------------------------------------------------------------------
# headline assertions (acceptance criteria, not timings-for-the-report)
# ---------------------------------------------------------------------------
def test_indexed_beats_inmemory_on_10k_tax(tax_workload):
    """The repo's first hot-path speedup claim, asserted directly."""
    indexed_seconds, indexed_report = time_backend(tax_workload, "indexed")
    scan_seconds, scan_report = time_backend(tax_workload, SEED_SCAN)
    _, inmemory_report = time_backend(tax_workload, "inmemory")
    assert indexed_report.violating_indices() == scan_report.violating_indices()
    assert indexed_report.violating_indices() == inmemory_report.violating_indices()
    assert indexed_seconds < scan_seconds, (
        f"indexed ({indexed_seconds:.3f}s) should beat the per-pattern scan "
        f"({scan_seconds:.3f}s) on the 10K tax workload"
    )


def test_all_backends_agree_on_10k_tax(tax_workload):
    result = cross_check(tax_workload.relation, tax_workload.cfds)
    assert result.agree, f"backends disagree: {result.disagreements()}"
