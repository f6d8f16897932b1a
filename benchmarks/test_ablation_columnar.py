"""Columnar indexed detection and repair on 50K tax, checked against the oracle.

The full-size workload (Section 5 knobs, the ``[ZIP] → [ST]`` constraint
with a 300-pattern sample) run through the engines that compute over
dictionary codes, with the row-reading oracle as the reference:

* indexed detection over a pre-encoded :class:`ColumnStore` reports the
  same violations as the in-memory oracle (a multiset: the two emit in
  their own orders);
* the columnar incremental repair leaves a relation the oracle finds clean.

The small-relation agreement grid lives in
``tests/integration/test_storage_agreement.py``; this file pins the
full-size workload and times columnar detection.
"""

from collections import Counter

import pytest

from benchmarks.conftest import BENCH_NOISE, BENCH_SEED
from benchmarks.timing import time_kernel_detection
from repro.bench.harness import build_workload
from repro.config import RepairConfig
from repro.core.satisfaction import find_all_violations
from repro.repair.heuristic import repair

#: The acceptance workload: 50K tax tuples at the paper's default 5% noise.
TAX_SZ = 50_000
#: Pattern sample of the [ZIP] -> [ST] tableau (as in the repair ablation).
TAX_TABSZ = 300


@pytest.fixture(scope="module")
def tax_workload():
    assert BENCH_NOISE >= 0.05
    return build_workload(
        size=TAX_SZ, noise=BENCH_NOISE, seed=BENCH_SEED,
        num_attrs=2, tabsz=TAX_TABSZ, num_consts=1.0,
    )


@pytest.mark.benchmark(group="ablation-columnar-detect")
def test_columnar_detection_tax(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: time_kernel_detection(tax_workload, "auto"),
        rounds=3, iterations=1,
    )


def test_storage_layers_agree_byte_for_byte_on_50k_tax(tax_workload):
    """Full-size agreement with the oracle: same violations, clean repair."""
    _seconds, report = time_kernel_detection(tax_workload, "auto")
    oracle = find_all_violations(tax_workload.relation, tax_workload.cfds)
    assert Counter(report.violations) == Counter(oracle.violations)
    result = repair(
        tax_workload.relation,
        tax_workload.cfds,
        config=RepairConfig(
            method="incremental", storage="columnar", check_consistency=False
        ),
    )
    assert result.clean
    assert find_all_violations(result.relation, tax_workload.cfds).is_clean()
