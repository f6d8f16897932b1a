"""Ablation: sharded parallel execution vs the serial engines (10K tax).

The acceptance criteria of the parallel engine, asserted outright on the
paper's 10K-tuple tax workload (Section 5 knobs, the ``[ZIP] → [ST]``
constraint):

* ``method="parallel"`` produces the **byte-identical repaired relation** the
  incremental engine produces — sharding by LHS equivalence classes plus
  deterministic per-cell repair decisions make the split invisible in the
  output;
* the parallel engine delivers a **measured speedup** over the seed serial
  baselines (the scan-driven repair loop and the per-pattern scan oracle).
  Those margins are order-of-magnitude, so they hold even on a single-core
  CI runner where the process pool itself buys nothing.  Against the
  *optimised* serial engines the pool only pays past
  :data:`repro.registry.PARALLEL_AUTO_ROW_THRESHOLD` rows — which is exactly
  why ``method="auto"`` keeps 10K-row workloads serial; the measured ratio is
  recorded in the ``parallel`` bench series (``BENCH_parallel.json``) rather
  than asserted here.

See ``docs/parallel.md`` for the sharding invariant behind the identity.
"""

from collections import Counter

import pytest

from benchmarks.conftest import BENCH_NOISE, BENCH_SEED
from repro.bench.harness import (
    build_workload,
    time_backend,
    time_parallel_detection,
    time_parallel_repair,
    time_repair,
)
from repro.core.satisfaction import find_all_violations

#: The acceptance workload: 10K tax tuples at the paper's default 5% noise.
TAX_SZ = 10_000
#: Pattern sample of the [ZIP] -> [ST] tableau (as in the repair ablation).
TAX_TABSZ = 300
#: Pool geometry: modest, CI-runner friendly.
WORKERS = 2
SHARDS = 4


@pytest.fixture(scope="module")
def tax_workload():
    assert BENCH_NOISE >= 0.05
    return build_workload(
        size=TAX_SZ, noise=BENCH_NOISE, seed=BENCH_SEED,
        num_attrs=2, tabsz=TAX_TABSZ, num_consts=1.0,
    )


def _changes_key(result):
    """The change multiset: parallel repair logs changes in shard order."""
    return Counter(
        (change.tuple_index, change.attribute, change.old_value, change.new_value)
        for change in result.changes
    )


# ---------------------------------------------------------------------------
# timed series (what BENCH_parallel.json records over the worker sweep)
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="ablation-parallel-repair")
def test_parallel_repair_tax(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: time_parallel_repair(tax_workload, shard_count=SHARDS, workers=WORKERS),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="ablation-parallel-repair")
def test_incremental_repair_tax_baseline(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: time_repair(tax_workload, "incremental"),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="ablation-parallel-detect")
def test_parallel_detection_tax(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: time_parallel_detection(tax_workload, shard_count=SHARDS, workers=WORKERS),
        rounds=3, iterations=1,
    )


# ---------------------------------------------------------------------------
# headline assertions (acceptance criteria)
# ---------------------------------------------------------------------------
def test_parallel_repair_byte_identical_to_incremental_on_10k_tax(tax_workload):
    """The core acceptance criterion: the split is invisible in the repair."""
    parallel_seconds, parallel = time_parallel_repair(
        tax_workload, shard_count=SHARDS, workers=WORKERS
    )
    incremental_seconds, incremental = time_repair(tax_workload, "incremental")
    assert parallel.clean and incremental.clean
    assert parallel.relation == incremental.relation
    assert parallel.relation.rows == incremental.relation.rows  # byte-identical
    assert _changes_key(parallel) == _changes_key(incremental)
    assert parallel.total_cost == pytest.approx(incremental.total_cost)
    assert find_all_violations(parallel.relation, tax_workload.cfds).is_clean()
    # Context for the report; the serial-vs-parallel crossover is asserted
    # against the seed baseline below, not against the incremental engine.
    assert parallel_seconds > 0 and incremental_seconds > 0


def test_parallel_repair_beats_scan_on_10k_tax(tax_workload):
    """The measured speedup: sharded parallel repair vs the seed scan loop."""
    parallel_seconds, parallel = time_parallel_repair(
        tax_workload, shard_count=SHARDS, workers=WORKERS
    )
    scan_seconds, scan = time_repair(tax_workload, "scan")
    assert parallel.relation == scan.relation
    assert parallel_seconds < scan_seconds, (
        f"parallel repair ({parallel_seconds:.3f}s) should beat the seed "
        f"scan-driven loop ({scan_seconds:.3f}s) on the 10K tax workload"
    )


def test_parallel_detection_beats_oracle_on_10k_tax(tax_workload):
    """The measured speedup: sharded parallel detection vs the scan oracle."""
    parallel_seconds, report = time_parallel_detection(
        tax_workload, shard_count=SHARDS, workers=WORKERS
    )
    oracle_seconds, oracle = time_backend(tax_workload, "inmemory")
    assert set(report.violations) == set(oracle.violations)
    assert parallel_seconds < oracle_seconds, (
        f"parallel detection ({parallel_seconds:.3f}s) should beat the "
        f"per-pattern scan oracle ({oracle_seconds:.3f}s) on the 10K tax workload"
    )
