"""Ablation: numpy vs pure-python kernels on the repair fixpoint (50K tax).

The acceptance criteria of the *repair-side* kernel layer — the batched
class re-evaluation (``partition_classes`` / ``evaluate_classes``), the
array-backed partition deltas (:class:`~repro.detection.partition_index.CodePartitionIndex`)
and the code-keyed candidate pricing
(:class:`~repro.repair.cost.CodeDistanceCache`) — asserted outright on a
50K-tuple tax workload constrained by the plain exemption FD keyed by zip
code (``[ZIP, MR, CH] → [STX, MTX, CTX]``) at 1% noise:

* the full columnar incremental repair fixpoint under ``kernel="numpy"`` is
  at least **3× faster** than under ``kernel="python"`` — initial violation
  discovery collapses to one ``evaluate_classes`` call per pattern, every
  pass's re-checks go through the same batched primitive over the dirty
  class set, and partition maintenance becomes one scatter per touched
  index instead of per-tuple dict surgery;
* the :class:`~repro.repair.heuristic.RepairResult` change logs are
  **byte-identical** across the two kernels (the small-relation agreement
  grid lives in ``tests/integration/test_kernel_agreement.py``; this file
  pins the full-size workload);
* the two-shard ``method="parallel"`` point keeps the parallel contract of
  ``docs/parallel.md``: the same final relation, the same multiset of cell
  changes (the log comes back in shard order) and the same total cost.

The timing contract is :func:`~repro.bench.harness.time_kernel_repair`: the
store is pre-built and force-encoded outside the timer (identical one-off
work for every kernel), so the ratio measures the fixpoint itself.  The
measured series — including a ``method="parallel"`` point, whose per-shard
incremental fixpoints adopt the same batched path — is written to
``BENCH_repair_kernels.json`` (into ``REPRO_BENCH_JSON_DIR``, default
``bench-artifacts/``), the same artifact the ``repair_kernels`` bench
series produces in CI, so the repair-side speedup is tracked run over run.
"""

import os
from collections import Counter

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.bench.harness import build_fd_workload, time_kernel_repair
from repro.bench.reporting import write_json
from repro.core.satisfaction import find_all_violations
from repro.kernels import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the numpy kernel needs the [fast] extra"
)

#: The acceptance workload: 50K tax tuples.
TAX_SZ = 50_000
#: 1% noise: enough violations that the fixpoint runs real repair passes,
#: few enough that re-evaluation dominates over cell writes — the regime the
#: batched primitives target.
TAX_NOISE = 0.01
#: The headline bar: the numpy kernel must beat the python reference by at
#: least 3x on the whole incremental repair fixpoint.  Local measurements
#: sit around 3.5-4x; the fixpoint shares more kernel-independent work
#: (plurality voting, cost accounting, the greedy loop itself) than pure
#: detection does, so the bar is lower than detection's 5x but the margin
#: against a loaded CI runner is comparable — helped further by the
#: interleaved min-of-pairs measurement below, which keeps the ratio stable
#: under uniform machine slowdowns.
MIN_REPAIR_SPEEDUP = 3.0
#: Shards of the parallel point: pinned, so the host's CPU count can never
#: collapse the run to the serial single-shard shortcut.
PARALLEL_SHARDS = 2


@pytest.fixture(scope="module")
def fd_workload():
    return build_fd_workload(size=TAX_SZ, noise=TAX_NOISE, seed=BENCH_SEED)


def _changes_key(result):
    return [
        (change.tuple_index, change.attribute, change.old_value, change.new_value)
        for change in result.changes
    ]


# ---------------------------------------------------------------------------
# timed series (what pytest-benchmark records)
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="ablation-repair-kernels")
def test_numpy_kernel_repair_tax(benchmark, fd_workload):
    benchmark.pedantic(
        lambda: time_kernel_repair(fd_workload, "numpy"),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="ablation-repair-kernels")
def test_python_kernel_repair_tax_baseline(benchmark, fd_workload):
    benchmark.pedantic(
        lambda: time_kernel_repair(fd_workload, "python"),
        rounds=3, iterations=1,
    )


# ---------------------------------------------------------------------------
# headline assertions (acceptance criteria)
# ---------------------------------------------------------------------------
def test_numpy_kernel_repair_at_least_3x_on_50k_tax(fd_workload):
    """The core acceptance criterion, with the measurement persisted.

    The two kernels are timed in *interleaved* python/numpy pairs and each
    side takes its minimum: external load hits adjacent runs alike, so a
    throttled machine slows both series together and the ratio survives,
    where back-to-back blocks would let drift land on one kernel only.  One
    untimed warm-up pair absorbs cold caches first.
    """
    time_kernel_repair(fd_workload, "python")
    time_kernel_repair(fd_workload, "numpy")
    python_runs, numpy_runs = [], []
    python_result = numpy_result = None
    for _ in range(5):
        seconds, python_result = time_kernel_repair(fd_workload, "python")
        python_runs.append(seconds)
        seconds, numpy_result = time_kernel_repair(fd_workload, "numpy")
        numpy_runs.append(seconds)
    python_seconds = min(python_runs)
    numpy_seconds = min(numpy_runs)
    assert python_result.clean and numpy_result.clean
    assert _changes_key(python_result) == _changes_key(numpy_result)
    assert python_result.total_cost == numpy_result.total_cost
    assert find_all_violations(numpy_result.relation, fd_workload.cfds).is_clean()
    parallel_seconds, parallel_result = time_kernel_repair(
        fd_workload, "numpy", method="parallel", shard_count=PARALLEL_SHARDS
    )
    assert parallel_result.parallel_stats.shard_count == PARALLEL_SHARDS
    assert parallel_result.relation == numpy_result.relation
    assert Counter(_changes_key(parallel_result)) == Counter(
        _changes_key(numpy_result)
    )
    assert parallel_result.total_cost == pytest.approx(numpy_result.total_cost)
    speedup = python_seconds / numpy_seconds if numpy_seconds else float("inf")
    write_json(
        os.environ.get("REPRO_BENCH_JSON_DIR", "bench-artifacts"),
        "repair_kernels",
        [
            {
                "SZ": TAX_SZ,
                "python_repair_seconds": python_seconds,
                "numpy_repair_seconds": numpy_seconds,
                "parallel_repair_seconds": parallel_seconds,
                "numpy_speedup": speedup,
            }
        ],
        metadata={
            "workload": fd_workload.label,
            "source": "test_ablation_repair_kernels",
        },
    )
    assert speedup >= MIN_REPAIR_SPEEDUP, (
        f"numpy-kernel incremental repair ({numpy_seconds:.4f}s) should be at "
        f"least {MIN_REPAIR_SPEEDUP}x faster than the python kernel "
        f"({python_seconds:.4f}s) on the 50K tax workload, got {speedup:.2f}x"
    )
