"""Ablation: numpy vs pure-python kernels (50K tax, pure-``Q^V`` regime).

The acceptance criteria of the kernel layer (:mod:`repro.kernels`),
asserted outright on a 50K-tuple tax workload constrained by the plain
exemption FD keyed by zip code (``[ZIP, MR, CH] → [STX, MTX, CTX]``, which
holds on clean data because zips determine states) at 1% noise:

* columnar indexed detection under ``kernel="numpy"`` is at least **5×
  faster** than under ``kernel="python"`` — the array class index (one
  radix sort of the composite LHS key) and one ``evaluate_classes`` call
  (``reduceat`` reductions over the whole class table) replace the
  per-tuple grouping dict and the per-class disagreement scans;
* detection reports and repairs are **byte-identical** across the two
  kernels (the small-relation agreement grid lives in
  ``tests/integration/test_kernel_agreement.py``; this file pins the
  full-size workload).

The workload is deliberately the mostly-clean regime: with few violations
the python reference cannot short-circuit its disagreement scans early, so
this is its worst case *and* the common production case (detection runs on
data that is mostly fine).  The measured pair is written to
``BENCH_kernels.json`` (into ``REPRO_BENCH_JSON_DIR``, default
``bench-artifacts/``) for comparison between local runs; the file is not
committed.
"""

import os

import pytest

from benchmarks.conftest import BENCH_SEED
from benchmarks.timing import build_fd_workload, time_kernel_detection
from repro.bench.reporting import write_json
from repro.config import RepairConfig
from repro.core.satisfaction import find_all_violations
from repro.kernels import numpy_available
from repro.repair.heuristic import repair

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the numpy kernel needs the [fast] extra"
)

#: The acceptance workload: 50K tax tuples.
TAX_SZ = 50_000
#: Low noise pins the python kernel's worst case (no early exit from the
#: per-partition disagreement scans) — see the module docstring.
TAX_NOISE = 0.01
#: The headline bar: the numpy kernel must beat the python reference by at
#: least 5x on indexed detection.  Local measurements sit around 10-16x; 5x
#: leaves room for a loaded CI runner without letting a regression through.
MIN_DETECT_SPEEDUP = 5.0


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
@pytest.mark.benchmark(group="ablation-kernels-detect")
def test_numpy_kernel_detection_tax(benchmark, fd_workload):
    benchmark.pedantic(
        lambda: time_kernel_detection(fd_workload, "numpy"),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="ablation-kernels-detect")
def test_python_kernel_detection_tax_baseline(benchmark, fd_workload):
    benchmark.pedantic(
        lambda: time_kernel_detection(fd_workload, "python"),
        rounds=3, iterations=1,
    )


# ---------------------------------------------------------------------------
# headline assertions (acceptance criteria)
# ---------------------------------------------------------------------------
def test_numpy_kernel_detection_at_least_5x_on_50k_tax(fd_workload):
    """The core acceptance criterion, with the measurement persisted."""
    python_seconds, python_report = time_kernel_detection(
        fd_workload, "python", repeats=3
    )
    numpy_seconds, numpy_report = time_kernel_detection(fd_workload, "numpy", repeats=3)
    assert list(python_report.violations) == list(numpy_report.violations)
    speedup = python_seconds / numpy_seconds if numpy_seconds else float("inf")
    write_json(
        os.environ.get("REPRO_BENCH_JSON_DIR", "bench-artifacts"),
        "kernels",
        [
            {
                "SZ": TAX_SZ,
                "python_detect_seconds": python_seconds,
                "numpy_detect_seconds": numpy_seconds,
                "numpy_speedup": speedup,
            }
        ],
        metadata={"workload": fd_workload.label, "source": "test_ablation_kernels"},
    )
    assert speedup >= MIN_DETECT_SPEEDUP, (
        f"numpy-kernel indexed detection ({numpy_seconds:.4f}s) should be at "
        f"least {MIN_DETECT_SPEEDUP}x faster than the python kernel "
        f"({python_seconds:.4f}s) on the 50K tax workload, got {speedup:.2f}x"
    )


def test_kernels_agree_byte_for_byte_on_50k_tax(fd_workload):
    """Full-size byte-identity: same repair, same cost, same clean relation."""
    outcomes = {}
    for kernel in ("python", "numpy"):
        outcomes[kernel] = repair(
            fd_workload.relation,
            fd_workload.cfds,
            config=RepairConfig(
                method="incremental",
                storage="columnar",
                kernel=kernel,
                check_consistency=False,
            ),
        )
    python_repair, numpy_repair = outcomes["python"], outcomes["numpy"]
    assert python_repair.clean and numpy_repair.clean
    assert python_repair.relation.rows == numpy_repair.relation.rows
    assert _changes_key(python_repair) == _changes_key(numpy_repair)
    assert python_repair.total_cost == numpy_repair.total_cost
    assert find_all_violations(numpy_repair.relation, fd_workload.cfds).is_clean()
