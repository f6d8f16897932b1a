"""Shared fixtures for the benchmark suite.

The ``test_fig9*`` and ``test_merged_vs_separate`` files regenerate one
series (or one representative point) of the paper's Section 5, using the
same workload builder as the CLI harness (``python -m repro.bench``); the
``test_ablation_*`` files gate the engines beyond the paper, timed with the
helpers of ``benchmarks/timing.py``.  Workload sizes are scaled down from the
paper's DB2 runs so the whole suite finishes in a few minutes on a laptop;
set ``REPRO_BENCH_SCALE`` to raise them (10 ≈ the paper's sizes for most
figures).  The Figure 9 files time their groups without asserting the
paper's shape (who wins, monotonicity); each file's docstring states the
shape the paper reports.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import build_workload

#: Baseline relation size for single-point benchmarks (paper: up to 100K).
BENCH_SZ = int(20_000 * float(os.environ.get("REPRO_BENCH_SCALE", "1") or 1))
#: Baseline tableau size (paper: 1K).
BENCH_TABSZ = 1_000
#: Noise level shared by all experiments except the NOISE sweep (paper: 5%).
BENCH_NOISE = 0.05
#: Seed shared by every workload so results are reproducible.
BENCH_SEED = 42


@pytest.fixture(scope="session")
def constants_workload():
    """SZ=BENCH_SZ, NUMATTRs=3, TABSZ=1K, NUMCONSTs=100% (Figures 9(a), 9(c))."""
    return build_workload(
        size=BENCH_SZ, noise=BENCH_NOISE, seed=BENCH_SEED,
        num_attrs=3, tabsz=BENCH_TABSZ, num_consts=1.0,
    )


@pytest.fixture(scope="session")
def mixed_workload():
    """As above but NUMCONSTs=50% (Figure 9(b))."""
    return build_workload(
        size=BENCH_SZ, noise=BENCH_NOISE, seed=BENCH_SEED,
        num_attrs=3, tabsz=BENCH_TABSZ, num_consts=0.5,
    )
