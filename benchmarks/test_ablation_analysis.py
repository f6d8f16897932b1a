"""Ablation: redundant rules vs their minimal cover (50K tax, indexed detection).

The acceptance criterion of the ``optimize`` mode of :mod:`repro.analysis`
(``analyze(optimize=True)`` / ``repro lint --optimize``), asserted outright
on a 50K-tuple tax workload:

* the rule set is the TABSZ constants tableau plus the wildcard FD behind
  it duplicated under twin names — redundancy the linter's deep pass flags
  as CFD002, and the shape that hurts the indexed detector most (each twin
  re-scans every LHS partition);
* rewriting it to the minimal cover (Figure 4 of the paper) makes indexed
  detection at least **1.2x faster** — measured at 1.8-2.2x on a 2-CPU VM,
  the floor leaves room for a loaded CI runner.  Both sides run on a
  column store encoded before the timer starts, so the ratio compares
  detection work only: on a row relation each side first encodes the rule
  columns, a cost the cover does not shrink, which held the ratio at
  1.07-1.45x and failed the floor on a loaded host;
* the optimized rules find exactly the same violating tuples.

The measured point is written to ``BENCH_analysis.json`` (into
``REPRO_BENCH_JSON_DIR``, default ``bench-artifacts/``) for comparison
between local runs; the file is not committed.
"""

import os

import pytest

from benchmarks.conftest import BENCH_NOISE, BENCH_SEED
from repro.analysis import analyze
from repro.bench.harness import _median_timed, build_workload
from repro.bench.reporting import write_json
from repro.core.cfd import CFD
from repro.detection.indexed import IndexedDetector
from repro.reasoning.implication import equivalent
from repro.reasoning.mincover import minimal_cover
from repro.relation.columnar import ColumnStore

#: The acceptance workload: 50K tax tuples, the bench's TABSZ relation size.
TAX_SZ = 50_000
#: Constants-tableau size; kept at 100 so the cover computation (quadratic
#: chase) stays sub-second — this file measures the *detection* payoff.
TABSZ = 100
#: How many times the wildcard FD is duplicated in the redundant set.
TWINS = 4
#: The headline bar for the minimal-cover detection speedup.
MIN_OPTIMIZE_SPEEDUP = 1.2
#: Timed runs per side; the gate compares their medians.
REPEATS = 5


@pytest.fixture(scope="module")
def redundant_workload():
    workload = build_workload(
        size=TAX_SZ, noise=BENCH_NOISE, seed=BENCH_SEED, num_attrs=3, tabsz=TABSZ
    )
    redundant = list(workload.cfds) + [
        CFD.build(["ZIP", "CT"], ["ST"], [["_", "_", "_"]], name=f"zip_city_fd_{i}")
        for i in range(TWINS)
    ]
    return workload.relation, redundant


def test_linter_flags_the_planted_redundancy(redundant_workload):
    """The deep pass sees what the bench exploits: the twins are CFD002s."""
    _, redundant = redundant_workload
    report = analyze(redundant)
    flagged = {diag.cfd for diag in report.by_code("CFD002")}
    assert any(name.startswith("zip_city_fd_") for name in flagged)


def test_minimal_cover_detection_at_least_1_2x_on_50k_tax(redundant_workload):
    """The core acceptance criterion, with the measurement persisted."""
    relation, redundant = redundant_workload
    cover = minimal_cover(redundant)
    assert equivalent(cover, redundant)
    assert sum(len(cfd.tableau) for cfd in cover) < sum(
        len(cfd.tableau) for cfd in redundant
    )

    store = ColumnStore.from_relation(relation)
    for attribute in store.schema.names:
        store.codes(attribute)
    redundant_seconds, redundant_report = _median_timed(
        lambda: IndexedDetector(store).detect(redundant), repeats=REPEATS
    )
    optimized_seconds, optimized_report = _median_timed(
        lambda: IndexedDetector(store).detect(cover), repeats=REPEATS
    )
    assert sorted(redundant_report.violating_indices()) == sorted(
        optimized_report.violating_indices()
    )

    speedup = (
        redundant_seconds / optimized_seconds if optimized_seconds else float("inf")
    )
    write_json(
        os.environ.get("REPRO_BENCH_JSON_DIR", "bench-artifacts"),
        "analysis",
        [
            {
                "series": "optimize",
                "SZ": TAX_SZ,
                "patterns_before": sum(len(cfd.tableau) for cfd in redundant),
                "patterns_after": sum(len(cfd.tableau) for cfd in cover),
                "redundant_detect_seconds": redundant_seconds,
                "optimized_detect_seconds": optimized_seconds,
                "optimize_speedup": speedup,
            }
        ],
        metadata={"source": "test_ablation_analysis", "twins": TWINS},
    )
    assert speedup >= MIN_OPTIMIZE_SPEEDUP, (
        f"indexed detection under the minimal cover ({optimized_seconds:.4f}s) "
        f"should be at least {MIN_OPTIMIZE_SPEEDUP}x faster than under the "
        f"redundant rule set ({redundant_seconds:.4f}s), got {speedup:.2f}x"
    )


def test_shallow_lint_is_cheap_enough_for_the_gate(redundant_workload):
    """The pipeline gate's pass (deep=False) must stay far below detection cost."""
    relation, redundant = redundant_workload
    shallow_seconds, _ = _median_timed(
        lambda: analyze(redundant, relation.schema, deep=False), repeats=3
    )
    assert shallow_seconds < 0.5
