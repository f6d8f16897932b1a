"""Ablation: delta-maintained incremental repair vs full re-detection per pass.

The repair loop is a fixpoint that re-checks satisfaction after every pass.
The seed implementation re-ran the per-pattern scan oracle from scratch each
time — ``O(passes x |Σ| x |I| x TABSZ)`` — while a repair pass only changes a
handful of cells.  That loop is the ``"seed-scan"`` baseline of
``benchmarks/timing.py``: ``method="scan"`` re-checking with the oracle's
specification (``tests/oracle_spec.py``); the oracle itself now scans once
per constant-LHS mask.  The incremental engine (``repro.repair.incremental``)
ingests the relation once into partition indexes and maintains the
violation state under each cell change, touching only the changed tuple's old
and new equivalence classes of the patterns that mention the changed
attribute.  See ``docs/repair.md``.

This ablation times both engines on the paper's tax-records workload
(Section 5 knobs: 10K tuples, 5% noise, the ``[ZIP] → [ST]`` constraint) and
asserts the headline claims outright: the incremental engine beats the
scan-driven loop, and every engine reaches the *identical* repaired relation
through the identical change sequence — the canonical violation order makes
the greedy policy engine-independent.
"""

import pytest

from benchmarks.conftest import BENCH_NOISE, BENCH_SEED
from benchmarks.timing import SEED_SCAN, time_repair
from repro.bench.harness import build_workload
from repro.datagen.cust import cust_cfds, cust_relation
from repro.repair.heuristic import REPAIR_METHODS, repair

#: The acceptance workload: 10K tax tuples at >= 5% noise (the paper's
#: smallest SZ point, its default NOISE).
TAX_SZ = 10_000
#: Pattern sample of the [ZIP] -> [ST] tableau; keeps the seed-scan gate
#: tolerable (its per-pass cost is linear in TABSZ) without changing who wins.
TAX_TABSZ = 300


@pytest.fixture(scope="module")
def tax_workload():
    assert BENCH_NOISE >= 0.05
    return build_workload(
        size=TAX_SZ, noise=BENCH_NOISE, seed=BENCH_SEED,
        num_attrs=2, tabsz=TAX_TABSZ, num_consts=1.0,
    )


def _changes_key(result):
    return [
        (change.tuple_index, change.attribute, change.old_value, change.new_value)
        for change in result.changes
    ]


# ---------------------------------------------------------------------------
# timed series (tax-records generator, Section 5 workload)
# ---------------------------------------------------------------------------
@pytest.mark.benchmark(group="ablation-repair-tax")
def test_incremental_repair_tax(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: repair(
            tax_workload.relation, tax_workload.cfds,
            check_consistency=False, method="incremental",
        ),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="ablation-repair-tax")
def test_scan_repair_tax(benchmark, tax_workload):
    benchmark.pedantic(
        lambda: repair(
            tax_workload.relation, tax_workload.cfds,
            check_consistency=False, method="scan",
        ),
        rounds=1, iterations=1,
    )


# ---------------------------------------------------------------------------
# headline assertions (acceptance criteria, not timings-for-the-report)
# ---------------------------------------------------------------------------
def test_incremental_beats_scan_on_10k_tax(tax_workload):
    """The repair-side speedup claim, asserted directly with identical outcomes."""
    incremental_seconds, incremental = time_repair(tax_workload, "incremental")
    scan_seconds, scan = time_repair(tax_workload, SEED_SCAN)
    _, oracle_scan = time_repair(tax_workload, "scan")
    assert incremental.clean and scan.clean and oracle_scan.clean
    assert incremental.relation == scan.relation == oracle_scan.relation
    assert _changes_key(incremental) == _changes_key(scan) == _changes_key(oracle_scan)
    assert incremental_seconds < scan_seconds, (
        f"incremental repair ({incremental_seconds:.3f}s) should beat the "
        f"scan-driven loop ({scan_seconds:.3f}s) on the 10K tax workload"
    )


def test_all_repair_methods_agree_on_corpus(tax_workload):
    """Every engine reaches the same repair on the repair test corpus."""
    corpus = [
        ("cust", cust_relation(), cust_cfds()),
        ("tax", tax_workload.relation, tax_workload.cfds),
    ]
    for label, relation, cfds in corpus:
        results = {
            method: repair(relation, cfds, check_consistency=False, method=method)
            for method in REPAIR_METHODS
        }
        baseline = results["scan"]
        for method, result in results.items():
            assert result.clean == baseline.clean, (label, method)
            assert result.relation == baseline.relation, (label, method)
            assert _changes_key(result) == _changes_key(baseline), (label, method)
            assert result.passes == baseline.passes, (label, method)
