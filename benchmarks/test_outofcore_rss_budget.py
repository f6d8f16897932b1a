"""Bounded-memory gate: 1M streamed tax rows cleaned out of core.

The claim of the spill-to-disk mode (``docs/out_of_core.md``), asserted
outright: rows are streamed from the tax generator through an
:class:`~repro.io.sources.IterableSource` straight into memory-mapped code
columns (no materialised Python rows), detection and repair run sharded over
spilled shards, and the run must end verified clean with the process's peak
RSS inside ``REPRO_OUTOFCORE_RSS_BUDGET_MB``.

The workload is the pure-wildcard exemption FD
``[ZIP, MR, CH] → [STX, MTX, CTX]`` at 1% noise.  Verification uses the
indexed detector over the codes: the in-memory oracle reads the store
without a row copy, but holds the rule columns of every row as Python
tuples (on a 2-CPU VM, 518-520 MiB peak RSS against 380-382 MiB).

The test is skipped unless the budget variable is set, so the tier-1 suite
never cleans a million rows.  Peak RSS is process-lifetime-monotone, so run
this file alone, in a fresh process::

    REPRO_OUTOFCORE_RSS_BUDGET_MB=1024 python -m pytest -q benchmarks/test_outofcore_rss_budget.py
"""

import os

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.bench.harness import peak_rss_mb
from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.datagen.generator import TaxRecordGenerator, tax_schema
from repro.io.sources import IterableSource
from repro.pipeline import Cleaner

#: Rows streamed through the out-of-core pipeline.
ROWS = 1_000_000
#: Low noise: the mostly-clean regime where storage, not repair, is the cost.
NOISE = 0.01

BUDGET_MB = os.environ.get("REPRO_OUTOFCORE_RSS_BUDGET_MB")

pytestmark = pytest.mark.skipif(
    not BUDGET_MB, reason="set REPRO_OUTOFCORE_RSS_BUDGET_MB to run the 1M-row gate"
)


def test_streamed_mmap_clean_stays_within_the_rss_budget():
    cfd = CFD.build(
        ["ZIP", "MR", "CH"], ["STX", "MTX", "CTX"], [["_"] * 6], name="exemption_fd"
    )
    rows = TaxRecordGenerator(size=ROWS, noise=NOISE, seed=BENCH_SEED).iter_rows()
    cleaner = Cleaner(
        detection=DetectionConfig(method="parallel", storage="mmap"),
        repair=RepairConfig(method="parallel", storage="mmap", check_consistency=False),
        verify_method="indexed",
    )
    result = cleaner.clean(IterableSource(tax_schema(), rows), [cfd])
    try:
        assert result.clean, result.summary()
        assert len(result.relation) == ROWS
        assert result.backends["storage"] == "mmap"
    finally:
        result.relation.release()
    peak = peak_rss_mb()
    budget = float(BUDGET_MB)
    assert peak <= budget, (
        f"out-of-core peak RSS {peak:.1f} MiB exceeded the "
        f"REPRO_OUTOFCORE_RSS_BUDGET_MB budget of {budget:.1f} MiB"
    )
