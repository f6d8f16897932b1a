"""The unified cleaning pipeline: one call from dirty source to clean relation.

Generates a noisy tax-records workload (the paper's Section 5 generator),
then runs ``Cleaner.clean`` — detect, repair, verify — three ways:

1. from the in-memory relation with every backend on ``auto``;
2. from a CSV file on disk (any ``RowSource`` works the same);
3. with two other named built-ins — the paper's SQL detection queries and
   the full-rescan repair engine — which must reach the same repair.

Run with:  python examples/pipeline_clean.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    CSVSource,
    Cleaner,
    DetectionConfig,
    RepairConfig,
    detect_violations,
)
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.generator import TaxRecordGenerator


def main() -> None:
    relation = TaxRecordGenerator(size=2_000, noise=0.05, seed=7).generate_relation()
    cfds = [zip_state_cfd()]
    print(f"Workload: {len(relation)} tax tuples, "
          f"{sum(len(cfd.tableau) for cfd in cfds)} patterns of [ZIP] -> [ST].")

    # ------------------------------------------------------------ 1. one call
    result = Cleaner().clean(relation, cfds)
    print(f"\nCleaner().clean(...): clean = {result.clean}")
    print(f"  backends picked by 'auto': {result.backends}")
    print(f"  violations per pass:       {result.pass_violation_counts}")
    print(f"  cell changes / cost:       {len(result.changes)} / {result.total_cost:.2f}")
    print("  stage timings:             "
          + ", ".join(f"{stage} {seconds * 1000:.1f}ms"
                      for stage, seconds in result.stage_seconds.items()))
    assert detect_violations(result.relation, cfds).is_clean()

    # ------------------------------------------------------ 2. from a CSV file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tax.csv"
        relation.to_csv(path)
        cleaner = Cleaner(
            detection=DetectionConfig(method="indexed"),
            repair=RepairConfig(method="incremental"),
        )
        csv_result = cleaner.clean(CSVSource(path), cfds)
    print(f"\nSame pipeline over {csv_result.source}: clean = {csv_result.clean}")
    # CSV ingestion is string-typed, so compare the repair trail, not raw rows.
    assert csv_result.clean
    assert len(csv_result.changes) == len(result.changes)

    # ------------------------------------------- 3. other built-ins by name
    named = Cleaner(
        detection=DetectionConfig(method="sql"),
        repair=RepairConfig(method="scan"),
    ).clean(relation, cfds)
    print(f"\nSQL detection + scan repair: clean = {named.clean}, "
          f"backends {named.backends['detect']}/{named.backends['repair']}")
    assert named.clean
    assert named.relation.rows == result.relation.rows
    assert len(named.changes) == len(result.changes)
    print("Same repair - every backend computes the same CFD semantics.")

if __name__ == "__main__":
    main()
