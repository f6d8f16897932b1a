"""Sharded parallel cleaning: the same results, fanned out over processes.

Generates a noisy tax-records workload (the paper's Section 5 generator),
shows the shard plan the parallel engine would use, then cleans the data
three ways and checks they agree: the same repaired relation, byte for
byte, and the same multiset of cell changes:

1. serial incremental repair (the default engine);
2. explicit ``method="parallel"`` with a process pool;
3. ``method="auto"`` with the escalation threshold lowered so the registry
   itself picks the parallel backends.

Run with:  python examples/parallel_clean.py
"""

from __future__ import annotations

from collections import Counter

from repro import Cleaner, DetectionConfig, RepairConfig
from repro import registry
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.generator import TaxRecordGenerator
from repro.parallel import shard_relation
from repro.repair.heuristic import repair

SIZE = 5_000


def main() -> None:
    relation = TaxRecordGenerator(size=SIZE, noise=0.05, seed=42).generate_relation()
    cfds = [zip_state_cfd()]

    # --- the shard plan: equivalence classes never split ------------------
    # The plan is spilled to disk; the context manager removes it again.
    with shard_relation(relation, cfds, shard_count=4) as plan:
        print(
            f"{SIZE} rows -> {plan.component_count} class-closed components "
            f"packed into {len(plan)} shards of sizes {plan.sizes()}"
        )

    # --- 1. serial baseline ----------------------------------------------
    serial = repair(relation, cfds, method="incremental")
    print(f"serial incremental: {len(serial.changes)} changes, "
          f"clean={serial.clean}")

    # --- 2. explicit parallel --------------------------------------------
    parallel = repair(
        relation,
        cfds,
        config=RepairConfig(method="parallel", workers=4, shard_count=4),
    )
    stats = parallel.parallel_stats
    print(f"parallel ({stats.mode}, {stats.workers} workers): "
          f"{len(parallel.changes)} changes, clean={parallel.clean}")
    assert parallel.relation == serial.relation  # byte-identical
    # The change log comes back in shard order: compare it as a multiset.
    assert Counter(parallel.changes) == Counter(serial.changes)
    print("parallel repair is byte-identical to the serial repair")

    # --- 3. auto escalation ----------------------------------------------
    # Production workloads cross the threshold naturally (150K rows); for
    # the demo we lower it so `auto` escalates on 5K rows.
    registry.PARALLEL_AUTO_ROW_THRESHOLD = 1_000
    result = Cleaner(
        detection=DetectionConfig(workers=4),
        repair=RepairConfig(workers=4),
    ).clean(relation, cfds)
    print(f"auto escalated to: detect={result.backends['detect']} "
          f"repair={result.backends['repair']}; clean={result.clean}")
    assert result.relation == serial.relation


if __name__ == "__main__":
    main()
