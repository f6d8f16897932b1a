"""Sharded parallel execution of CFD detection and repair.

``repro.parallel`` is the scaling layer the ROADMAP's "as fast as the
hardware allows" goal calls for: it splits a relation into shards closed
under LHS equivalence-class sharing and spills them to disk
(:mod:`repro.parallel.sharding`), fans per-shard detection/repair out over
a ``concurrent.futures`` process pool whose workers memory-map their shard
(:mod:`repro.parallel.executor`, with a serial in-process fallback), and
merges the shard results back into the ordinary
:class:`~repro.core.violations.ViolationReport` /
:class:`~repro.repair.heuristic.RepairResult` types
(:mod:`repro.parallel.engine`, :mod:`repro.parallel.repairer`).

Both backends are the ``"parallel"`` entries of the fixed detection and
repair tables, imported on first use.  ``method="parallel"`` is only ever
an explicit choice: ``method="auto"`` resolves to the serial engines at
every size (see :func:`repro.registry.select_detection_method`).  See
``docs/parallel.md`` for the sharding invariant and its limits.
"""

from repro.parallel.engine import (
    ParallelDetectionRun,
    ParallelStats,
    ShardTiming,
    detect_sharded,
    find_violations_parallel,
)
from repro.parallel.executor import default_workers, resolve_workers, run_tasks
from repro.parallel.repairer import ParallelRepairEngine
from repro.parallel.sharding import (
    SpilledShard,
    SpilledShardPlan,
    components,
    shard_relation,
    spill_shards,
)

__all__ = [
    "ParallelDetectionRun",
    "ParallelRepairEngine",
    "ParallelStats",
    "ShardTiming",
    "SpilledShard",
    "SpilledShardPlan",
    "components",
    "default_workers",
    "detect_sharded",
    "find_violations_parallel",
    "resolve_workers",
    "run_tasks",
    "shard_relation",
    "spill_shards",
]
