"""Sharded parallel violation detection (the ``method="parallel"`` backend).

The relation is split by :func:`repro.parallel.sharding.plan_shards` into
shards closed under equivalence-class sharing and, when there are at least
two, spilled to disk (a single shard is detected in-process and spills
nothing).  Each spilled shard is detected independently with the
partition-indexed backend over its memory-mapped code files — in a
``concurrent.futures`` process pool when one can start, serially in-process
otherwise — and the workers' reports, already translated to global tuple
indices, are merged in the scan oracle's canonical order.  By the sharding
invariant (no violation spans two shards) the merged report is
violation-for-violation identical to a serial run; the Hypothesis
properties in ``tests/parallel/test_parallel_properties.py`` pin that down
across random shard and worker counts.

It is the ``"parallel"`` entry of :data:`repro.detection.engine.DETECTORS`,
which imports this module on first use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cfd import CFD
from repro.core.violations import Violation, ViolationReport
from repro.detection.indexed import canonical_order, find_violations_indexed
from repro.parallel.executor import (
    SERIAL,
    default_workers,
    resolve_workers,
    run_tasks,
)
from repro.parallel.sharding import (  # noqa: F401 - shard_relation re-exported
    ShardLayout,
    SpilledShardPlan,
    plan_shards,
    shard_relation,
    spill_shards,
)
from repro.relation.relation import Relation
from repro.rules import compile_rules


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock seconds one shard spent inside its worker."""

    shard_id: int
    rows: int
    seconds: float


@dataclass(frozen=True)
class ParallelStats:
    """How a parallel run actually executed (for audits and benchmarks)."""

    #: ``"process-pool"`` or ``"serial"`` (requested, forced, or fallback).
    mode: str
    #: Worker processes the run was allowed to use.
    workers: int
    #: Shards the plan produced (never more than requested).
    shard_count: int
    #: Class-closed components available to the planner.
    component_count: int
    timings: Tuple[ShardTiming, ...] = ()

    def summary(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "shards": self.shard_count,
            "components": self.component_count,
            "shard_rows": [timing.rows for timing in self.timings],
            "shard_seconds": [round(timing.seconds, 6) for timing in self.timings],
        }

    @classmethod
    def of_run(
        cls,
        plan: Union[ShardLayout, SpilledShardPlan],
        mode: str,
        workers: Optional[int],
        seconds: Sequence[float],
    ) -> ParallelStats:
        """The statistics of a run over ``plan``, one timing per shard."""
        return cls(
            mode=mode,
            workers=resolve_workers(workers, len(plan)),
            shard_count=len(plan),
            component_count=plan.component_count,
            timings=tuple(
                ShardTiming(shard_id=shard_id, rows=rows, seconds=spent)
                for shard_id, (rows, spent) in enumerate(zip(plan.sizes(), seconds))
            ),
        )


@dataclass(frozen=True)
class ParallelDetectionRun:
    """A merged detection report plus the execution statistics behind it."""

    report: ViolationReport
    stats: ParallelStats


def resolve_shard_count(shard_count: Optional[int], workers: Optional[int]) -> int:
    """The shard count to plan for: explicit, else the worker count."""
    if shard_count is not None:
        return shard_count
    if workers is not None:
        return max(1, workers)
    return default_workers()


def _detect_shard(
    payload: Tuple[SpilledShardPlan, int, Sequence[CFD]],
) -> Tuple[List[Violation], float]:
    """Worker body: detect one spilled shard, report global-index violations.

    The payload carries only the plan's paths and metadata — the worker maps
    the shard's code files directly off the spill directory (no columns
    cross the process boundary) and translates shard-local tuple indices
    through ``indices.bin`` before returning.
    """
    plan, shard_id, cfds = payload
    start = time.perf_counter()
    report = find_violations_indexed(plan.open_shard(shard_id), cfds)
    indices = plan.shards[shard_id].global_indices()
    violations = [
        replace(
            violation,
            tuple_indices=tuple(
                int(indices[index]) for index in violation.tuple_indices
            ),
        )
        for violation in report.violations
    ]
    return violations, time.perf_counter() - start


def detect_sharded(
    relation: Relation,
    cfds: Union[CFD, Sequence[CFD]],
    shard_count: Optional[int] = None,
    workers: Optional[int] = None,
    spill_dir: Optional[str] = None,
) -> ParallelDetectionRun:
    """Sharded detection with full execution statistics.

    ``shard_count`` defaults to the worker count (one shard per worker keeps
    every process busy without over-splitting); ``workers`` defaults to the
    CPU count.  With at least two shards the plan is spilled under the base
    resolved from ``spill_dir`` and removed when the run ends; only a failed
    run under an explicit base keeps it, for post-mortem inspection.  A
    single shard is detected in-process and spills nothing.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> run = detect_sharded(cust_relation(), cust_cfds(), shard_count=3, workers=1)
    >>> sorted(run.report.violating_indices())
    [0, 1, 2, 3]
    """
    cfds = compile_rules(cfds)
    layout = plan_shards(relation, cfds, resolve_shard_count(shard_count, workers))
    if len(layout) < 2:
        start = time.perf_counter()
        merged = list(find_violations_indexed(layout.store, cfds))
        seconds = [time.perf_counter() - start] if len(layout) else []
        stats = ParallelStats.of_run(layout, SERIAL, workers, seconds)
    else:
        with layout.spill(spill_dir) as plan:
            del layout  # the member arrays are on disk now; free them
            payloads = [(plan, shard.shard_id, cfds) for shard in plan.shards]
            outcomes, mode = run_tasks(_detect_shard, payloads, workers=workers)
        merged = [
            violation for violations, _seconds in outcomes for violation in violations
        ]
        stats = ParallelStats.of_run(
            plan, mode, workers, [spent for _violations, spent in outcomes]
        )
    return ParallelDetectionRun(
        report=ViolationReport(canonical_order(merged, cfds)), stats=stats
    )


def find_violations_parallel(
    relation: Relation,
    cfds: Union[CFD, Sequence[CFD]],
    shard_count: Optional[int] = None,
    workers: Optional[int] = None,
    spill_dir: Optional[str] = None,
) -> ViolationReport:
    """All violations of ``cfds`` in ``relation``, via sharded detection.

    Semantically identical to
    :func:`repro.core.satisfaction.find_all_violations` — shards only ever
    split tuples that cannot co-violate.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> report = find_violations_parallel(cust_relation(), cust_cfds(), workers=1)
    >>> sorted(report.violating_indices())
    [0, 1, 2, 3]
    """
    return detect_sharded(
        relation, cfds, shard_count=shard_count, workers=workers, spill_dir=spill_dir
    ).report

