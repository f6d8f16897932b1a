"""Sharded parallel repair (the ``method="parallel"`` repair backend).

Unlike the other repair backends — which are *detection engines* driven one
cell change at a time by the greedy loop in
:mod:`repro.repair.heuristic` — the parallel backend is **self-driving**: it
implements the optional ``run(cost_model)`` protocol hook, splitting the
relation into class-closed shards with
:func:`repro.parallel.sharding.plan_shards`, spilling them, and running the
*entire* incremental repair fixpoint per shard in a process pool (a single
shard is repaired in-process by the serial engine and spills nothing).
Each worker maps its shard's code files, repairs them, and writes the
resulting cell changes — already translated to global tuple indices — to a
delta log in the shard directory; the parent replays the logs onto the
working relation and re-verifies the merged result.

Because per-shard repair decisions (pattern constants, plurality targets,
deterministic fresh values) are pure functions of the shard's data, and the
sharding invariant keeps every violation inside one shard, the merged
relation is byte-identical to what the serial incremental engine produces
and the change log holds the same changes, in shard order rather than
global scan order — ``benchmarks/test_ablation_parallel.py`` asserts this
on the 10K tax workload.  The one caveat: a repair can *move* a tuple into
an equivalence class that lives in another shard (only possible when one
CFD's RHS overlaps another's LHS).  The merge therefore re-verifies, and
when cross-shard residue exists it finishes the job with a serial
incremental pass (``docs/parallel.md`` discusses when that triggers).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.config import RepairConfig
from repro.core.cfd import CFD
from repro.detection.indexed import find_violations_indexed, lhs_free_attributes
from repro.parallel.engine import ParallelStats, resolve_shard_count
from repro.parallel.executor import SERIAL, run_tasks
from repro.parallel.sharding import (  # noqa: F401 - shard_relation re-exported
    SpilledShard,
    SpilledShardPlan,
    plan_shards,
    shard_relation,
    spill_shards,
)
from repro.registry import register_repairer
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation
from repro.repair.cost import CostModel
from repro.repair.heuristic import CellChange, RepairResult, repair


def _repairs_may_cross_shards(cfds: Sequence[CFD]) -> bool:
    """Whether a repair could move a tuple into another shard's class.

    Constant and variable fixes write a pattern's non-``@`` RHS cells; only
    when such a written attribute is also some pattern's grouping attribute
    can a fix change a tuple's equivalence class and create an agreement the
    shard planner never saw.  (The last-resort LHS modification writes
    grouping attributes too, but its deterministic fresh values cannot
    produce a *new* cross-shard agreement — see ``docs/parallel.md``.)
    When this returns ``False`` the merged relation needs no re-verification:
    per-shard cleanliness is global cleanliness.
    """
    grouping = set()
    written = set()
    for cfd in cfds:
        for pattern in cfd.tableau:
            grouping.update(lhs_free_attributes(cfd, pattern))
            written.update(
                attr for attr in cfd.rhs if not pattern.rhs_cell(attr).is_dontcare
            )
    return bool(grouping & written)


def _localize_cost_model(model: CostModel, shard: SpilledShard) -> CostModel:
    """Rekey per-tuple weights onto a shard's local indices."""
    if not model.tuple_weights:
        return model
    weights = {
        local: model.tuple_weights[int(global_index)]
        for local, global_index in enumerate(shard.global_indices())
        if int(global_index) in model.tuple_weights
    }
    return replace(model, tuple_weights=weights)


def _repair_shard(
    payload: Tuple[SpilledShardPlan, int, List[CFD], RepairConfig],
) -> Tuple[int, bool, int, List[int], float]:
    """Worker body: map one spilled shard, repair it, log the deltas.

    The shard arrives as the plan's paths (see the detection counterpart in
    :mod:`repro.parallel.engine`); the worker maps the code files, runs the
    incremental fixpoint on a scratch copy spilled next to the shard, writes
    the resulting cell changes with global tuple indices to ``changes.pkl``
    inside the shard directory — the compact delta log the parent replays —
    and sends back only summary counters, never columns or rows.
    """
    plan, shard_id, cfds, config = payload
    start = time.perf_counter()
    relation = plan.open_shard(shard_id)
    result = repair(relation, cfds, config=config)
    shard = plan.shards[shard_id]
    indices = shard.global_indices()
    changes = [
        replace(change, tuple_index=int(indices[change.tuple_index]))
        for change in result.changes
    ]
    with open(Path(shard.directory) / "changes.pkl", "wb") as handle:
        pickle.dump(changes, handle, protocol=pickle.HIGHEST_PROTOCOL)
    if result.relation is not relation and isinstance(
        result.relation, MmapColumnStore
    ):
        # repair() worked on a scratch copy spilled under the plan directory;
        # drop it now that the delta log is on disk, so peak spill usage
        # stays bounded by the plan plus one in-flight copy per worker.
        result.relation.release()
    return (
        len(changes),
        result.clean,
        result.passes,
        list(result.pass_violation_counts),
        time.perf_counter() - start,
    )


class ParallelRepairEngine:
    """Self-driving repair engine: shard, repair per shard, merge, verify."""

    def __init__(
        self, relation: Relation, cfds: Sequence[CFD], config: RepairConfig
    ) -> None:
        self.relation = relation
        self._cfds = list(cfds)
        self._config = config
        #: Execution statistics of the last :meth:`run` (None before it).
        self.stats: Optional[ParallelStats] = None

    def _inner_config(self, cost_model: CostModel) -> RepairConfig:
        """The per-shard configuration: serial incremental, no re-checks.

        The storage and kernel choices ride along, so a pinned kernel is
        honoured inside each worker process.

        Because each worker runs the stock incremental engine on a columnar
        shard, it adopts the *batched* fixpoint automatically whenever the
        active kernel advertises ``fused_repair_scan`` — the per-shard
        re-evaluation, partition-delta and candidate-pricing hot loops all go
        through the fused kernels with no parallel-specific wiring here.
        """
        return RepairConfig(
            method="incremental",
            max_passes=self._config.max_passes,
            check_consistency=False,  # repair() already checked, once
            cost_model=cost_model,
            cache_size=self._config.cache_size,
            storage=self._config.storage,
            kernel=self._config.kernel,
        )

    def run(self, cost_model: CostModel) -> RepairResult:
        cfds = self._cfds
        work = self.relation
        layout = plan_shards(
            work,
            cfds,
            resolve_shard_count(self._config.shard_count, self._config.workers),
        )
        if len(layout) < 2:
            # A single component (or a single-shard request): the pool would
            # only add overhead, so run the serial incremental engine as-is,
            # without spilling anything.
            result = repair(work, cfds, config=self._inner_config(cost_model))
            self.stats = ParallelStats.of_run(layout, SERIAL, self._config.workers, [])
            result.parallel_stats = self.stats
            return result
        changes: List[CellChange] = []
        pass_counts: List[int] = []
        seconds: List[float] = []
        passes = 0
        all_clean = True
        with layout.spill(self._config.spill_dir) as plan:
            del layout  # the member arrays are on disk now; free them
            payloads = [
                (
                    plan,
                    shard.shard_id,
                    cfds,
                    self._inner_config(_localize_cost_model(cost_model, shard)),
                )
                for shard in plan.shards
            ]
            outcomes, mode = run_tasks(
                _repair_shard, payloads, workers=self._config.workers
            )
            for shard, outcome in zip(plan.shards, outcomes):
                change_count, clean, shard_passes, shard_counts, spent = outcome
                if change_count:
                    path = Path(shard.directory) / "changes.pkl"
                    with open(path, "rb") as handle:
                        logged: List[CellChange] = pickle.load(handle)
                    for change in logged:
                        work.update(
                            change.tuple_index, change.attribute, change.new_value
                        )
                    changes.extend(logged)
                for position, count in enumerate(shard_counts):
                    if position < len(pass_counts):
                        pass_counts[position] += count
                    else:
                        pass_counts.append(count)
                passes = max(passes, shard_passes)
                all_clean = all_clean and clean
                seconds.append(spent)

        result = RepairResult(
            relation=work,
            changes=changes,
            clean=all_clean,
            passes=passes,
            pass_violation_counts=pass_counts,
        )
        if (
            all_clean
            and _repairs_may_cross_shards(cfds)
            and not find_violations_indexed(work, cfds).is_clean()
        ):
            # Cross-shard residue: repairs moved tuples into equivalence
            # classes owned by other shards (RHS/LHS attribute overlap).
            # Finish serially from the merged state; changes stay global.
            reconcile = repair(work, cfds, config=self._inner_config(cost_model))
            result = RepairResult(
                relation=reconcile.relation,
                changes=changes + list(reconcile.changes),
                clean=reconcile.clean,
                passes=passes + reconcile.passes,
                pass_violation_counts=pass_counts
                + list(reconcile.pass_violation_counts),
            )
        self.stats = ParallelStats.of_run(plan, mode, self._config.workers, seconds)
        result.parallel_stats = self.stats
        return result

    def plan(self) -> SpilledShardPlan:
        """The shard plan the next :meth:`run` uses (the caller releases it)."""
        return spill_shards(
            self.relation,
            self._cfds,
            resolve_shard_count(self._config.shard_count, self._config.workers),
            self._config.spill_dir,
        )


register_repairer("parallel")(ParallelRepairEngine)
