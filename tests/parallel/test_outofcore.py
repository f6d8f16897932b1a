"""Sharding, detection and repair over spilled code columns.

Every parallel run plans into a spill directory, whatever the input
storage: a row relation plans exactly like its column store, the numpy
planner and the pure-Python fallback agree shard for shard, detection over
a memory-mapped store reports what detection over rows reports, and spilled
repair lands the same changes as the serial engines.  On top of that, the
spill lifecycle matters: the run directory disappears after a successful
merge, an anonymous one disappears after a crash too, a plan under an
explicit base survives a crash for post-mortem, and concurrent runs never
share files.
"""

from __future__ import annotations

import gc
import pickle
import tempfile
from pathlib import Path

import pytest

from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.detection.engine import detect_violations
from repro.errors import ParallelExecutionError
from repro.parallel.engine import detect_sharded
from repro.parallel.repairer import ParallelRepairEngine
from repro.parallel.sharding import (
    SpilledShardPlan,
    components,
    shard_relation,
    spill_shards,
)
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.cost import CostModel
from repro.repair.heuristic import repair

SCHEMA = Schema("t", ["A", "B", "C", "D"])

#: fd1 groups by A; fd2 adds a mixed constant/wildcard pattern on (A, B) so
#: the masked fused scan runs inside workers too.
CFDS = [
    CFD.build(["A"], ["C"], [["_", "_"]], name="fd1"),
    CFD.build(["A", "B"], ["D"], [["_", "b1", "_"]], name="fd2"),
]


def _workload(rows=120, seed=7):
    import random

    rng = random.Random(seed)
    data = [
        (
            f"a{rng.randrange(9)}",
            f"b{rng.randrange(3)}",
            f"c{rng.randrange(4)}",
            f"d{rng.randrange(3)}",
        )
        for _ in range(rows)
    ]
    return ColumnStore(SCHEMA, data)


def _membership(plan):
    """shard_id -> sorted global indices."""
    return {
        shard.shard_id: sorted(int(index) for index in shard.global_indices())
        for shard in plan.shards
    }


class TestSpillShards:
    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 7])
    def test_membership_matches_shard_relation(self, tmp_path, shard_count):
        # A row relation is encoded once, then planned like its column store.
        store = _workload()
        rows = Relation(SCHEMA, list(store))
        with shard_relation(rows, CFDS, shard_count, spill_dir=tmp_path) as from_rows:
            with spill_shards(store, CFDS, shard_count, spill_dir=tmp_path) as spilled:
                assert _membership(from_rows) == _membership(spilled)
                assert from_rows.component_count == spilled.component_count
                assert from_rows.sizes() == spilled.sizes()
        assert list(tmp_path.iterdir()) == []

    def test_python_fallback_membership(self, tmp_path, monkeypatch):
        import repro.parallel.sharding as sharding

        relation = _workload()
        vectorised = {}
        for shard_count in (1, 2, 3, 4, 7):
            with spill_shards(relation, CFDS, shard_count, spill_dir=tmp_path) as plan:
                vectorised[shard_count] = (_membership(plan), plan.component_count)
        monkeypatch.setattr(sharding, "_numpy", lambda: None)
        union_find = components(relation, CFDS)
        for shard_count, (membership, component_count) in vectorised.items():
            with spill_shards(relation, CFDS, shard_count, spill_dir=tmp_path) as plan:
                assert _membership(plan) == membership
                assert plan.component_count == component_count == len(union_find)
            # Each component lands whole in one shard.
            owner = {
                index: shard_id
                for shard_id, members in membership.items()
                for index in members
            }
            for members in union_find:
                assert len({owner[index] for index in members}) == 1

    def test_shards_reopen_as_equal_relations(self, tmp_path):
        relation = _workload()
        plan = spill_shards(relation, CFDS, 3, spill_dir=tmp_path)
        dictionaries = plan.load_dictionaries()
        rebuilt = {}
        for shard in plan.shards:
            local = shard.open_relation(plan.schema, dictionaries)
            for position, global_index in enumerate(shard.global_indices()):
                rebuilt[int(global_index)] = local[position]
        assert [rebuilt[index] for index in range(len(relation))] == list(relation)
        plan.release()

    def test_invalid_shard_count_rejected(self, tmp_path):
        with pytest.raises(ParallelExecutionError):
            spill_shards(_workload(), CFDS, 0, spill_dir=tmp_path)

    def test_empty_relation_spills_no_shards(self, tmp_path):
        plan = spill_shards(ColumnStore(SCHEMA, []), CFDS, 4, spill_dir=tmp_path)
        assert plan.shards == ()
        plan.release()

    def test_concurrent_plans_are_isolated(self, tmp_path):
        relation = _workload()
        first = spill_shards(relation, CFDS, 2, spill_dir=tmp_path)
        second = spill_shards(relation, CFDS, 2, spill_dir=tmp_path)
        assert first.plan_dir != second.plan_dir
        second.release()
        assert Path(first.plan_dir).is_dir()
        assert _membership(first)  # still readable after the sibling is gone
        first.release()

    def test_release_removes_plan_dir(self, tmp_path):
        plan = spill_shards(_workload(), CFDS, 2, spill_dir=tmp_path)
        plan_dir = Path(plan.plan_dir)
        assert plan_dir.is_dir()
        assert (plan_dir / "dictionaries.pkl").is_file()
        plan.release()
        assert not plan_dir.exists()
        assert tmp_path.is_dir()  # the user base survives


class TestSpilledDetection:
    def test_matches_inmemory_sharded_detection(self, tmp_path):
        relation = _workload()
        store = MmapColumnStore.from_relation(relation, spill_dir=tmp_path)
        spilled = detect_sharded(
            store, CFDS, shard_count=3, workers=2, spill_dir=str(tmp_path)
        )
        rows = detect_sharded(
            Relation(SCHEMA, list(relation)), CFDS, shard_count=3, workers=2
        )
        serial = detect_violations(relation, CFDS, method="indexed")
        assert list(spilled.report.violations) == list(rows.report.violations)
        assert list(spilled.report.violations) == list(serial.violations)
        assert len(spilled.report) > 0, "the workload must produce violations"
        store.release()

    def test_plan_dir_removed_after_successful_merge(self, tmp_path):
        store = MmapColumnStore.from_relation(_workload(), spill_dir=tmp_path)
        run_dir = store.spill_directory
        detect_sharded(store, CFDS, shard_count=2, workers=1, spill_dir=str(tmp_path))
        leftovers = [path for path in tmp_path.iterdir() if path != run_dir]
        assert leftovers == [], "detection must clean up its spill plan"
        store.release()


class TestAnonymousSpillBase:
    """Runs without an explicit spill base plan under the system temp dir."""

    @pytest.fixture
    def temp_base(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path / "repro-spill"

    @pytest.mark.parametrize("storage", ["rows", "columnar", "mmap"])
    def test_successful_runs_leave_nothing_behind(self, temp_base, storage):
        relation = Relation(SCHEMA, list(_workload()))
        detect_violations(
            relation,
            CFDS,
            config=DetectionConfig(
                method="parallel", storage=storage, shard_count=3, workers=1
            ),
        )
        result = repair(
            relation,
            CFDS,
            config=RepairConfig(
                method="parallel",
                storage=storage,
                shard_count=3,
                workers=1,
                check_consistency=False,
            ),
        )
        assert result.parallel_stats.shard_count == 3
        del result
        gc.collect()
        assert list(temp_base.glob("run-*")) == []

    @pytest.mark.parametrize("storage", ["columnar", "mmap"])
    def test_worker_crash_leaves_no_plan_behind(self, temp_base, monkeypatch, storage):
        import repro.parallel.repairer as repairer_module

        def explode(payload):
            raise RuntimeError("simulated worker crash")

        monkeypatch.setattr(repairer_module, "_repair_shard", explode)
        with pytest.raises(ParallelExecutionError, match="simulated worker crash"):
            repair(
                Relation(SCHEMA, list(_workload())),
                CFDS,
                config=RepairConfig(
                    method="parallel",
                    storage=storage,
                    shard_count=3,
                    workers=1,
                    check_consistency=False,
                ),
            )
        gc.collect()  # an anonymous mmap store is finalized with its last reference
        assert list(temp_base.glob("run-*")) == []


class TestSpilledRepair:
    def test_matches_serial_incremental(self, tmp_path):
        rows = list(_workload(rows=200, seed=3))
        baseline = repair(
            Relation(SCHEMA, rows),
            CFDS,
            config=RepairConfig(method="incremental", check_consistency=False),
        )
        store = MmapColumnStore(SCHEMA, rows, spill_dir=tmp_path)
        engine = ParallelRepairEngine(
            store,
            CFDS,
            RepairConfig(
                method="parallel",
                storage="mmap",
                workers=2,
                shard_count=3,
                check_consistency=False,
                spill_dir=str(tmp_path),
            ),
        )
        result = engine.run(CostModel())
        assert result.relation.rows == baseline.relation.rows
        # Same set of cell changes, discovered in shard order rather than
        # global scan order (matches the in-memory parallel contract).
        assert sorted(
            (c.tuple_index, c.attribute, c.old_value, c.new_value)
            for c in result.changes
        ) == sorted(
            (c.tuple_index, c.attribute, c.old_value, c.new_value)
            for c in baseline.changes
        )
        assert result.clean and baseline.clean
        assert baseline.changes, "the workload must actually need repairs"
        assert detect_violations(result.relation, CFDS).is_clean()
        store.release()

    def test_single_shard_falls_back_to_serial(self, tmp_path):
        # One giant component -> one shard -> the engine repairs in process.
        rows = [("a0", f"b{i % 3}", f"c{i % 2}", "d0") for i in range(40)]
        baseline = repair(
            Relation(SCHEMA, rows),
            CFDS,
            config=RepairConfig(method="incremental", check_consistency=False),
        )
        store = MmapColumnStore(SCHEMA, rows, spill_dir=tmp_path)
        engine = ParallelRepairEngine(
            store,
            CFDS,
            RepairConfig(
                method="parallel",
                storage="mmap",
                workers=2,
                check_consistency=False,
                spill_dir=str(tmp_path),
            ),
        )
        result = engine.run(CostModel())
        assert result.relation.rows == baseline.relation.rows
        assert result.changes == baseline.changes
        store.release()

    def test_plan_method_returns_spilled_plan(self, tmp_path):
        store = MmapColumnStore.from_relation(_workload(), spill_dir=tmp_path)
        engine = ParallelRepairEngine(
            store,
            CFDS,
            RepairConfig(
                method="parallel",
                storage="mmap",
                shard_count=3,
                check_consistency=False,
                spill_dir=str(tmp_path),
            ),
        )
        plan = engine.plan()
        assert isinstance(plan, SpilledShardPlan)
        assert sum(plan.sizes()) == len(store)
        plan.release()
        store.release()

    def test_plan_preserved_when_merge_crashes(self, tmp_path, monkeypatch):
        """A crash mid-merge must leave the spill plan for post-mortem."""
        import repro.parallel.repairer as repairer_module

        def explode(*args, **kwargs):
            raise RuntimeError("simulated worker crash")

        monkeypatch.setattr(repairer_module, "run_tasks", explode)
        store = MmapColumnStore.from_relation(
            _workload(), spill_dir=tmp_path / "spill"
        )
        engine = ParallelRepairEngine(
            store,
            CFDS,
            RepairConfig(
                method="parallel",
                storage="mmap",
                workers=2,
                shard_count=3,
                check_consistency=False,
                spill_dir=str(tmp_path / "spill"),
            ),
        )
        with pytest.raises(RuntimeError):
            engine.run(CostModel())
        plan_dirs = [
            path
            for path in (tmp_path / "spill").iterdir()
            if path != store.spill_directory
        ]
        assert plan_dirs, "the crashed run's spill plan must survive"
        assert any(
            (plan_dir / "dictionaries.pkl").is_file() for plan_dir in plan_dirs
        )
        store.release()


def test_delta_log_format_roundtrips(tmp_path):
    """changes.pkl is a plain pickled list of CellChange records."""
    from repro.repair.heuristic import CellChange

    change = CellChange(
        tuple_index=3,
        attribute="C",
        old_value="c1",
        new_value="c0",
        cost=1.0,
        reason="qv",
    )
    path = tmp_path / "changes.pkl"
    with open(path, "wb") as handle:
        pickle.dump([change], handle, protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "rb") as handle:
        assert pickle.load(handle) == [change]
