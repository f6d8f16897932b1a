"""Spans for the traced round, recorded around the calls into each layer.

The program itself carries no tracing: :class:`Tracer` wraps public
callables from the outside for the duration of one operation.  Class methods
are patched on the class; module functions are patched in every ``repro``
module that imported the name, unless a binding is given its own span name
(``shard_relation`` plans detection shards in ``repro.parallel.engine`` and
repair shards in ``repro.parallel.repairer``).

Each span is ``[name, parent, start, end, outermost, call]``; ``outermost``
is false when a span of the same name is already open, so recursion and
kernel fallbacks are not counted twice.  A callable that returns a
generator does its work while the caller iterates, so every resumption of
that generator gets a span of the callable's name with ``call`` false.

A layer's ``*_s`` metric is the summed duration of its outermost spans; its
self time (duration minus child spans) is in the trace file.  Work done
inside pool workers is not traced — it is read from the ``ParallelStats``
the engines return.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

MIB = 1024.0 * 1024.0

#: The kernel primitives (``repro.kernels``), one span name each.
KERNEL_PRIMITIVES = (
    "group_codes",
    "group_projections",
    "codes_disagree",
    "variable_violation_groups",
    "constant_mismatches",
    "partition_classes",
    "evaluate_classes",
)

#: Trace files keep at most this many spans (aggregates cover all of them).
MAX_WRITTEN_SPANS = 20_000


class Tracer:
    """Records nested spans and what the wrapped calls returned."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.captured: Dict[str, List[Any]] = defaultdict(list)
        self._stack: List[int] = []
        self._open_names: Dict[str, int] = defaultdict(int)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ spans
    def _enter(self, name: str, call: bool = True) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outermost = self._open_names[name] == 0
        self.spans.append([name, parent, time.perf_counter(), 0.0, outermost, call])
        self._open_names[name] += 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._open_names[span[0]] -= 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if after is not None:
                after(tracer, args, result)
            if isinstance(result, types.GeneratorType):
                return tracer._resumed(result, name)
            return result

        return traced

    def _resumed(self, generator: Iterator, name: str) -> Iterator:
        while True:
            index = self._enter(name, call=False)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._exit(index)
            yield item

    # ------------------------------------------------------------------ patching
    def patch_method(
        self, cls: type, attr: str, name: str, before=None, after=None
    ) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self._wrap(raw.__func__, name, before, after))
        else:
            new = self._wrap(raw, name, before, after)
        setattr(cls, attr, new)
        self._patches.append((cls, attr, raw))

    def patch_function(
        self,
        home: str,
        attr: str,
        name: str,
        in_module: Optional[str] = None,
        after=None,
    ) -> None:
        """Wrap ``home.attr`` where ``in_module`` bound it, or everywhere."""
        original = getattr(importlib.import_module(home), attr)
        wrapped = self._wrap(original, name, after=after)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if in_module is not None and module_name != in_module:
                continue
            bound = module.__dict__.get(attr)
            if module_name.startswith("repro") and bound is original:
                setattr(module, attr, wrapped)
                self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ aggregation
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost calls, their summed duration, and self time."""
        child_time = [0.0] * len(self.spans)
        for _name, parent, start, end, _outer, _call in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_s": 0.0}
        )
        for position, span in enumerate(self.spans):
            name, _parent, start, end, outer, call = span
            entry = layers[name]
            entry["self_s"] += end - start - child_time[position]
            if outer:
                entry["calls"] += call
                entry["seconds"] += end - start
        return dict(layers)

    def trace_document(self) -> Dict[str, Any]:
        origin = self.spans[0][2] if self.spans else 0.0
        written = self.spans[:MAX_WRITTEN_SPANS]
        return {
            "layers": self.aggregate(),
            "spans_total": len(self.spans),
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [name, parent, round(start - origin, 7), round(end - origin, 7)]
                for name, parent, start, end, _outer, _call in written
            ],
        }


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------
def _capture(key: str, pick: Callable = lambda args, result: result):
    def after(tracer: Tracer, args, result) -> None:
        tracer.captured[key].append(pick(args, result))

    return after


def _capture_self(key: str):
    return _capture(key, lambda args, result: args[0])


def _directory_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def _spill_before(directory_of: Callable):
    def before(tracer: Tracer, args) -> None:
        spilled = _directory_bytes(directory_of(args[0]))
        tracer.captured["spill_bytes"].append(spilled)

    return before


def _verify_cells(args, result) -> int:
    relation, cfds = args[0], args[1]
    return len(relation) * sum(len(cfd.tableau) for cfd in cfds)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.detection.partition_index import (
        CodePartitionIndex,
        PartitionIndex,
        PartitionIndexCache,
    )
    from repro.io.sources import RowSource
    from repro.kernels.python_kernels import PythonKernel
    from repro.parallel.repairer import ParallelRepairEngine
    from repro.parallel.sharding import SpilledShardPlan
    from repro.pipeline import Cleaner
    from repro.registry import detector_names
    from repro.relation.mmap_store import MmapColumnStore
    from repro.repair.cost import CodeDistanceCache, CostModel
    from repro.repair.incremental import RepairState
    from repro.sql.engine import SQLDetector

    detector_names()  # imports every module that registers a backend

    # Bindings with their own span name go first, so the everywhere-pass
    # below no longer sees the original function in those modules.
    per_module = (
        ("repro.parallel.engine", "shard_relation", "parallel.detect.plan", None),
        ("repro.parallel.engine", "spill_shards", "parallel.detect.plan", None),
        ("repro.parallel.engine", "run_tasks", "parallel.detect.dispatch", None),
        (
            "repro.parallel.engine",
            "detect_sharded",
            "parallel.detect",
            _capture("detect_stats", lambda args, result: result.stats),
        ),
        ("repro.parallel.repairer", "shard_relation", "parallel.repair.plan", None),
        ("repro.parallel.repairer", "spill_shards", "parallel.repair.plan", None),
        ("repro.parallel.repairer", "run_tasks", "parallel.repair.dispatch", None),
        (
            "repro.parallel.repairer",
            "find_violations_indexed",
            "parallel.repair.reconcile",
            None,
        ),
        (
            "repro.parallel.repairer",
            "repair",
            "parallel.repair.reconcile",
            _capture("reconcile_changes", lambda args, result: len(result.changes)),
        ),
        ("repro.pipeline", "repair", "repair.fixpoint", None),
    )
    for module, attr, name, after in per_module:
        home = sys.modules[module].__dict__[attr].__module__
        tracer.patch_function(home, attr, name, in_module=module, after=after)
    everywhere = (
        (
            "repro.core.satisfaction",
            "find_all_violations",
            "core.verify",
            _capture("verify_cells", _verify_cells),
        ),
        (
            "repro.detection.indexed",
            "find_violations_indexed",
            "detection.indexed",
            None,
        ),
        ("repro.registry", "apply_storage", "relation.apply_storage", None),
        ("repro.analysis.engine", "analyze", "analysis.preflight", None),
        ("repro.sql.loader", "load_relation", "sql.load", None),
        ("repro.sql.loader", "create_indexes", "sql.index", None),
        ("repro.io.text_format", "read_cfd_file", "io.rules_parse", None),
    )
    for home, attr, name, after in everywhere:
        tracer.patch_function(home, attr, name, after=after)

    methods = (
        (Cleaner, "clean", "pipeline.clean", None),
        (RowSource, "to_relation", "io.to_relation", None),
        (RepairState, "__init__", "repair.state_init", _capture_self("states")),
        (RepairState, "apply_change", "repair.delta", None),
        (RepairState, "apply_changes", "repair.delta", None),
        (CodeDistanceCache, "projection_cost", "repair.pricing", None),
        (CostModel, "projection_cost", "repair.pricing", None),
        (
            ParallelRepairEngine,
            "run",
            "parallel.repair",
            _capture("repair_stats", lambda args, result: result.parallel_stats),
        ),
        (PartitionIndex, "from_relation", "detection.class_index_build", None),
        (CodePartitionIndex, "__init__", "detection.class_index_build", None),
        (PartitionIndexCache, "__init__", "detection.cache", _capture_self("caches")),
        (SQLDetector, "detect", "sql.detect", _capture("sql_runs")),
    )
    for cls, attr, name, after in methods:
        tracer.patch_method(cls, attr, name, after=after)
    tracer.patch_method(
        MmapColumnStore,
        "release",
        "relation.release",
        before=_spill_before(lambda store: store.spill_directory),
    )
    tracer.patch_method(
        SpilledShardPlan,
        "release",
        "relation.release",
        before=_spill_before(lambda plan: plan.plan_dir),
    )
    kernel_classes = [PythonKernel]
    try:
        from repro.kernels.numpy_kernels import NumpyKernel
    except ImportError:
        pass
    else:
        kernel_classes.append(NumpyKernel)
    for cls in kernel_classes:
        for primitive in KERNEL_PRIMITIVES:
            tracer.patch_method(cls, primitive, f"kernels.{primitive}")


# ---------------------------------------------------------------------------
# the per-layer metrics
# ---------------------------------------------------------------------------
STAGES = ("analyze", "ingest", "detect", "repair", "verify")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _parallel_metrics(prefix: str, layers, stats_list) -> Dict[str, float]:
    shard_max = shard_sum = imbalance = 0.0
    shards = 0
    for stats in stats_list:
        if stats is None:
            continue
        shards += stats.shard_count
        seconds = [timing.seconds for timing in stats.timings]
        if seconds:
            shard_max += max(seconds)
            shard_sum += sum(seconds)
            imbalance = max(imbalance, max(seconds) / statistics.fmean(seconds))
    dispatch = layers(f"{prefix}.dispatch", "seconds")
    return {
        f"{prefix}.plan_s": layers(f"{prefix}.plan", "seconds"),
        f"{prefix}.dispatch_s": dispatch,
        f"{prefix}.shard_max_s": shard_max,
        f"{prefix}.shard_sum_s": shard_sum,
        f"{prefix}.wait_s": max(0.0, dispatch - shard_max) if dispatch else 0.0,
        f"{prefix}.imbalance": imbalance,
        f"{prefix}.merge_s": layers(prefix, "self_s"),
        f"{prefix}.shards": float(shards),
    }


def layer_metrics(
    tracer: Tracer, outcome: Any, kind: str, wall: float, input_bytes: int
) -> Dict[str, float]:
    """Every per-layer metric of one traced operation (0 where a layer idled)."""
    aggregated = tracer.aggregate()

    def layers(name: str, field: str) -> float:
        return float(aggregated.get(name, {}).get(field, 0.0))

    def seconds(name: str) -> float:
        return layers(name, "seconds")

    def calls(name: str) -> float:
        return layers(name, "calls")

    captured = tracer.captured
    clean = kind == "clean"
    metrics: Dict[str, float] = {}
    stages = outcome.stage_seconds if clean else {}
    for stage in STAGES:
        metrics[f"pipeline.{stage}_s"] = stages.get(stage, 0.0)
    other = wall - sum(stages.values())
    metrics["pipeline.other_s"] = max(0.0, other) if clean else 0.0

    metrics["core.verify_s"] = seconds("core.verify")
    metrics["core.verify_cells"] = float(sum(captured["verify_cells"]))

    state_stats = [state.stats() for state in captured["states"]]
    applied = sum(stats["changes_applied"] for stats in state_stats)
    reevaluated = sum(stats["partitions_reevaluated"] for stats in state_stats)
    fixpoint = seconds("repair.fixpoint") - seconds("parallel.repair")
    metrics.update(
        {
            "repair.fixpoint_s": max(0.0, fixpoint),
            "repair.state_init_s": seconds("repair.state_init"),
            "repair.delta_s": seconds("repair.delta"),
            "repair.delta_calls": calls("repair.delta"),
            "repair.pricing_s": seconds("repair.pricing"),
            "repair.pricing_calls": calls("repair.pricing"),
            "repair.passes": float(outcome.passes) if clean else 0.0,
            "repair.changes": float(len(outcome.changes)) if clean else 0.0,
            "repair.cost": outcome.total_cost if clean else 0.0,
            "repair.partitions_reevaluated_per_change": _ratio(reevaluated, applied),
        }
    )

    for stage in ("detect", "repair"):
        stats = captured[f"{stage}_stats"]
        metrics.update(_parallel_metrics(f"parallel.{stage}", layers, stats))
    metrics["parallel.repair.reconcile_s"] = seconds("parallel.repair.reconcile")
    reconciled = sum(captured["reconcile_changes"])
    metrics["parallel.repair.reconcile_changes"] = float(reconciled)

    spilled = float(sum(captured["spill_bytes"]))
    metrics.update(
        {
            "io.rules_parse_s": seconds("io.rules_parse"),
            "io.to_relation_s": seconds("io.to_relation"),
            "relation.apply_storage_s": seconds("relation.apply_storage"),
            "relation.spill_mb": spilled / MIB,
            "relation.spill_bytes_per_input_byte": _ratio(spilled, input_bytes),
        }
    )

    cache_stats = [cache.stats() for cache in captured["caches"]]
    hits = sum(stats["hits"] for stats in cache_stats)
    misses = sum(stats["misses"] for stats in cache_stats)
    violations = len(outcome.initial_report) if clean else len(outcome)
    metrics.update(
        {
            "detection.indexed_s": seconds("detection.indexed"),
            "detection.indexed_calls": calls("detection.indexed"),
            "detection.class_index_build_s": seconds("detection.class_index_build"),
            "detection.class_indexes_built": calls("detection.class_index_build"),
            "detection.violations": float(violations),
            "detection.cache_hit_rate": _ratio(hits, hits + misses),
        }
    )

    for primitive in KERNEL_PRIMITIVES:
        metrics[f"kernels.{primitive}_s"] = seconds(f"kernels.{primitive}")
        metrics[f"kernels.{primitive}_calls"] = calls(f"kernels.{primitive}")

    # With the colon: DetectionRun.seconds_for("qv") also matches qv_expand.
    timings = [timing for run in captured["sql_runs"] for timing in run.timings]
    queries = {
        prefix: [timing for timing in timings if timing.label.startswith(prefix)]
        for prefix in ("qc:", "qv:", "qv_expand:")
    }
    qc, qv, expand = (
        sum(timing.seconds for timing in queries[prefix])
        for prefix in ("qc:", "qv:", "qv_expand:")
    )
    report_s = layers("sql.detect", "self_s") - qc - qv - expand
    metrics.update(
        {
            "sql.load_s": seconds("sql.load"),
            "sql.index_s": seconds("sql.index"),
            "sql.qc_s": qc,
            "sql.qv_s": qv,
            "sql.expand_s": expand,
            "sql.report_s": max(0.0, report_s) if timings else 0.0,
            "sql.queries": float(len(queries["qc:"]) + len(queries["qv:"])),
            "sql.expand_queries": float(len(queries["qv_expand:"])),
            "sql.result_rows": float(sum(timing.rows for timing in timings)),
        }
    )

    report = outcome.analysis_report if clean else None
    metrics["analysis.preflight_s"] = seconds("analysis.preflight")
    metrics["analysis.diagnostics"] = float(len(report)) if report is not None else 0.0

    unattributed = layers("op", "self_s") + layers("pipeline.clean", "self_s")
    metrics["trace.coverage"] = 1.0 - _ratio(unattributed, wall)
    return metrics


def labels(tracer: Tracer, outcome: Any, kind: str) -> Dict[str, Any]:
    """The registry's decisions for this operation."""
    from repro.kernels import resolve_kernel_name

    found: Dict[str, Any] = {"kernels.name": resolve_kernel_name(None)}
    if kind == "clean":
        for stage, backend in outcome.backends.items():
            found[f"backend.{stage}"] = backend
    captured = tracer.captured
    stats = [s for s in captured["detect_stats"] + captured["repair_stats"] if s]
    found["mode"] = sorted({s.mode for s in stats}) or None
    found["repair.batched"] = sorted({s.batched for s in captured["states"]}) or None
    return found
