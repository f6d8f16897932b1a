"""The unified cleaning pipeline: detect → repair → verify, as one call.

The paper's workflow is a loop — find the CFD violations, repair the data,
re-verify until clean — but until this module the repo only exposed the
individual stages (:func:`~repro.detection.engine.detect_violations`,
:func:`~repro.repair.heuristic.repair`).  :class:`Cleaner` is the facade
that runs the whole loop over any :class:`~repro.io.sources.RowSource` and
returns a :class:`CleaningResult` carrying the clean relation *and* the
audit trail: per-pass violation counts, every applied cell change, the total
repair cost, and per-stage wall-clock timings.

>>> from repro.datagen.cust import cust_relation, cust_cfds
>>> result = Cleaner().clean(cust_relation(), cust_cfds())
>>> result.clean
True
>>> result.final_report.is_clean()
True

Backends are picked through :mod:`repro.registry` — by name via
:class:`~repro.config.DetectionConfig` / :class:`~repro.config.RepairConfig`,
or automatically with ``method="auto"`` (the default).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.analysis import AnalysisReport, AnalysisWarning, analyze, require_clean
from repro.config import AUTO, DetectionConfig, RepairConfig, strictest_analysis
from repro.core.cfd import CFD
from repro.core.violations import ViolationReport
from repro.detection.engine import detect_violations
from repro.detection.indexed import detect_stream
from repro.errors import ReproError
from repro.io.sources import RelationSource, RowSource, as_source
from repro.kernels import resolve_kernel_name
from repro.registry import (
    COLUMNAR_DETECTORS,
    COLUMNAR_REPAIRERS,
    apply_storage,
    resolve_detector,
    resolve_repairer,
)
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore, chunk_rows_for_budget
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.heuristic import CellChange, RepairResult, repair

__all__ = [
    "CleaningResult",
    "Cleaner",
    "DetectionConfig",
    "RepairConfig",
    "RowSource",
    "clean",
]


@dataclass
class CleaningResult:
    """Everything a cleaning run produced, stages and audit trail included."""

    #: The cleaned relation (repair copies first; the source is never mutated).
    relation: Relation
    #: Whether the verification stage found the relation violation-free.
    clean: bool
    #: Violations found by the initial detection stage.
    initial_report: ViolationReport
    #: Violations remaining after repair (empty when ``clean``).
    final_report: ViolationReport
    #: Violations outstanding at the start of every repair pass, across rounds.
    pass_violation_counts: List[int] = field(default_factory=list)
    #: Every cell modification the repair applied, in order.
    changes: List[CellChange] = field(default_factory=list)
    #: Total modification cost under the repair's cost model.
    total_cost: float = 0.0
    #: Repair passes executed (across all detect→repair rounds).
    passes: int = 0
    #: Detect→repair rounds the pipeline ran (normally 1).
    rounds: int = 0
    #: Wall-clock seconds per stage: ingest, detect, repair, verify.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Backend names the registry resolved, e.g. ``{"detect": "indexed", ...}``.
    backends: Dict[str, str] = field(default_factory=dict)
    #: Human-readable description of the ingested source.
    source: str = ""
    #: The pre-flight static-analysis report (``None`` when ``analysis="off"``).
    analysis_report: Optional[AnalysisReport] = None

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def summary(self) -> Dict[str, Any]:
        """A JSON-friendly digest (what ``repro clean`` prints as its audit)."""
        return {
            "source": self.source,
            "tuples": len(self.relation),
            "clean": self.clean,
            "initial_violations": len(self.initial_report),
            "final_violations": len(self.final_report),
            "pass_violation_counts": list(self.pass_violation_counts),
            "changes": len(self.changes),
            "total_cost": round(self.total_cost, 4),
            "passes": self.passes,
            "rounds": self.rounds,
            "backends": dict(self.backends),
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_seconds.items()
            },
        }


class Cleaner:
    """Runs the full detect → repair → verify loop over a row source.

    Parameters
    ----------
    detection:
        How to detect violations (backend, SQL knobs, parallel
        ``workers``/``shard_count``).  Defaults to ``method="auto"``, which
        escalates to the sharded parallel backend past
        :data:`repro.registry.PARALLEL_AUTO_ROW_THRESHOLD` rows.
    repair:
        How to repair them (engine, pass budget, cost model, parallel
        ``workers``/``shard_count``).  Defaults to ``method="auto"``.  A
        parallel run degrades to serial in-process execution when the pool
        cannot start (sandboxed CI) and surfaces a genuine worker crash as
        a :class:`~repro.errors.ParallelExecutionError` — a
        :class:`~repro.errors.ReproError`, not a raw multiprocessing
        traceback.
    verify_method:
        Backend for the final verification stage.  Defaults to the
        pure-Python oracle, so a ``clean=True`` result is vouched for by the
        reference semantics regardless of which backends did the work.
    max_rounds:
        Detect→repair rounds before giving up.  One round normally suffices
        (the repair loop itself iterates to a fixpoint); the re-verify loop
        guards the pipeline contract end to end.
    """

    def __init__(
        self,
        detection: Optional[DetectionConfig] = None,
        repair: Optional[RepairConfig] = None,
        verify_method: str = "inmemory",
        max_rounds: int = 3,
    ) -> None:
        if max_rounds < 1:
            raise ReproError(f"max_rounds must be at least 1, got {max_rounds}")
        self.detection = detection or DetectionConfig()
        self.repair = repair or RepairConfig()
        self.verify_method = verify_method
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------ stages
    def _preflight(
        self, cfds: Sequence[CFD], schema: Optional[Schema]
    ) -> Optional[AnalysisReport]:
        """The pre-flight static-analysis gate (see ``docs/analysis.md``).

        Runs :func:`repro.analysis.analyze` with ``deep=False`` — the cheap
        structural, consistency and hazard checks whose cost depends only on
        the rule set, never on the data — at the *strictest* of the two
        configs' ``analysis`` levels.  ``"strict"`` raises
        :class:`~repro.errors.AnalysisError` on error-severity diagnostics
        before any ingestion or detection work; ``"warn"`` surfaces findings
        as :class:`~repro.analysis.AnalysisWarning` warnings and proceeds
        (results are untouched — the gate never mutates anything);
        ``"off"`` skips the pass and returns ``None``.
        """
        level = strictest_analysis(
            self.detection.effective_analysis, self.repair.effective_analysis
        )
        if level == "off":
            return None
        report = analyze(
            cfds,
            schema,
            detection=self.detection,
            repair=self.repair,
            deep=False,
        )
        if level == "strict":
            require_clean(report)
        else:
            for diagnostic in report.errors() + report.warnings():
                warnings.warn(diagnostic.render(), AnalysisWarning, stacklevel=4)
        return report

    def ingest(
        self,
        source: Union[RowSource, Relation, str, Iterable],
        schema: Optional[Schema] = None,
        storage: Optional[str] = None,
        spill_dir: Optional[str] = None,
    ) -> Relation:
        """Materialise any supported source into a relation.

        ``storage="columnar"`` dictionary-encodes at ingestion;
        ``storage="mmap"`` additionally spills the code columns to
        memory-mapped files under ``spill_dir``; ``None`` keeps whatever
        layout the source naturally produces.
        """
        return as_source(source, schema=schema).to_relation(
            storage=storage, spill_dir=spill_dir
        )

    def detect(
        self,
        source: Union[RowSource, Relation, str, Iterable],
        cfds: Union[CFD, Sequence[CFD]],
        schema: Optional[Schema] = None,
    ) -> ViolationReport:
        """Run only the detection stage (ingest + detect).

        When the backend resolves to ``"indexed"`` and the source is not
        already an in-memory relation, the rows are *streamed* through
        :func:`repro.detection.indexed.detect_stream` in batches of
        ``detection.chunk_size`` — only the attributes the CFDs mention are
        retained, so a CSV or SQLite source never materialises in full.
        """
        row_source = as_source(source, schema=schema)
        if not isinstance(row_source, RelationSource):
            # "auto" on a not-yet-materialised source favours the streaming
            # backend: the workload shape is unknown until ingested, and only
            # the indexed backend can detect without materialising.
            if self.detection.method in ("indexed", AUTO):
                return detect_stream(
                    row_source.schema,
                    iter(row_source),
                    cfds,
                    chunk_size=self.detection.chunk_size,
                    storage=self.detection.effective_storage,
                    kernel=self.detection.effective_kernel,
                    spill_dir=self.detection.spill_dir,
                )
        relation = row_source.to_relation()
        return detect_violations(relation, cfds, config=self.detection)

    def clean(
        self,
        source: Union[RowSource, Relation, str, Iterable],
        cfds: Union[CFD, Sequence[CFD]],
        schema: Optional[Schema] = None,
    ) -> CleaningResult:
        """Ingest ``source``, repair it against ``cfds``, verify, and report.

        The source data is never mutated: repair works on a copy, so passing
        a ``Relation`` directly leaves it untouched.
        """
        if isinstance(cfds, CFD):
            cfds = [cfds]
        cfds = list(cfds)
        stage_seconds: Dict[str, float] = {}

        detect_storage = self.detection.effective_storage
        repair_storage = self.repair.effective_storage
        spill_dir = self.detection.spill_dir or self.repair.spill_dir
        memory_budget = self.detection.memory_budget_mb or self.repair.memory_budget_mb

        row_source = as_source(source, schema=schema)

        # Pre-flight gate: statically analyse the rule set against the
        # source schema and the engine configs *before* ingesting a single
        # row — a 10M-row mmap ingest is exactly the work an inconsistent
        # rule set must not be allowed to waste.
        start = time.perf_counter()
        analysis_report = self._preflight(cfds, row_source.schema)
        stage_seconds["analyze"] = time.perf_counter() - start

        start = time.perf_counter()
        if "mmap" in (detect_storage, repair_storage):
            # Out-of-core ingestion: stream the rows straight into spilled
            # code columns so the relation is never materialised as Python
            # tuples — the whole point of storage="mmap".
            relation = row_source.to_relation(
                storage="mmap",
                spill_dir=spill_dir,
                chunk_rows=(
                    chunk_rows_for_budget(memory_budget, len(row_source.schema))
                    if memory_budget is not None
                    else None
                ),
            )
        else:
            relation = row_source.to_relation()
        stage_seconds["ingest"] = time.perf_counter() - start

        detect_name, _ = resolve_detector(self.detection.method, relation, cfds)
        repair_name, _ = resolve_repairer(self.repair.method, relation, cfds)
        # Encode once, up front — but only when some resolved stage runs a
        # columnar-capable backend; then detection, every repair round and
        # the audit share one encoded relation instead of re-encoding per
        # stage.  A stage asking for "mmap" escalates the shared target to
        # the spilled backing (an MmapColumnStore satisfies "columnar"
        # requests unchanged — see apply_storage).
        detect_columnar = detect_name in COLUMNAR_DETECTORS
        repair_columnar = repair_name in COLUMNAR_REPAIRERS
        target = "columnar"
        if (detect_columnar and detect_storage == "mmap") or (
            repair_columnar and repair_storage == "mmap"
        ):
            target = "mmap"
        start = time.perf_counter()
        relation = apply_storage(
            relation,
            target,
            detect_columnar or repair_columnar,
            spill_dir=spill_dir,
            memory_budget_mb=memory_budget,
        )
        stage_seconds["ingest"] += time.perf_counter() - start
        if isinstance(relation, MmapColumnStore):
            storage_name = "mmap"
        elif isinstance(relation, ColumnStore):
            storage_name = "columnar"
        else:
            storage_name = "rows"
        backends = {
            "detect": detect_name,
            "repair": repair_name,
            "verify": self.verify_method,
            "storage": storage_name,
            "kernel": resolve_kernel_name(self.detection.effective_kernel),
        }

        start = time.perf_counter()
        initial_report = detect_violations(
            relation, cfds, config=self.detection.with_method(detect_name)
        )
        stage_seconds["detect"] = time.perf_counter() - start

        result = CleaningResult(
            relation=relation,
            clean=initial_report.is_clean(),
            initial_report=initial_report,
            final_report=initial_report,
            stage_seconds=stage_seconds,
            backends=backends,
            source=row_source.describe(),
            analysis_report=analysis_report,
        )
        stage_seconds["repair"] = 0.0
        stage_seconds["verify"] = 0.0

        report = initial_report
        for _ in range(self.max_rounds):
            if report.is_clean():
                break
            result.rounds += 1

            start = time.perf_counter()
            repaired: RepairResult = repair(
                result.relation, cfds, config=self.repair.with_method(repair_name)
            )
            stage_seconds["repair"] += time.perf_counter() - start
            result.relation = repaired.relation
            result.changes.extend(repaired.changes)
            result.total_cost += repaired.total_cost
            result.passes += repaired.passes
            result.pass_violation_counts.extend(repaired.pass_violation_counts)

            start = time.perf_counter()
            report = detect_violations(result.relation, cfds, method=self.verify_method)
            stage_seconds["verify"] += time.perf_counter() - start

        result.final_report = report
        result.clean = report.is_clean()
        # The ingested spill store is dead once repair replaced it with its
        # own copy — release its run directory now instead of waiting for
        # GC (and never release a store the caller handed in, or the one
        # the caller is about to read results from).
        if (
            isinstance(relation, MmapColumnStore)
            and relation is not result.relation
            and relation is not getattr(row_source, "_relation", None)
        ):
            relation.release()
        return result


def clean(
    source: Union[RowSource, Relation, str, Iterable],
    cfds: Union[CFD, Sequence[CFD]],
    detection: Optional[DetectionConfig] = None,
    repair: Optional[RepairConfig] = None,
    schema: Optional[Schema] = None,
) -> CleaningResult:
    """One-call cleaning: ``clean(source, cfds)`` with default configs.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> clean(cust_relation(), cust_cfds()).clean
    True
    """
    return Cleaner(detection=detection, repair=repair).clean(source, cfds, schema=schema)
