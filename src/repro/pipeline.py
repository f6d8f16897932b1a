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

Backends are picked by name via :class:`~repro.config.DetectionConfig` /
:class:`~repro.config.RepairConfig`, or automatically with ``method="auto"``
(the default; see :mod:`repro.registry`).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis import AnalysisReport, AnalysisWarning, analyze, require_clean
from repro.config import (
    ANALYSIS_LEVELS,
    AUTO,
    DetectionConfig,
    RepairConfig,
    check_choice,
)
from repro.core.cfd import CFD
from repro.core.violations import ViolationReport
from repro.detection.engine import DETECTORS, detect_violations
from repro.detection.indexed import detect_stream
from repro.errors import ReproError
from repro.io.sources import RelationSource, RowSource, as_source
from repro.kernels import resolve_kernel_name
from repro.registry import resolve_detector, resolve_repairer
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.heuristic import REPAIRERS, CellChange, RepairResult, repair
from repro.rules import compile_rules

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
    #: Backend names each stage ran, e.g. ``{"detect": "indexed", ...}``;
    #: ``"kernel"`` is the detection stage's kernel, ``"repair_kernel"`` the
    #: repair stage's.
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
        resolves to a serial backend (``inmemory`` or ``indexed``) at every
        size; the sharded backend runs only when ``method="parallel"`` names
        it.
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
    analysis:
        Pre-flight static-analysis level of the gate (:meth:`_preflight`):
        ``"strict"`` (refuse to clean a rule set with error-severity
        diagnostics, raising :class:`~repro.errors.AnalysisError` with the
        report before any ingestion or detection work), ``"warn"``
        (default: surface findings as warnings and proceed) or ``"off"``.
        The gate never changes cleaning *results* — only whether a doomed
        run starts at all.
    """

    def __init__(
        self,
        detection: Optional[DetectionConfig] = None,
        repair: Optional[RepairConfig] = None,
        verify_method: str = "inmemory",
        max_rounds: int = 3,
        analysis: str = "warn",
    ) -> None:
        if max_rounds < 1:
            raise ReproError(f"max_rounds must be at least 1, got {max_rounds}")
        check_choice("analysis level", analysis, ANALYSIS_LEVELS)
        self.detection = detection or DetectionConfig()
        self.repair = repair or RepairConfig()
        self.verify_method = verify_method
        self.max_rounds = max_rounds
        self.analysis = analysis

    # ------------------------------------------------------------------ stages
    def _preflight(
        self, cfds: Sequence[CFD], schema: Optional[Schema]
    ) -> Optional[AnalysisReport]:
        """The pre-flight static-analysis gate (see ``docs/analysis.md``).

        Runs :func:`repro.analysis.analyze` with ``deep=False`` — the cheap
        structural, consistency and hazard checks whose cost depends only on
        the rule set, never on the data — at the ``analysis`` level.
        ``"strict"`` raises :class:`~repro.errors.AnalysisError` on
        error-severity diagnostics before any ingestion or detection work;
        ``"warn"`` surfaces findings as
        :class:`~repro.analysis.AnalysisWarning` warnings and proceeds
        (results are untouched — the gate never mutates anything);
        ``"off"`` skips the pass and returns ``None``.
        """
        if self.analysis == "off":
            return None
        report = analyze(
            cfds,
            schema,
            detection=self.detection,
            repair=self.repair,
            deep=False,
        )
        if self.analysis == "strict":
            require_clean(report)
        else:
            for diagnostic in report.errors() + report.warnings():
                warnings.warn(diagnostic.render(), AnalysisWarning, stacklevel=4)
        return report

    def detect(
        self,
        source: Union[RowSource, Relation, str, Iterable],
        cfds: Union[CFD, Sequence[CFD]],
        schema: Optional[Schema] = None,
    ) -> ViolationReport:
        """Run only the detection stage (ingest + detect).

        When the backend resolves to ``"indexed"`` and the source is not
        already an in-memory relation, the rows are *streamed* through
        :func:`repro.detection.indexed.detect_stream` — only the attributes
        the CFDs mention are retained, so a CSV or SQLite source never
        materialises in full.
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
                    storage=self.detection.storage,
                    kernel=self.detection.kernel,
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

        The rules are compiled once (:func:`repro.rules.compile_rules`): every
        stage reads their pattern specs and consistency verdict from it.
        """
        cfds = compile_rules(cfds)
        stage_seconds: Dict[str, float] = {}

        spill_dir = self.detection.spill_dir or self.repair.spill_dir

        row_source = as_source(source, schema=schema)

        # Pre-flight gate: statically analyse the rule set against the
        # source schema and the engine configs *before* ingesting a single
        # row — a 10M-row mmap ingest is exactly the work an inconsistent
        # rule set must not be allowed to waste.
        start = time.perf_counter()
        analysis_report = self._preflight(cfds, row_source.schema)
        stage_seconds["analyze"] = time.perf_counter() - start

        # Ingest once, straight into the one store every stage shares: the
        # spilled code columns when either stage asks for "mmap" (the rows
        # are never materialised as Python tuples), else a column store.
        # Detection, every repair round and the audit read it as it is; only
        # the row-reading scan repair engine decodes a copy.  When both
        # stages are named and neither computes over codes, nothing would
        # read the codes: the rows are kept as they are.
        storage: Optional[str] = "columnar"
        if "mmap" in (self.detection.storage, self.repair.storage):
            storage = "mmap"
        elif not (
            _reads_codes(self.detection.method, DETECTORS)
            or _reads_codes(self.repair.method, REPAIRERS)
        ):
            storage = None
        start = time.perf_counter()
        relation = row_source.to_relation(storage=storage, spill_dir=spill_dir)
        stage_seconds["ingest"] = time.perf_counter() - start

        detect_name = resolve_detector(self.detection.method, relation, cfds)
        repair_name = resolve_repairer(self.repair.method, relation, cfds)
        backends = {
            "detect": detect_name,
            "repair": repair_name,
            "verify": self.verify_method,
            "storage": _storage_name(relation),
            "kernel": resolve_kernel_name(self.detection.kernel),
            "repair_kernel": resolve_kernel_name(self.repair.kernel),
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

        repair_config = self.repair.with_method(repair_name)
        report = initial_report
        for _ in range(self.max_rounds):
            if report.is_clean():
                break
            result.rounds += 1

            start = time.perf_counter()
            repaired: RepairResult = repair(
                result.relation, cfds, config=repair_config
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


def _reads_codes(method: str, backends: Mapping[str, Tuple[Any, bool]]) -> bool:
    """Whether ``method`` of a stage's backend table may compute over codes.

    ``"auto"`` may: it resolves from the ingested relation.
    """
    return method == AUTO or backends[method][1]


def _storage_name(relation: Relation) -> str:
    """The layer ``relation`` lives in: ``"mmap"``, ``"columnar"`` or ``"rows"``."""
    if isinstance(relation, MmapColumnStore):
        return "mmap"
    return "columnar" if isinstance(relation, ColumnStore) else "rows"


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
    return Cleaner(detection=detection, repair=repair).clean(
        source, cfds, schema=schema
    )
