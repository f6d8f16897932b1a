"""repro — a reproduction of *Conditional Functional Dependencies for Data Cleaning*.

The package implements the CFD formalism of Bohannon, Fan, Geerts, Jia and
Kementsietsidis (ICDE 2007) together with every substrate the paper's
evaluation depends on:

* ``repro.relation`` — an in-memory relational substrate (schemas, typed
  attributes with optional finite domains, relations, CSV I/O), with a
  dictionary-encoded columnar storage core (``ColumnStore``) and a
  memory-mapped out-of-core variant (``MmapColumnStore``) behind the
  same API.
* ``repro.core`` — pattern tableaux, CFDs, the match/order relations and
  in-memory satisfaction checking.
* ``repro.reasoning`` — consistency, implication (inference rules FD1–FD8),
  and minimal covers.
* ``repro.sql`` — SQL generation for violation detection (single CFD and
  merged multi-CFD schemes) plus a SQLite execution engine.
* ``repro.detection`` — a single façade over the in-memory, SQL and
  partition-indexed detectors, plus three-way cross-checking.
* ``repro.repair`` — cost-based heuristic repair (the paper's Section 6).
* ``repro.parallel`` — sharded parallel detection/repair over a process
  pool (``method="parallel"``), splitting the relation by LHS
  equivalence classes so no violation spans two shards.
* ``repro.pipeline`` — the ``Cleaner`` facade running the full
  detect → repair → verify loop over any row source.
* ``repro.registry`` — ``method="auto"`` backend selection over the fixed
  detection and repair backend tables.
* ``repro.datagen`` — the ``cust`` running example and the tax-records
  generator used in the experimental study.
* ``repro.bench`` — the experiment harness that regenerates Figure 9.

Quickstart
----------
>>> from repro import Cleaner, cust_relation, cust_cfds, detect_violations
>>> report = detect_violations(cust_relation(), cust_cfds())
>>> sorted(report.violating_indices())
[0, 1, 2, 3]
>>> Cleaner().clean(cust_relation(), cust_cfds()).clean
True
"""

from repro.analysis import AnalysisReport, AnalysisWarning, Diagnostic, analyze
from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD, FD
from repro.core.pattern import DONTCARE, WILDCARD, PatternValue
from repro.core.tableau import PatternTableau, PatternTuple
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    Violation,
    ViolationReport,
)
from repro.datagen.cust import cust_cfds, cust_relation
from repro.detection.engine import cross_check, detect_violations
from repro.detection.indexed import IndexedDetector
from repro.io.sources import (
    CSVSource,
    IterableSource,
    RelationSource,
    RowSource,
    SQLiteSource,
    as_source,
)
from repro.kernels import kernel_names, numpy_available, use_kernel
from repro.parallel.engine import find_violations_parallel
from repro.pipeline import Cleaner, CleaningResult, clean
from repro.reasoning.consistency import is_consistent
from repro.reasoning.implication import implies
from repro.reasoning.mincover import minimal_cover
from repro.registry import select_detection_method, select_repair_method
from repro.relation.attribute import Attribute
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore, spill_run
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.heuristic import repair
from repro.sql.engine import SQLDetector

__version__ = "1.5.0"

__all__ = [
    "AnalysisReport",
    "AnalysisWarning",
    "Attribute",
    "CFD",
    "Cleaner",
    "CleaningResult",
    "ColumnStore",
    "ConstantViolation",
    "CSVSource",
    "DetectionConfig",
    "Diagnostic",
    "DONTCARE",
    "FD",
    "IndexedDetector",
    "IterableSource",
    "MmapColumnStore",
    "PatternTableau",
    "PatternTuple",
    "PatternValue",
    "Relation",
    "RelationSource",
    "RepairConfig",
    "RowSource",
    "Schema",
    "SQLDetector",
    "SQLiteSource",
    "VariableViolation",
    "Violation",
    "ViolationReport",
    "WILDCARD",
    "analyze",
    "as_source",
    "clean",
    "cross_check",
    "cust_cfds",
    "cust_relation",
    "detect_violations",
    "find_violations_parallel",
    "implies",
    "is_consistent",
    "kernel_names",
    "minimal_cover",
    "numpy_available",
    "repair",
    "select_detection_method",
    "select_repair_method",
    "spill_run",
    "use_kernel",
    "__version__",
]
