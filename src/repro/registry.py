"""Named registries of detection and repair backends.

This module replaces the stringly-typed ``method=`` dispatch that used to be
hard-coded into :func:`repro.detection.engine.detect_violations` and
:func:`repro.repair.heuristic.repair`.  Backends are plain callables keyed by
name:

* a **detector** maps ``(relation, cfds, config)`` to a
  :class:`~repro.core.violations.ViolationReport`;
* a **repair engine** maps ``(relation, cfds, config)`` to an engine object
  exposing ``relation``, ``report()`` and ``update(index, attribute, value)``
  — the protocol the greedy repair loop drives (see
  :mod:`repro.repair.heuristic`) — or, for *self-driving* engines, a single
  ``run(cost_model)`` method that owns the whole fixpoint and returns the
  :class:`~repro.repair.heuristic.RepairResult` itself (the sharded
  parallel engine works this way).

The built-in backends register themselves when their home modules import
(``repro.detection.engine`` registers ``inmemory``/``sql``/``indexed``;
``repro.repair.heuristic`` registers ``scan``/``indexed``/``incremental``;
``repro.parallel`` registers ``parallel`` for both kinds);
user code adds its own with the same decorators:

>>> from repro.registry import register_detector, unregister_detector
>>> @register_detector("noop")
... def detect_nothing(relation, cfds, config):
...     from repro.core.violations import ViolationReport
...     return ViolationReport()
>>> unregister_detector("noop")

The special name ``"auto"`` is not a backend: :func:`resolve_detector` and
:func:`resolve_repairer` translate it to a concrete registered name from the
workload shape (relation size x pattern count), mirroring the dynamic
strategy-selection idea the ISSUE cites.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Sequence, Tuple, TypeVar

from repro.config import AUTO
from repro.core.cfd import CFD
from repro.errors import RegistryError
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore, chunk_rows_for_budget
from repro.relation.relation import Relation

_Backend = TypeVar("_Backend", bound=Callable)

_DETECTORS: Dict[str, Callable] = {}
_REPAIRERS: Dict[str, Callable] = {}
_ANALYSIS_CHECKS: Dict[str, Callable] = {}

#: Workload size (rows x pattern tuples) below which full re-scans win.
#: Detection: the in-memory oracle beats building partition maps on tiny
#: inputs.  Repair: rebuilding indexes per pass is fine on tiny inputs, the
#: delta-maintained state only pays off once the product grows past this.
AUTO_CELL_THRESHOLD = 50_000

def _parallel_threshold_from_env(default: int = 150_000) -> int:
    """Parse ``REPRO_PARALLEL_AUTO_ROWS``, falling back on garbage.

    An unparsable value must not make ``import repro`` itself crash with a
    raw ``ValueError`` (this runs at import time); mirror the forgiving
    behaviour of ``REPRO_BENCH_SCALE`` and keep the default instead.
    """
    raw = os.environ.get("REPRO_PARALLEL_AUTO_ROWS")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


#: Relation size (rows) above which ``method="auto"`` escalates to the
#: sharded parallel backend for both detection and repair.  Below it, shard
#: planning, spilling and process start-up would eat the win; above it, the
#: per-shard work dominates and the pool pays for itself.  Configurable via
#: the ``REPRO_PARALLEL_AUTO_ROWS`` environment variable (read at import) or
#: by assigning the module attribute (read at every selection).
PARALLEL_AUTO_ROW_THRESHOLD = _parallel_threshold_from_env()

#: Built-in detection backends whose hot loops consume the columnar code
#: protocol.  The oracle and the SQL backend read rows either way; converting
#: for them would only add decode overhead.
COLUMNAR_DETECTORS = frozenset({"indexed", "parallel"})

#: Built-in repair engines whose detection layer is columnar-capable.  The
#: scan engine is the row-semantics correctness baseline and stays on rows.
COLUMNAR_REPAIRERS = frozenset({"indexed", "incremental", "parallel"})


def apply_storage(
    relation: Relation,
    storage: str,
    columnar_capable: bool,
    spill_dir: Optional[str] = None,
    memory_budget_mb: Optional[int] = None,
) -> Relation:
    """The relation in the storage layer the resolved backend should see.

    ``storage`` is an *effective* storage name
    (:attr:`repro.config.DetectionConfig.effective_storage`).  Columnar-
    capable backends compute over codes only, so they always get a
    :class:`~repro.relation.columnar.ColumnStore`: ``"mmap"`` spills the
    code columns to memory-mapped files under ``spill_dir``
    (``memory_budget_mb`` sizes the ingestion chunks), and a
    :class:`~repro.relation.mmap_store.MmapColumnStore` passes a
    ``"columnar"`` request through unchanged — it *is* a column store, and
    decoding it back into memory would defeat the out-of-core point.
    Row-reading backends (the scan oracle, the SQL loader) always get
    materialised rows: one decode pass here is far cheaper than the
    per-cell decode their full scans would otherwise pay against an encoded
    relation.  When no conversion is needed the relation is returned as-is
    (callers that must not share state copy afterwards, as
    :func:`repro.repair.heuristic.repair` does).
    """
    if not columnar_capable:
        if isinstance(relation, ColumnStore):
            return Relation.from_validated_rows(relation.schema, relation)
        return relation
    if storage == "mmap" and not isinstance(relation, MmapColumnStore):
        return MmapColumnStore.from_relation(
            relation,
            spill_dir=spill_dir,
            chunk_rows=(
                chunk_rows_for_budget(memory_budget_mb, len(relation.schema))
                if memory_budget_mb is not None
                else None
            ),
        )
    if not isinstance(relation, ColumnStore):
        return ColumnStore.from_relation(relation)
    return relation


def apply_kernel(kernel: Optional[str]):
    """Context manager activating the kernel a resolved backend should use.

    The kernel counterpart of :func:`apply_storage`: ``kernel`` is an
    *effective* kernel name (:attr:`repro.config.DetectionConfig.effective_kernel`
    — possibly still ``"auto"``, possibly ``None`` to defer to
    ``REPRO_KERNEL``).  Dispatch sites wrap their backend call in it so every
    hot loop underneath — partition grouping, ``Q^C``/``Q^V`` checks, the
    repair vote — computes through the same kernel.  Kernels are
    byte-identical by contract (``tests/integration/test_kernel_agreement.py``),
    so this is a speed knob, never a semantics knob.  Raises
    :class:`~repro.errors.ConfigError` when an explicitly requested kernel is
    not importable (``"auto"`` degrades instead).
    """
    from repro.kernels import use_kernel

    return use_kernel(kernel)


def _ensure_builtins() -> None:
    """Import the modules whose import side-effect registers the built-ins."""
    import repro.detection.engine  # noqa: F401
    import repro.parallel.engine  # noqa: F401
    import repro.parallel.repairer  # noqa: F401
    import repro.repair.heuristic  # noqa: F401


def _ensure_analysis_builtins() -> None:
    """Import the built-in analysis checks (deferred: they import back here)."""
    import repro.analysis.checks  # noqa: F401


def _register(table: Dict[str, Callable], kind: str, name: str, replace: bool):
    if name == AUTO:
        raise RegistryError(f'"{AUTO}" is reserved for automatic backend selection')

    def decorator(fn: _Backend) -> _Backend:
        if not replace and name in table:
            raise RegistryError(
                f"a {kind} named {name!r} is already registered; "
                f"pass replace=True to overwrite it"
            )
        table[name] = fn
        return fn

    return decorator


def register_detector(name: str, *, replace: bool = False):
    """Decorator registering a detection backend under ``name``."""
    return _register(_DETECTORS, "detector", name, replace)


def register_repairer(name: str, *, replace: bool = False):
    """Decorator registering a repair engine factory under ``name``."""
    return _register(_REPAIRERS, "repairer", name, replace)


def register_analysis_check(name: str, *, replace: bool = False):
    """Decorator registering a static-analysis check under ``name``.

    A check is a callable ``check(ctx)`` taking an
    :class:`repro.analysis.AnalysisContext` and yielding
    :class:`repro.analysis.Diagnostic` findings.  The built-in checks
    (``repro.analysis.checks``) register themselves this way; backends that
    ship their own hazard analyses use the same decorator:

    >>> from repro.registry import register_analysis_check, unregister_analysis_check
    >>> @register_analysis_check("my-hazard")
    ... def my_hazard(ctx):
    ...     return []
    >>> unregister_analysis_check("my-hazard")
    """
    return _register(_ANALYSIS_CHECKS, "analysis check", name, replace)


def unregister_analysis_check(name: str) -> None:
    """Remove a registered analysis check (primarily for tests)."""
    _ANALYSIS_CHECKS.pop(name, None)


def analysis_check_names() -> Tuple[str, ...]:
    """Every registered analysis check name, sorted."""
    _ensure_analysis_builtins()
    return tuple(sorted(_ANALYSIS_CHECKS))


def get_analysis_check(name: str) -> Callable:
    """The analysis check registered under ``name``."""
    _ensure_analysis_builtins()
    try:
        return _ANALYSIS_CHECKS[name]
    except KeyError:
        raise RegistryError(
            f"unknown analysis check {name!r}; expected one of "
            f"{', '.join(map(repr, analysis_check_names()))}"
        ) from None


def unregister_detector(name: str) -> None:
    """Remove a registered detector (primarily for tests)."""
    _DETECTORS.pop(name, None)


def unregister_repairer(name: str) -> None:
    """Remove a registered repair engine (primarily for tests)."""
    _REPAIRERS.pop(name, None)


def detector_names() -> Tuple[str, ...]:
    """Every registered detection backend name, sorted."""
    _ensure_builtins()
    return tuple(sorted(_DETECTORS))


def repairer_names() -> Tuple[str, ...]:
    """Every registered repair engine name, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REPAIRERS))


def get_detector(name: str) -> Callable:
    """The detection backend registered under ``name`` (not ``"auto"``)."""
    _ensure_builtins()
    try:
        return _DETECTORS[name]
    except KeyError:
        raise RegistryError(
            f"unknown detection method {name!r}; expected one of "
            f"{', '.join(map(repr, detector_names() + (AUTO,)))}"
        ) from None


def get_repairer(name: str) -> Callable:
    """The repair engine factory registered under ``name`` (not ``"auto"``)."""
    _ensure_builtins()
    try:
        return _REPAIRERS[name]
    except KeyError:
        raise RegistryError(
            f"unknown repair method {name!r}; expected one of "
            f"{', '.join(map(repr, repairer_names() + (AUTO,)))}"
        ) from None


# ---------------------------------------------------------------------------
# automatic backend selection
# ---------------------------------------------------------------------------
def _workload_cells(relation: Relation, cfds: Sequence[CFD]) -> int:
    patterns = sum(len(cfd.tableau) for cfd in cfds)
    return len(relation) * max(1, patterns)


def select_detection_method(relation: Relation, cfds: Sequence[CFD]) -> str:
    """The backend ``method="auto"`` resolves to for this detection workload.

    The oracle scans the relation once per pattern tuple — ``O(rows x
    patterns)`` — so on small products it beats paying the partition-map
    build; past :data:`AUTO_CELL_THRESHOLD` the indexed backend's one
    grouping pass per distinct LHS set wins; past
    :data:`PARALLEL_AUTO_ROW_THRESHOLD` rows the workload is sharded over a
    process pool.
    """
    if len(relation) > PARALLEL_AUTO_ROW_THRESHOLD:
        return "parallel"
    if _workload_cells(relation, cfds) <= AUTO_CELL_THRESHOLD:
        return "inmemory"
    return "indexed"


def select_repair_method(relation: Relation, cfds: Sequence[CFD]) -> str:
    """The engine ``method="auto"`` resolves to for this repair workload.

    Small products re-detect from scratch cheaply (over partition indexes);
    large ones amortise the one-off ingest of the delta-maintained
    incremental state across passes; past
    :data:`PARALLEL_AUTO_ROW_THRESHOLD` rows whole equivalence classes are
    repaired concurrently in a process pool.
    """
    if len(relation) > PARALLEL_AUTO_ROW_THRESHOLD:
        return "parallel"
    if _workload_cells(relation, cfds) <= AUTO_CELL_THRESHOLD:
        return "indexed"
    return "incremental"


def resolve_detector(
    method: str, relation: Optional[Relation] = None, cfds: Sequence[CFD] = ()
) -> Tuple[str, Callable]:
    """Resolve ``method`` (possibly ``"auto"``) to ``(name, backend)``.

    ``"auto"`` requires ``relation`` so the workload shape can be inspected.
    """
    if method == AUTO:
        if relation is None:
            raise RegistryError('method="auto" needs the relation to pick a backend')
        method = select_detection_method(relation, cfds)
    return method, get_detector(method)


def resolve_repairer(
    method: str, relation: Optional[Relation] = None, cfds: Sequence[CFD] = ()
) -> Tuple[str, Callable]:
    """Resolve ``method`` (possibly ``"auto"``) to ``(name, engine factory)``."""
    if method == AUTO:
        if relation is None:
            raise RegistryError('method="auto" needs the relation to pick a backend')
        method = select_repair_method(relation, cfds)
    return method, get_repairer(method)
