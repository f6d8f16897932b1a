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
``repro.repair.heuristic`` registers ``scan``/``incremental``;
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

from typing import Callable, Dict, Optional, Sequence, Tuple, TypeVar

from repro.config import AUTO
from repro.core.cfd import CFD
from repro.errors import RegistryError
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation

_Backend = TypeVar("_Backend", bound=Callable)

_DETECTORS: Dict[str, Callable] = {}
_REPAIRERS: Dict[str, Callable] = {}
_ANALYSIS_CHECKS: Dict[str, Callable] = {}

#: Detection workload size (rows x pattern tuples) below which the in-memory
#: oracle's full scans beat building partition maps.
AUTO_CELL_THRESHOLD = 50_000

#: Built-in detection backends whose hot loops consume the columnar code
#: protocol; dispatch hands them the relation in the configured storage
#: (:func:`apply_storage`).  Every other detector reads the storage it is
#: handed: the oracle reads ``attrs(φ)`` once per CFD through
#: :meth:`~repro.relation.relation.Relation.project_rows`, and the SQL
#: loader iterates the rows of any storage once.
COLUMNAR_DETECTORS = frozenset({"indexed", "parallel"})

#: Built-in repair engines whose detection layer is columnar-capable.  The
#: scan engine is the row-semantics correctness baseline and stays on rows.
COLUMNAR_REPAIRERS = frozenset({"incremental", "parallel"})


def apply_storage(
    relation: Relation,
    storage: str,
    columnar_capable: bool,
    spill_dir: Optional[str] = None,
) -> Relation:
    """The relation in the storage layer the resolved backend should see.

    ``storage`` is a config's storage name
    (:attr:`repro.config.EngineConfig.storage`).  Columnar-capable backends
    compute over codes only, so they always get a
    :class:`~repro.relation.columnar.ColumnStore`: ``"mmap"`` spills the
    code columns to memory-mapped files under ``spill_dir``, and a
    :class:`~repro.relation.mmap_store.MmapColumnStore` passes a
    ``"columnar"`` request through unchanged — it *is* a column store, and
    decoding it back into memory would defeat the out-of-core point.
    The row-reading ``scan`` repair engine gets materialised rows: one
    decode pass here is far cheaper than the per-cell reads and writes its
    passes would otherwise pay against an encoded relation.  Detection
    dispatch calls this for :data:`COLUMNAR_DETECTORS` only.  When no
    conversion is needed the relation is returned as-is (callers that must
    not share state copy afterwards, as :func:`repro.repair.heuristic.repair`
    does).
    """
    if not columnar_capable:
        if isinstance(relation, ColumnStore):
            return Relation.from_validated_rows(relation.schema, relation)
        return relation
    if storage == "mmap" and not isinstance(relation, MmapColumnStore):
        return MmapColumnStore.from_relation(relation, spill_dir=spill_dir)
    if not isinstance(relation, ColumnStore):
        return ColumnStore.from_relation(relation)
    return relation


def apply_kernel(kernel: Optional[str]):
    """Context manager activating the kernel a resolved backend should use.

    The kernel counterpart of :func:`apply_storage`: ``kernel`` is a
    config's kernel name (:attr:`repro.config.EngineConfig.kernel`, possibly
    ``"auto"``).  Dispatch sites wrap their backend call in it so every
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

    The oracle scans the relation once per constant-LHS mask, with a dict
    lookup per row — ``O(rows x masks + patterns)`` — so on small products
    it beats paying the partition-map build; past
    :data:`AUTO_CELL_THRESHOLD` the indexed backend's one grouping pass per
    distinct LHS set wins, at every size.

    ``auto`` never picks the sharded ``parallel`` backend, however large the
    relation: it stays an explicit method.  Measured on a 2-CPU host, its
    shard planning, spill, pool start-up and IPC cost more than the serial
    work they split (ROADMAP item 1's table: parallel detection 3–7× slower
    than ``indexed`` from 160K to 1M rows).  On the 160K-row input of the
    ``fd-clean`` benchmark workload, a 2-worker, 2-shard parallel clean
    took 1.74–1.80 s (detect 0.67–0.71 s) against 1.06–1.13 s (detect
    0.20 s) for ``indexed`` + ``incremental``, with the same 4,353 changes
    at the same cost.
    """
    if _workload_cells(relation, cfds) <= AUTO_CELL_THRESHOLD:
        return "inmemory"
    return "indexed"


def select_repair_method(relation: Relation, cfds: Sequence[CFD]) -> str:
    """The engine ``method="auto"`` resolves to for this repair workload.

    Always the delta-maintained ``incremental`` state.  It beats the
    sharded ``parallel`` engine at every size measured on a 2-CPU host
    (ROADMAP item 1's table; on the 160K-row ``fd-clean`` input, repair
    took 0.34–0.37 s against 0.48 s sharded, with the same changes at the
    same cost), so ``parallel`` stays an explicit method.
    """
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
