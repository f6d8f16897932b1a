"""Typed configuration objects for the cleaning pipeline.

:class:`DetectionConfig` and :class:`RepairConfig` replace the loose
``method=``/``strategy=``/``form=`` keyword soup that used to be threaded
through :func:`repro.detection.engine.detect_violations` and
:func:`repro.repair.heuristic.repair`.  Both are frozen dataclasses that
validate themselves on construction, so an impossible combination —
``strategy="merged"`` with the in-memory backend, say — fails loudly at
config-build time instead of being silently ignored deep in a backend.

The execution knobs the two stages share (``method``, ``workers``,
``shard_count``, ``storage``, ``kernel``, ``spill_dir``) are declared once,
on :class:`EngineConfig`.  Each knob has exactly one way to be set: its
keyword.  No environment variable changes a default; the one variable read
at all, ``REPRO_SPILL_DIR``, names a deployment path
(:func:`repro.relation.mmap_store.resolve_spill_base`).

The backend names are a closed set, one tuple per stage
(:data:`DETECTION_BACKENDS`, :data:`REPAIR_BACKENDS`), so an unknown
``method`` fails here too; ``"auto"`` is resolved to one of them at
dispatch time by :mod:`repro.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, TypeVar

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.repair.cost import CostModel

#: Sentinel method name meaning "pick a backend per workload".
AUTO = "auto"

#: Name of the sharded process-pool backend (a method of both stages).
PARALLEL = "parallel"

#: Every detection backend (:data:`repro.detection.engine.DETECTORS`):
#: the §4 SQL queries, the pure-Python oracle, the partition-index engine
#: and its sharded variant.
DETECTION_BACKENDS = ("indexed", "inmemory", PARALLEL, "sql")

#: Every repair engine (:data:`repro.repair.heuristic.REPAIRERS`).
REPAIR_BACKENDS = ("incremental", PARALLEL, "scan")

#: SQL WHERE-clause formulations accepted by the SQL backend.
SQL_FORMS = ("cnf", "dnf")

#: Query strategies accepted by the SQL backend.
SQL_STRATEGIES = ("per_cfd", "merged")

#: Storage layers the columnar-capable engines compute over: ``"columnar"``
#: is the dictionary-encoded :class:`~repro.relation.columnar.ColumnStore`,
#: and ``"mmap"`` the disk-backed
#: :class:`~repro.relation.mmap_store.MmapColumnStore`, whose code columns
#: live in memory-mapped spill files so 1M–10M-row relations clean within a
#: bounded memory budget.  Both produce byte-identical output; they differ
#: only in resident memory.
STORAGES = ("columnar", "mmap")

#: The storage the columnar-capable engines use when nothing pins one.
DEFAULT_STORAGE = "columnar"

#: Compute kernels the code-column hot loops can run on: ``"python"`` is the
#: always-available pure-Python reference, ``"numpy"`` the vectorised layer
#: (requires the optional ``[fast]`` extra).  Every kernel produces
#: byte-identical violations and repairs; they differ only in speed.
KERNELS = ("python", "numpy")

#: The kernel used when nothing pins one: ``"auto"`` resolves to ``"numpy"``
#: when numpy is importable and degrades to ``"python"`` otherwise.
DEFAULT_KERNEL = AUTO

#: Pre-flight static-analysis levels for the pipeline gate
#: (``Cleaner(analysis=...)``, see :class:`repro.pipeline.Cleaner`):
#: ``"strict"`` refuses to clean when the rule set has error-severity
#: diagnostics, ``"warn"`` surfaces findings as
#: :class:`~repro.analysis.AnalysisWarning` warnings and proceeds, and
#: ``"off"`` skips the pass entirely.  The gate runs the cheap structural and
#: consistency checks only (``deep=False``) — its cost depends on the rule
#: set, never on the data.
ANALYSIS_LEVELS = ("strict", "warn", "off")

_Config = TypeVar("_Config", bound="EngineConfig")


def check_choice(what: str, value: Any, allowed: Sequence[str]) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``value`` is in ``allowed``."""
    if value not in allowed:
        raise ConfigError(
            f"unknown {what} {value!r}; expected one of "
            f"{', '.join(map(repr, allowed))}"
        )


def resolve_storage(storage: Optional[str]) -> Optional[str]:
    """Validate a storage name; ``None`` (keep the source's layout) passes.

    Unknown names raise :class:`~repro.errors.ConfigError`.
    """
    if storage is not None:
        check_choice("storage", storage, STORAGES)
    return storage


def validate_kernel(kernel: str) -> None:
    """Reject kernel names outside ``python``/``numpy``/``auto``.

    Name validation only: whether ``"numpy"`` is actually importable is
    checked at dispatch time (:func:`repro.kernels.resolve_kernel_name`), so
    a config naming an uninstalled kernel fails when something tries to
    *compute* with it, with a message that says how to install it.
    """
    check_choice("kernel", kernel, KERNELS + (AUTO,))


@dataclass(frozen=True)
class EngineConfig:
    """The execution knobs detection and repair share.

    Parameters
    ----------
    method:
        Name of a backend of the stage, or ``"auto"`` (default) to pick one
        from the workload shape.
    workers, shard_count:
        Parallel-only knobs: they take effect with ``method="parallel"``
        and are accepted, then dropped, on ``"auto"`` (which resolves to a
        serial backend): worker processes in the pool (default: one per CPU)
        and shards to split the relation into (default: the worker count).
        Setting either with any other concrete backend raises
        :class:`~repro.errors.ConfigError` — a serial backend would silently
        ignore them.
    storage:
        Storage layer the columnar-capable backends hold the relation in:
        ``"columnar"`` (default, the dictionary-encoded
        :class:`~repro.relation.columnar.ColumnStore`) or ``"mmap"`` (the
        disk-backed :class:`~repro.relation.mmap_store.MmapColumnStore` for
        out-of-core workloads).  Outputs are byte-identical either way.
    kernel:
        Compute kernel for the code-column hot loops (grouping, ``Q^C``/
        ``Q^V`` checks): ``"python"`` (the pure-Python reference),
        ``"numpy"`` (the vectorised layer, requires the ``[fast]`` extra) or
        ``"auto"`` (default: numpy when importable, python otherwise).
        Outputs are byte-identical across kernels.
    spill_dir:
        Base directory for the ``"mmap"`` storage's and the parallel
        backends' spill files (per-run subdirectories are created inside
        it).  ``None`` (default) defers to the ``REPRO_SPILL_DIR``
        environment variable, then to the system temp directory.  Runs under
        an explicit base are preserved on crash for debugging; see
        ``docs/out_of_core.md``.
    """

    method: str = AUTO
    workers: Optional[int] = None
    shard_count: Optional[int] = None
    storage: str = DEFAULT_STORAGE
    kernel: str = DEFAULT_KERNEL
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        check_choice("storage", self.storage, STORAGES)
        validate_kernel(self.kernel)
        # The parallel values are range-checked here: dispatch never sees them.
        for name, value in (
            ("workers", self.workers),
            ("shard_count", self.shard_count),
        ):
            if value is None:
                continue
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
            if self.method not in (PARALLEL, AUTO):
                raise ConfigError(
                    f"{name}={value!r} only applies to the parallel backend, "
                    f"not method={self.method!r}"
                )

    def with_method(self: _Config, method: str) -> _Config:
        """A copy with ``method`` pinned (used after ``"auto"`` resolution).

        Pinning ``"auto"`` to a serial backend drops the parallel-only knobs:
        they are legal against ``"auto"`` but would fail validation against
        the concrete serial method.
        """
        if method == self.method:
            return self
        if method != PARALLEL:
            return replace(self, method=method, workers=None, shard_count=None)
        return replace(self, method=method)

    def summary(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "workers": self.workers,
            "shard_count": self.shard_count,
            "storage": self.storage,
            "kernel": self.kernel,
            "spill_dir": self.spill_dir,
        }


@dataclass(frozen=True)
class DetectionConfig(EngineConfig):
    """How violation detection should run.

    Takes the shared execution knobs of :class:`EngineConfig`; ``method``
    names a detection backend (one of :data:`DETECTION_BACKENDS`) or
    ``"auto"``, which picks from the relation size and CFD count.

    Parameters
    ----------
    strategy, form:
        SQL-only knobs (Section 4 of the paper): the per-CFD vs merged query
        scheme and the CNF vs DNF WHERE-clause formulation.  Setting either
        requires ``method="sql"`` (``"auto"`` never resolves to the SQL
        backend) — anything else raises :class:`~repro.errors.ConfigError`,
        replacing the old silent-ignore behaviour of the keyword API.
    expand_variable_violations:
        SQL-only: run the extra expansion query mapping violating groups back
        to tuple indices (disabled by the benchmarks to time exactly the
        paper's query pair).

    >>> DetectionConfig(method="sql", strategy="merged").effective_strategy
    'merged'
    >>> DetectionConfig(method="indexed", form="cnf")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigError: form='cnf' only applies to the SQL backend, not method='indexed'
    """

    strategy: Optional[str] = None
    form: Optional[str] = None
    expand_variable_violations: bool = True

    def __post_init__(self) -> None:
        check_choice("detection method", self.method, DETECTION_BACKENDS + (AUTO,))
        super().__post_init__()
        for what, value, allowed in (
            ("SQL strategy", self.strategy, SQL_STRATEGIES),
            ("SQL form", self.form, SQL_FORMS),
        ):
            if value is not None:
                check_choice(what, value, allowed)
        for name, value in (("strategy", self.strategy), ("form", self.form)):
            if value is not None and self.method != "sql":
                raise ConfigError(
                    f"{name}={value!r} only applies to the SQL backend, "
                    f"not method={self.method!r}"
                )

    @property
    def effective_strategy(self) -> str:
        """The SQL strategy with the default applied."""
        return self.strategy if self.strategy is not None else "per_cfd"

    @property
    def effective_form(self) -> str:
        """The SQL form with the default applied."""
        return self.form if self.form is not None else "dnf"

    def summary(self) -> Dict[str, Any]:
        return {**super().summary(), "strategy": self.strategy, "form": self.form}


@dataclass(frozen=True)
class RepairConfig(EngineConfig):
    """How the repair loop should run.

    Takes the shared execution knobs of :class:`EngineConfig`; ``method``
    names a repair engine (one of :data:`REPAIR_BACKENDS`) or ``"auto"``,
    which picks from the relation size.  Every engine produces the identical
    repair; they differ only in speed.  The repaired relation comes back in
    the configured ``storage``; its rows are byte-identical either way.

    Parameters
    ----------
    max_passes:
        Budget of detect-fix passes before the loop gives up.
    check_consistency:
        Verify the CFD set is consistent before repairing (an inconsistent
        set has no repair at all).
    cost_model:
        The value-modification cost model; defaults to unit weights.

    >>> RepairConfig(max_passes=0)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigError: max_passes must be at least 1, got 0
    """

    max_passes: int = 25
    check_consistency: bool = True
    cost_model: Optional[CostModel] = None

    def __post_init__(self) -> None:
        check_choice("repair method", self.method, REPAIR_BACKENDS + (AUTO,))
        super().__post_init__()
        if self.max_passes < 1:
            raise ConfigError(f"max_passes must be at least 1, got {self.max_passes}")

    def summary(self) -> Dict[str, Any]:
        return {
            **super().summary(),
            "max_passes": self.max_passes,
            "check_consistency": self.check_consistency,
        }
