"""Typed configuration objects for the cleaning pipeline.

:class:`DetectionConfig` and :class:`RepairConfig` replace the loose
``method=``/``strategy=``/``form=`` keyword soup that used to be threaded
through :func:`repro.detection.engine.detect_violations` and
:func:`repro.repair.heuristic.repair`.  Both are frozen dataclasses that
validate themselves on construction, so an impossible combination —
``strategy="merged"`` with the in-memory backend, say — fails loudly at
config-build time instead of being silently ignored deep in a backend.

Backend *names* are not validated here (the registry owns the set of names,
including ones registered by user code); they are resolved by
:mod:`repro.registry` at dispatch time.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.repair.cost import CostModel

#: Sentinel method name meaning "let the registry pick a backend per workload".
AUTO = "auto"

#: Name of the sharded process-pool backend (registered for both kinds).
PARALLEL = "parallel"

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

#: Retired storage names and what they resolve to.  ``"rows"`` selected a
#: row-value engine path that no longer exists; the row-reading oracle
#: backends (``inmemory``, ``sql``, ``scan``) are the cross-check now.
DEPRECATED_STORAGES = {"rows": "columnar"}

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
#: (:meth:`repro.pipeline.Cleaner.clean`): ``"strict"`` refuses to clean when
#: the rule set has error-severity diagnostics, ``"warn"`` surfaces findings
#: as :class:`~repro.analysis.AnalysisWarning` warnings and proceeds, and
#: ``"off"`` skips the pass entirely.  The gate runs the cheap structural and
#: consistency checks only (``deep=False``) — its cost depends on the rule
#: set, never on the data.
ANALYSIS_LEVELS = ("strict", "warn", "off")

#: The analysis level used when nothing pins one.  ``"warn"`` never changes
#: cleaning results (warnings do not block), and the repair path already
#: checks consistency by default — pre-flighting it merely fails *earlier*.
DEFAULT_ANALYSIS = "warn"


def storage_from_env(default: str = DEFAULT_STORAGE) -> str:
    """The storage layer named by ``REPRO_STORAGE``, falling back on garbage.

    Exporting ``REPRO_STORAGE=mmap`` pins every config that did not set
    ``storage=`` explicitly to the out-of-core layer.  Read at every
    resolution (not at import), and forgiving like ``REPRO_BENCH_SCALE`` —
    an unknown value keeps the default rather than crashing whatever
    imported us.  A deprecated name resolves as in
    :func:`resolve_storage`.
    """
    raw = os.environ.get("REPRO_STORAGE")
    if not raw:
        return default
    value = raw.strip().lower()
    if value in STORAGES or value in DEPRECATED_STORAGES:
        return resolve_storage(value)
    return default


def resolve_storage(storage: Optional[str]) -> Optional[str]:
    """Validate a storage name, resolving a deprecated one.

    A name in :data:`DEPRECATED_STORAGES` emits a :class:`DeprecationWarning`
    and returns its replacement.  The warning is raised from one place, so
    Python's default filter shows it once per process however many configs
    name the alias.  Unknown names raise :class:`~repro.errors.ConfigError`.
    """
    replacement = DEPRECATED_STORAGES.get(storage)
    if replacement is not None:
        warnings.warn(
            f"storage={storage!r} is deprecated and resolves to "
            f"{replacement!r}: the engines compute over dictionary codes only",
            DeprecationWarning,
            stacklevel=1,
        )
        return replacement
    if storage is not None and storage not in STORAGES:
        raise ConfigError(
            f"unknown storage {storage!r}; expected one of "
            f"{', '.join(map(repr, STORAGES))}"
        )
    return storage


def kernel_from_env(default: str = DEFAULT_KERNEL) -> str:
    """The kernel named by ``REPRO_KERNEL``, falling back on garbage.

    Mirrors :func:`storage_from_env`: read at every resolution (not at
    import) and forgiving — an unknown value keeps the default rather than
    crashing whatever imported us.  The returned name may be ``"auto"``;
    :func:`repro.kernels.resolve_kernel_name` turns it into a concrete
    kernel from what is importable.
    """
    raw = os.environ.get("REPRO_KERNEL")
    if not raw:
        return default
    value = raw.strip().lower()
    return value if value in KERNELS + (AUTO,) else default


def validate_kernel(kernel: Optional[str]) -> None:
    """Reject kernel names outside ``python``/``numpy``/``auto``.

    Name validation only: whether ``"numpy"`` is actually importable is
    checked at dispatch time (:func:`repro.kernels.resolve_kernel_name`), so
    a config naming an uninstalled kernel fails when something tries to
    *compute* with it, with a message that says how to install it.
    """
    if kernel is not None and kernel not in KERNELS + (AUTO,):
        raise ConfigError(
            f"unknown kernel {kernel!r}; expected one of "
            f"{', '.join(map(repr, KERNELS + (AUTO,)))}"
        )


def analysis_from_env(default: str = DEFAULT_ANALYSIS) -> str:
    """The analysis level named by ``REPRO_ANALYSIS``, falling back on garbage.

    Mirrors :func:`storage_from_env`: read at every resolution (not at
    import) and forgiving — an unknown value keeps the default rather than
    crashing whatever imported us.  Exporting ``REPRO_ANALYSIS=strict``
    turns every cleaning run that did not set ``analysis=`` explicitly into
    a gated one; ``REPRO_ANALYSIS=off`` pins the pre-PR-8 behaviour.
    """
    raw = os.environ.get("REPRO_ANALYSIS")
    if not raw:
        return default
    value = raw.strip().lower()
    return value if value in ANALYSIS_LEVELS else default


def validate_analysis(analysis: Optional[str]) -> None:
    if analysis is not None and analysis not in ANALYSIS_LEVELS:
        raise ConfigError(
            f"unknown analysis level {analysis!r}; expected one of "
            f"{', '.join(map(repr, ANALYSIS_LEVELS))}"
        )


def strictest_analysis(*levels: str) -> str:
    """The strictest of several effective analysis levels.

    The pipeline gate honours whichever of the detection and repair configs
    asks for more scrutiny: ``strict`` beats ``warn`` beats ``off``.
    """
    order = {level: rank for rank, level in enumerate(ANALYSIS_LEVELS)}
    return min(levels, key=lambda level: order[level])


def _validate_parallel_knobs(
    method: str, workers: Optional[int], shard_count: Optional[int]
) -> None:
    """Shared validation of the ``workers``/``shard_count`` pair.

    The knobs only take effect with ``method="parallel"``.  They are also
    accepted on ``"auto"``, which drops them when it resolves to a serial
    backend (see :meth:`DetectionConfig.with_method`), so one config can
    name them whatever the method.  Unlike the SQL knobs, values are
    range-checked here — the registry never sees them.
    """
    for name, value in (("workers", workers), ("shard_count", shard_count)):
        if value is None:
            continue
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
        if method not in ("parallel", AUTO):
            raise ConfigError(
                f"{name}={value!r} only applies to the parallel backend, "
                f"not method={method!r}"
            )


def _validate_memory_budget(memory_budget_mb: Optional[int]) -> None:
    if memory_budget_mb is not None and memory_budget_mb < 1:
        raise ConfigError(
            f"memory_budget_mb must be at least 1, got {memory_budget_mb}"
        )


@dataclass(frozen=True)
class DetectionConfig:
    """How violation detection should run.

    Parameters
    ----------
    method:
        Name of a registered detection backend (``"inmemory"``, ``"sql"``,
        ``"indexed"``, or anything registered via
        :func:`repro.registry.register_detector`), or ``"auto"`` (default) to
        let the registry pick from the relation size and CFD count.
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
    workers, shard_count:
        Parallel-only knobs: they take effect with ``method="parallel"``
        and are accepted, then dropped, on ``"auto"`` (which resolves to a
        serial backend): worker processes in the pool (default: one per CPU)
        and shards to split the relation into (default: the worker count).
        Setting either with any other concrete backend raises
        :class:`~repro.errors.ConfigError` — a serial backend would silently
        ignore them.
    storage:
        Storage layer the columnar-capable backends (indexed, parallel) hold
        the relation in: ``"columnar"`` (dictionary-encoded
        :class:`~repro.relation.columnar.ColumnStore`) or ``"mmap"`` (the
        disk-backed :class:`~repro.relation.mmap_store.MmapColumnStore` for
        out-of-core workloads).  ``None`` (default) defers to the
        ``REPRO_STORAGE`` environment variable, then to ``"columnar"``.
        Outputs are byte-identical either way.  ``"rows"`` is a deprecated
        alias of ``"columnar"`` (see :func:`resolve_storage`).
    spill_dir:
        Base directory for the ``"mmap"`` storage's spill files (per-run
        subdirectories are created inside it).  ``None`` (default) defers to
        the ``REPRO_SPILL_DIR`` environment variable, then to the system
        temp directory.  Runs under an explicit base are preserved on crash
        for debugging; see ``docs/out_of_core.md``.
    memory_budget_mb:
        Soft resident-memory budget for out-of-core runs: sizes the chunked
        ingestion buffers of the ``"mmap"`` storage
        (:func:`repro.relation.mmap_store.chunk_rows_for_budget`).  ``None``
        (default) uses the fixed default chunk size.
    kernel:
        Compute kernel for the code-column hot loops (grouping, ``Q^C``/
        ``Q^V`` checks): ``"python"`` (the pure-Python reference),
        ``"numpy"`` (the vectorised layer, requires the ``[fast]`` extra) or
        ``"auto"`` (numpy when importable, python otherwise).  ``None``
        (default) defers to the ``REPRO_KERNEL`` environment variable, then
        to ``"auto"``.  Kernels only matter on columnar storage; outputs are
        byte-identical across kernels.
    analysis:
        Pre-flight static-analysis level for the pipeline gate:
        ``"strict"`` (refuse to clean a rule set with error-severity
        diagnostics, raising :class:`~repro.errors.AnalysisError` with the
        report before any detection work), ``"warn"`` (surface findings as
        warnings and proceed) or ``"off"``.  ``None`` (default) defers to
        the ``REPRO_ANALYSIS`` environment variable, then to ``"warn"``.
        The gate never changes cleaning *results* — only whether a doomed
        run starts at all.

    >>> DetectionConfig(method="sql", strategy="merged").effective_strategy
    'merged'
    >>> DetectionConfig(method="indexed", form="cnf")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigError: form='cnf' only applies to the SQL backend, not method='indexed'
    """

    method: str = AUTO
    strategy: Optional[str] = None
    form: Optional[str] = None
    expand_variable_violations: bool = True
    workers: Optional[int] = None
    shard_count: Optional[int] = None
    storage: Optional[str] = None
    kernel: Optional[str] = None
    spill_dir: Optional[str] = None
    memory_budget_mb: Optional[int] = None
    analysis: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "storage", resolve_storage(self.storage))
        validate_kernel(self.kernel)
        validate_analysis(self.analysis)
        _validate_memory_budget(self.memory_budget_mb)
        if self.strategy is not None and self.strategy not in SQL_STRATEGIES:
            raise ConfigError(
                f"unknown SQL strategy {self.strategy!r}; expected one of "
                f"{', '.join(map(repr, SQL_STRATEGIES))}"
            )
        if self.form is not None and self.form not in SQL_FORMS:
            raise ConfigError(
                f"unknown SQL form {self.form!r}; expected one of "
                f"{', '.join(map(repr, SQL_FORMS))}"
            )
        for name, value in (("strategy", self.strategy), ("form", self.form)):
            if value is not None and self.method != "sql":
                raise ConfigError(
                    f"{name}={value!r} only applies to the SQL backend, "
                    f"not method={self.method!r}"
                )
        _validate_parallel_knobs(self.method, self.workers, self.shard_count)

    @property
    def effective_strategy(self) -> str:
        """The SQL strategy with the default applied."""
        return self.strategy if self.strategy is not None else "per_cfd"

    @property
    def effective_form(self) -> str:
        """The SQL form with the default applied."""
        return self.form if self.form is not None else "dnf"

    @property
    def effective_storage(self) -> str:
        """The storage layer with ``REPRO_STORAGE`` and the default applied."""
        return self.storage if self.storage is not None else storage_from_env()

    @property
    def effective_kernel(self) -> str:
        """The kernel with ``REPRO_KERNEL`` and the default applied.

        May still be ``"auto"``; the concrete kernel is picked at dispatch
        time from what is importable (:func:`repro.kernels.resolve_kernel_name`).
        """
        return self.kernel if self.kernel is not None else kernel_from_env()

    @property
    def effective_analysis(self) -> str:
        """The analysis level with ``REPRO_ANALYSIS`` and the default applied."""
        return self.analysis if self.analysis is not None else analysis_from_env()

    def with_method(self, method: str) -> DetectionConfig:
        """A copy with ``method`` pinned (used after ``"auto"`` resolution).

        Pinning ``"auto"`` to a serial backend drops the parallel-only knobs:
        they are legal against ``"auto"`` but would fail validation against
        the concrete serial method.
        """
        if method == self.method:
            return self
        if method != "parallel":
            return replace(self, method=method, workers=None, shard_count=None)
        return replace(self, method=method)

    def summary(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "strategy": self.strategy,
            "form": self.form,
            "workers": self.workers,
            "shard_count": self.shard_count,
            "storage": self.storage,
            "kernel": self.kernel,
            "spill_dir": self.spill_dir,
            "memory_budget_mb": self.memory_budget_mb,
            "analysis": self.analysis,
        }


@dataclass(frozen=True)
class RepairConfig:
    """How the repair loop should run.

    Parameters
    ----------
    method:
        Name of a registered repair engine (``"scan"``, ``"incremental"``,
        ``"parallel"``, or anything registered via
        :func:`repro.registry.register_repairer`), or ``"auto"`` (default) to
        let the registry pick from the relation size.  Every
        engine produces the identical repair; they differ only in speed.
    max_passes:
        Budget of detect-fix passes before the loop gives up.
    check_consistency:
        Verify the CFD set is consistent before repairing (an inconsistent
        set has no repair at all).
    cost_model:
        The value-modification cost model; defaults to unit weights.
    workers, shard_count:
        Parallel-only knobs: worker processes repairing shards concurrently
        and shards to split the relation into.  Same validation, and the
        same acceptance on ``"auto"``, as on :class:`DetectionConfig`.
    storage:
        Storage layer the columnar-capable engines (incremental, parallel)
        repair over — same semantics and default chain
        (``REPRO_STORAGE``, then ``"columnar"``) as on
        :class:`DetectionConfig`, including the out-of-core ``"mmap"``
        layer.  The repaired relation comes back in this storage; its rows
        are byte-identical either way.
    spill_dir, memory_budget_mb:
        Out-of-core knobs for the ``"mmap"`` storage — same semantics as on
        :class:`DetectionConfig`.
    kernel:
        Compute kernel for the code-column hot loops — same semantics and
        default chain (``REPRO_KERNEL``, then ``"auto"``) as on
        :class:`DetectionConfig`.  Repairs are byte-identical across kernels.
    analysis:
        Pre-flight static-analysis level for the pipeline gate — same
        semantics and default chain (``REPRO_ANALYSIS``, then ``"warn"``)
        as on :class:`DetectionConfig`.  The gate honours the *strictest*
        of the two configs' levels.

    >>> RepairConfig(max_passes=0)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigError: max_passes must be at least 1, got 0
    """

    method: str = AUTO
    max_passes: int = 25
    check_consistency: bool = True
    cost_model: Optional[CostModel] = None
    workers: Optional[int] = None
    shard_count: Optional[int] = None
    storage: Optional[str] = None
    kernel: Optional[str] = None
    spill_dir: Optional[str] = None
    memory_budget_mb: Optional[int] = None
    analysis: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "storage", resolve_storage(self.storage))
        validate_kernel(self.kernel)
        validate_analysis(self.analysis)
        _validate_memory_budget(self.memory_budget_mb)
        if self.max_passes < 1:
            raise ConfigError(f"max_passes must be at least 1, got {self.max_passes}")
        _validate_parallel_knobs(self.method, self.workers, self.shard_count)

    def with_method(self, method: str) -> RepairConfig:
        """A copy with ``method`` pinned (used after ``"auto"`` resolution).

        As on :meth:`DetectionConfig.with_method`, pinning to a serial engine
        drops the parallel-only knobs instead of failing validation.
        """
        if method == self.method:
            return self
        if method != "parallel":
            return replace(self, method=method, workers=None, shard_count=None)
        return replace(self, method=method)

    @property
    def effective_storage(self) -> str:
        """The storage layer with ``REPRO_STORAGE`` and the default applied."""
        return self.storage if self.storage is not None else storage_from_env()

    @property
    def effective_kernel(self) -> str:
        """The kernel with ``REPRO_KERNEL`` and the default applied."""
        return self.kernel if self.kernel is not None else kernel_from_env()

    @property
    def effective_analysis(self) -> str:
        """The analysis level with ``REPRO_ANALYSIS`` and the default applied."""
        return self.analysis if self.analysis is not None else analysis_from_env()

    def summary(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "max_passes": self.max_passes,
            "check_consistency": self.check_consistency,
            "workers": self.workers,
            "shard_count": self.shard_count,
            "storage": self.storage,
            "kernel": self.kernel,
            "spill_dir": self.spill_dir,
            "memory_budget_mb": self.memory_budget_mb,
            "analysis": self.analysis,
        }
