"""Workload construction and timing helpers shared by the experiment drivers."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.core.violations import ViolationReport
from repro.datagen.cfd_catalog import experiment_cfd, experiment_cfd_set
from repro.datagen.generator import TaxRecordGenerator
from repro.detection.engine import DETECTION_METHODS
from repro.detection.indexed import IndexedDetector
from repro.errors import DetectionError
from repro.kernels import use_kernel
from repro.parallel.engine import find_violations_parallel
from repro.pipeline import Cleaner, CleaningResult
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation
from repro.repair.heuristic import RepairResult, repair
from repro.sql.engine import DetectionRun, SQLDetector

_T = TypeVar("_T")


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB: this process, or its reaped children.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; 0.0 on platforms
    without :mod:`resource` (Windows), so callers can stamp it
    unconditionally.  The counter is process-lifetime-monotone — comparing
    points *within* one process only shows growth, which is why the CI
    bounded-memory assertion runs the out-of-core series in a fresh process.
    With ``children=True`` the peak is over terminated child processes (the
    parallel engine's pool workers, reaped at pool shutdown).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes, not KB
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0


@dataclass
class DetectionWorkload:
    """A (relation, CFDs) pair ready to be timed."""

    relation: Relation
    cfds: List[CFD]
    label: str = ""

    def detector(self, build_indexes: bool = True) -> SQLDetector:
        """A fresh SQLite detector loaded with the workload's relation."""
        return SQLDetector(self.relation, build_indexes=build_indexes)


@lru_cache(maxsize=16)
def _cached_relation(size: int, noise: float, seed: int) -> Relation:
    """Generate (and cache) a tax-records relation; generation dominates setup cost."""
    return TaxRecordGenerator(size=size, noise=noise, seed=seed).generate_relation()


def build_workload(
    size: int,
    noise: float,
    seed: int,
    num_attrs: int = 3,
    tabsz: Optional[int] = 1_000,
    num_consts: float = 1.0,
    num_cfds: int = 1,
) -> DetectionWorkload:
    """Build a tax-records workload with the requested Section 5 knobs."""
    relation = _cached_relation(size, noise, seed)
    if num_cfds == 1:
        cfds = [experiment_cfd(num_attrs=num_attrs, tabsz=tabsz, num_consts=num_consts, seed=seed)]
    else:
        cfds = experiment_cfd_set(num_cfds=num_cfds, tabsz=tabsz, num_consts=num_consts, seed=seed)
    label = f"SZ={size} NOISE={noise:.0%} NUMATTRs={num_attrs} TABSZ={tabsz} NUMCONSTs={num_consts:.0%}"
    return DetectionWorkload(relation=relation, cfds=cfds, label=label)


def build_fd_workload(
    size: int,
    noise: float,
    seed: int,
    lhs: Tuple[str, ...] = ("ZIP", "MR", "CH"),
    rhs: Tuple[str, ...] = ("STX", "MTX", "CTX"),
) -> DetectionWorkload:
    """A tax-records workload constrained by a plain FD (one wildcard pattern).

    The pure-``Q^V`` regime: detection is one grouping pass over the LHS plus
    a disagreement check per partition, with no constant patterns anywhere —
    exactly the shape the kernel layer's fused scan targets.  The default FD
    is the exemption dependency keyed by zip code — zips determine states,
    so ``[ZIP, MR, CH] → [STX, MTX, CTX]`` holds on clean generated data and
    is violated only by injected noise.  Grouping by zip yields thousands of
    small partitions, the regime where per-partition interpreter overhead
    dominates the pure-python path.
    """
    relation = _cached_relation(size, noise, seed)
    cfd = CFD.build(
        list(lhs), list(rhs), [["_"] * (len(lhs) + len(rhs))], name="exemption_fd"
    )
    label = f"SZ={size} NOISE={noise:.0%} FD [{','.join(lhs)}] -> [{','.join(rhs)}]"
    return DetectionWorkload(relation=relation, cfds=[cfd], label=label)


def _median_timed(fn: Callable[[], _T], repeats: int) -> Tuple[float, _T]:
    """Median wall-clock of ``repeats`` calls to ``fn``, plus the last result."""
    durations: List[float] = []
    last: Optional[_T] = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        last = fn()
        durations.append(time.perf_counter() - start)
    durations.sort()
    assert last is not None
    return durations[len(durations) // 2], last


def time_detection(
    workload: DetectionWorkload,
    strategy: str = "per_cfd",
    form: str = "cnf",
    repeats: int = 1,
    build_indexes: bool = True,
) -> Tuple[float, DetectionRun]:
    """Median wall-clock detection time over ``repeats`` runs, plus the last run.

    Only the paper's query pair is timed (group-expansion queries are
    disabled); loading the relation and creating indexes is setup, exactly as
    in the paper where the data already sits in DB2.
    """
    detector = SQLDetector(workload.relation, build_indexes=build_indexes)
    try:
        return _median_timed(
            lambda: detector.detect(
                workload.cfds,
                strategy=strategy,
                form=form,
                expand_variable_violations=False,
            ),
            repeats,
        )
    finally:
        detector.close()


def time_backend(
    workload: DetectionWorkload,
    method: str,
    form: str = "dnf",
    repeats: int = 1,
) -> Tuple[float, ViolationReport]:
    """Median wall-clock detection time of one backend, plus the last report.

    ``"sql"`` times only the paper's query pair (loading and indexing are
    setup, as in :func:`time_detection`).  ``"inmemory"`` and ``"indexed"``
    have no setup phase: for the indexed backend, building the partition maps
    *is* the detection work, so each repeat starts from a cold cache.

    .. warning::
       The ``"sql"`` report is suitable for timing only: group expansion is
       disabled to time exactly the paper's query pair, so its variable
       violations carry empty ``tuple_indices`` and its ``violating_indices()``
       undercounts.  Compare reports between ``"inmemory"`` and ``"indexed"``
       only (as :func:`repro.bench.experiments.backend_ablation` does), or use
       :func:`repro.detection.engine.cross_check` for full agreement checks.
    """
    if method == "sql":
        seconds, run = time_detection(workload, form=form, repeats=repeats)
        return seconds, run.report
    if method not in DETECTION_METHODS:
        raise DetectionError(
            f"unknown benchmark backend {method!r}; expected one of "
            f"{', '.join(map(repr, DETECTION_METHODS))}"
        )
    if method == "inmemory":

        def run_once() -> ViolationReport:
            return find_all_violations(workload.relation, workload.cfds)

    else:

        def run_once() -> ViolationReport:
            return IndexedDetector(workload.relation).detect(workload.cfds)

    return _median_timed(run_once, repeats)


def time_repair(
    workload: DetectionWorkload,
    method: str,
    max_passes: int = 25,
    repeats: int = 1,
) -> Tuple[float, RepairResult]:
    """Median wall-clock of a full repair run with the given detection engine.

    Times the whole fixpoint loop — initial detection, every pass's fixes and
    re-checks — since the point of the incremental engine is precisely to
    collapse the re-check cost across passes.  ``repair`` copies the relation
    internally, so repeats are independent (and it validates ``method``
    itself); consistency checking is skipped because it is identical setup
    work for every method.
    """
    return _median_timed(
        lambda: repair(
            workload.relation,
            workload.cfds,
            max_passes=max_passes,
            check_consistency=False,
            method=method,
        ),
        repeats,
    )


def time_clean(
    workload: DetectionWorkload,
    detect_method: str = "indexed",
    repair_method: str = "incremental",
    max_passes: int = 25,
    repeats: int = 1,
) -> Tuple[float, CleaningResult]:
    """Median wall-clock of the full detect → repair → verify pipeline.

    Times everything :meth:`repro.pipeline.Cleaner.clean` does — ingest,
    initial detection, the whole repair fixpoint and the oracle-backed
    verification — since end-to-end cleaning throughput is what the pipeline
    experiment tracks.  The repair skips the consistency pre-check (identical
    setup work for every engine, as in :func:`time_repair`).
    """
    cleaner = Cleaner(
        detection=DetectionConfig(method=detect_method),
        repair=RepairConfig(
            method=repair_method, max_passes=max_passes, check_consistency=False
        ),
    )
    return _median_timed(
        lambda: cleaner.clean(workload.relation, workload.cfds), repeats
    )


def time_kernel_detection(
    workload: DetectionWorkload,
    kernel: str,
    repeats: int = 1,
) -> Tuple[float, ViolationReport]:
    """Median wall-clock of columnar indexed detection under one kernel.

    The relation is encoded *before* the timer starts — encoding happens
    once at ingestion in the pipeline, exactly as loading is setup for the
    SQL backend (the paper's data already sits in DB2).  Because
    :class:`ColumnStore` encodes lazily, the columns the CFDs mention are
    force-encoded here, so the timer sees what every later pass pays:
    building the partition maps and running the ``Q^C``/``Q^V`` checks, from
    a cold detector per repeat.  The *kernel* is the only variable between
    calls; every kernel produces the byte-identical report, so the returned
    reports can be compared directly.
    """
    store = ColumnStore.from_relation(workload.relation)
    for cfd in workload.cfds:
        for attribute in cfd.attributes:
            store.codes(attribute)

    def run_once() -> ViolationReport:
        with use_kernel(kernel):
            return IndexedDetector(store).detect(workload.cfds)

    return _median_timed(run_once, repeats)


def time_kernel_repair(
    workload: DetectionWorkload,
    kernel: str,
    method: str = "incremental",
    max_passes: int = 25,
    repeats: int = 1,
    shard_count: Optional[int] = None,
) -> Tuple[float, RepairResult]:
    """Median wall-clock of a columnar repair fixpoint under one kernel.

    The setup contract of :func:`time_kernel_detection`: the store is built
    and the constrained columns force-encoded before the timer, so the timer
    sees the fixpoint itself — initial violation discovery, every pass's
    fixes and incremental re-checks — never the one-off rows→columns encode
    (which is identical work for every kernel and would only dilute the
    ratio).  Each repeat repairs a fresh :meth:`ColumnStore.copy`, since the
    fixpoint mutates cells in place.  Every kernel produces the
    byte-identical :class:`RepairResult` change log, so results can be
    compared directly.  ``shard_count`` pins the shard plan of
    ``method="parallel"``.
    """
    store = ColumnStore.from_relation(workload.relation)
    for cfd in workload.cfds:
        for attribute in cfd.attributes:
            store.codes(attribute)
    config = RepairConfig(
        method=method,
        max_passes=max_passes,
        check_consistency=False,
        storage="columnar",
        kernel=kernel,
        shard_count=shard_count,
    )

    def run_once() -> RepairResult:
        return repair(store.copy(), workload.cfds, config=config)

    return _median_timed(run_once, repeats)


def time_parallel_detection(
    workload: DetectionWorkload,
    shard_count: Optional[int] = None,
    workers: Optional[int] = None,
    repeats: int = 1,
) -> Tuple[float, ViolationReport]:
    """Median wall-clock of sharded parallel detection, plus the last report.

    Everything is timed — planning and spilling the shards, dispatching
    them to the pool, per-shard detection and the merge — because that
    end-to-end cost is what competes against the serial backends.
    """
    return _median_timed(
        lambda: find_violations_parallel(
            workload.relation, workload.cfds, shard_count=shard_count, workers=workers
        ),
        repeats,
    )


def time_parallel_repair(
    workload: DetectionWorkload,
    shard_count: Optional[int] = None,
    workers: Optional[int] = None,
    max_passes: int = 25,
    repeats: int = 1,
) -> Tuple[float, RepairResult]:
    """Median wall-clock of a full sharded parallel repair run.

    Mirrors :func:`time_repair` (whole fixpoint, consistency pre-check
    skipped) with the pool geometry made explicit.
    """
    config = RepairConfig(
        method="parallel",
        max_passes=max_passes,
        check_consistency=False,
        shard_count=shard_count,
        workers=workers,
    )
    return _median_timed(
        lambda: repair(workload.relation, workload.cfds, config=config),
        repeats,
    )


def time_query_split(
    workload: DetectionWorkload,
    form: str = "dnf",
    repeats: int = 1,
) -> Dict[str, float]:
    """Split detection time between the ``Q^C`` and ``Q^V`` queries (Figure 9(c))."""
    _total, run = time_detection(workload, strategy="per_cfd", form=form, repeats=repeats)
    return {"qc": run.seconds_for("qc"), "qv": run.seconds_for("qv")}
