"""Timing helpers of the ablation benchmarks (not a test module).

The paper's Figure 9 series time the SQL query pair only, through
:func:`repro.bench.harness.time_detection`.  The ablations in this directory
time the engines the paper does not have — the in-process detection
backends, the repair fixpoint, the kernels, the sharded parallel engine and
the whole ``Cleaner`` pipeline — with the helpers below.  Every helper
returns the median wall-clock of ``repeats`` calls plus the last result, so
a test can time a run and check its answer in one go.

The speed gates time the engines against the seed baseline, the literal
per-pattern scan kept as the oracle's specification in
``tests/oracle_spec.py``: :data:`SEED_SCAN` is the name of that baseline in
:func:`time_backend` and :func:`time_repair`.
"""

from __future__ import annotations

from typing import Optional, Tuple
from unittest import mock

from repro.bench.harness import (
    DetectionWorkload,
    _cached_relation,
    _median_timed,
    time_detection,
)
from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.core.violations import ViolationReport
from repro.detection.engine import DETECTION_METHODS
from repro.detection.indexed import IndexedDetector
from repro.errors import DetectionError
from repro.kernels import use_kernel
from repro.parallel.engine import find_violations_parallel
from repro.pipeline import Cleaner, CleaningResult
from repro.relation.columnar import ColumnStore
from repro.repair.heuristic import RepairResult, repair
from tests.oracle_spec import find_all_violations as seed_scan_violations

#: The seed baseline: the per-pattern scan the oracle ran before it learned
#: to scan once per constant-LHS mask.  Not a registered backend.
SEED_SCAN = "seed-scan"


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
    the shape where the numpy kernel's whole-table class evaluation pays
    off most.  The default FD
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


def time_backend(
    workload: DetectionWorkload,
    method: str,
    form: str = "dnf",
    repeats: int = 1,
) -> Tuple[float, ViolationReport]:
    """Median wall-clock detection time of one backend, plus the last report.

    ``"sql"`` times only the paper's query pair (loading and indexing are
    setup, as in :func:`~repro.bench.harness.time_detection`).  ``"inmemory"``
    and ``"indexed"`` have no setup phase: for the indexed backend, building
    the partition maps *is* the detection work, so each repeat starts from a
    cold cache.  :data:`SEED_SCAN` times the oracle's specification, which
    scans the relation once per pattern tuple.

    .. warning::
       The ``"sql"`` report is suitable for timing only: group expansion is
       disabled to time exactly the paper's query pair, so its variable
       violations carry empty ``tuple_indices`` and its ``violating_indices()``
       undercounts.  Compare reports between ``"inmemory"``, ``"indexed"``
       and :data:`SEED_SCAN` only, or use
       :func:`repro.detection.engine.cross_check` for full agreement checks.
    """
    if method == "sql":
        seconds, run = time_detection(workload, form=form, repeats=repeats)
        return seconds, run.report
    if method == SEED_SCAN:
        return _median_timed(
            lambda: seed_scan_violations(workload.relation, workload.cfds), repeats
        )
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

    :data:`SEED_SCAN` is the seed loop: ``method="scan"`` re-checking every
    pass with the oracle's per-pattern specification, bound in place of the
    oracle for the timed calls only.
    """
    if method == SEED_SCAN:
        with mock.patch(
            "repro.repair.heuristic.find_all_violations", seed_scan_violations
        ):
            return time_repair(workload, "scan", max_passes, repeats)
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
    verification.  The repair skips the consistency pre-check (identical
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
