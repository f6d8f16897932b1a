"""Workload construction and timing helpers of the Figure 9 experiment drivers."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.core.cfd import CFD
from repro.datagen.cfd_catalog import experiment_cfd, experiment_cfd_set
from repro.datagen.generator import TaxRecordGenerator
from repro.relation.relation import Relation
from repro.sql.engine import DetectionRun, SQLDetector

_T = TypeVar("_T")


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB: this process, or its reaped children.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; 0.0 on platforms
    without :mod:`resource` (Windows), so callers can stamp it
    unconditionally.  The counter is process-lifetime-monotone — comparing
    points *within* one process only shows growth, which is why the CI
    bounded-memory gate runs its one test file in a fresh process.
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


def time_query_split(
    workload: DetectionWorkload,
    form: str = "dnf",
    repeats: int = 1,
) -> Dict[str, float]:
    """Split detection time between the ``Q^C`` and ``Q^V`` queries (Figure 9(c))."""
    _total, run = time_detection(workload, strategy="per_cfd", form=form, repeats=repeats)
    return {"qc": run.seconds_for("qc"), "qv": run.seconds_for("qv")}
