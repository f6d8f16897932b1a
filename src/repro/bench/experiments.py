"""Experiment drivers: one function per figure of the paper's Section 5.

Each driver returns a list of result rows (dictionaries) — the same series
the corresponding figure plots — and can print them as an aligned table.
Absolute times will differ from the paper's DB2/PowerPC numbers; the
EXPERIMENTS.md file records the *shape* comparison (who wins, monotonicity,
crossovers) point by point.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.config import BenchConfig, default_config
from repro.bench.harness import (
    build_fd_workload,
    build_workload,
    peak_rss_mb,
    time_backend,
    time_clean,
    time_detection,
    time_kernel_detection,
    time_kernel_repair,
    time_parallel_detection,
    time_parallel_repair,
    time_query_split,
    time_repair,
)
from repro.bench.reporting import format_table
from repro.kernels import numpy_available


def _emit(rows: List[Dict[str, Any]], title: str, verbose: bool) -> List[Dict[str, Any]]:
    # Every experiment row carries the process peak RSS at emission time —
    # wall-clock alone hides the memory story the storage experiments exist
    # to tell (the counter is process-monotone; within one invocation later
    # series can only show equal-or-higher peaks).
    peak = peak_rss_mb()
    for row in rows:
        row.setdefault("peak_rss_mb", round(peak, 1))
    if verbose:
        print(format_table(rows, title=title))
    return rows


# ---------------------------------------------------------------------------
# Figures 9(a) and 9(b): CNF vs DNF over SZ
# ---------------------------------------------------------------------------
def _cnf_vs_dnf(config: BenchConfig, num_consts: float, title: str, verbose: bool) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for size in config.sz_sweep():
        workload = build_workload(
            size=size,
            noise=config.default_noise,
            seed=config.seed,
            num_attrs=3,
            tabsz=config.fixed_tabsz,
            num_consts=num_consts,
        )
        cnf_seconds, _ = time_detection(workload, form="cnf")
        dnf_seconds, _ = time_detection(workload, form="dnf")
        rows.append(
            {
                "SZ": size,
                "cnf_seconds": cnf_seconds,
                "dnf_seconds": dnf_seconds,
                "dnf_speedup": cnf_seconds / dnf_seconds if dnf_seconds else float("inf"),
            }
        )
    return _emit(rows, title, verbose)


def fig9a_cnf_vs_dnf_constants(
    config: Optional[BenchConfig] = None, verbose: bool = False
) -> List[Dict[str, Any]]:
    """Figure 9(a): CNF vs DNF detection time, NUMCONSTs = 100%."""
    config = config or default_config()
    return _cnf_vs_dnf(config, num_consts=1.0, title="Figure 9(a): CNF vs DNF (NUMCONSTs=100%)", verbose=verbose)


def fig9b_cnf_vs_dnf_mixed(
    config: Optional[BenchConfig] = None, verbose: bool = False
) -> List[Dict[str, Any]]:
    """Figure 9(b): CNF vs DNF detection time, NUMCONSTs = 50%."""
    config = config or default_config()
    return _cnf_vs_dnf(config, num_consts=0.5, title="Figure 9(b): CNF vs DNF (NUMCONSTs=50%)", verbose=verbose)


# ---------------------------------------------------------------------------
# Figure 9(c): Q^C vs Q^V
# ---------------------------------------------------------------------------
def fig9c_qc_vs_qv(
    config: Optional[BenchConfig] = None, verbose: bool = False
) -> List[Dict[str, Any]]:
    """Figure 9(c): how detection time splits between ``Q^C`` and ``Q^V``."""
    config = config or default_config()
    rows: List[Dict[str, Any]] = []
    for size in config.sz_sweep():
        workload = build_workload(
            size=size,
            noise=config.default_noise,
            seed=config.seed,
            num_attrs=3,
            tabsz=config.fixed_tabsz,
            num_consts=1.0,
        )
        split = time_query_split(workload, form="dnf")
        rows.append({"SZ": size, "qc_seconds": split["qc"], "qv_seconds": split["qv"]})
    return _emit(rows, "Figure 9(c): Q^C vs Q^V", verbose)


# ---------------------------------------------------------------------------
# Figure 9(d): scalability in TABSZ
# ---------------------------------------------------------------------------
def fig9d_tabsz_scaling(
    config: Optional[BenchConfig] = None, verbose: bool = False
) -> List[Dict[str, Any]]:
    """Figure 9(d): detection time as the tableau grows, NUMATTRs 3 vs 4."""
    config = config or default_config()
    rows: List[Dict[str, Any]] = []
    size = config.tabsz_relation_size()
    for tabsz in config.tabsz_sweep():
        row: Dict[str, Any] = {"TABSZ": tabsz}
        for num_attrs in (3, 4):
            workload = build_workload(
                size=size,
                noise=config.default_noise,
                seed=config.seed,
                num_attrs=num_attrs,
                tabsz=tabsz,
                num_consts=0.5,
            )
            seconds, _ = time_detection(workload, form="dnf")
            row[f"numattrs{num_attrs}_seconds"] = seconds
        rows.append(row)
    return _emit(rows, "Figure 9(d): scalability in TABSZ", verbose)


# ---------------------------------------------------------------------------
# Figure 9(e): scalability in NUMCONSTs
# ---------------------------------------------------------------------------
def fig9e_numconsts_scaling(
    config: Optional[BenchConfig] = None, verbose: bool = False
) -> List[Dict[str, Any]]:
    """Figure 9(e): detection time as the fraction of constant pattern tuples drops."""
    config = config or default_config()
    rows: List[Dict[str, Any]] = []
    size = config.fixed_relation_size()
    for num_consts in config.numconsts_sweep:
        workload = build_workload(
            size=size,
            noise=config.default_noise,
            seed=config.seed,
            num_attrs=3,
            tabsz=config.fixed_tabsz,
            num_consts=num_consts,
        )
        seconds, _ = time_detection(workload, form="dnf")
        rows.append({"NUMCONSTs": num_consts, "seconds": seconds})
    return _emit(rows, "Figure 9(e): scalability in NUMCONSTs", verbose)


# ---------------------------------------------------------------------------
# Figure 9(f): scalability in NOISE
# ---------------------------------------------------------------------------
def fig9f_noise_scaling(
    config: Optional[BenchConfig] = None, verbose: bool = False
) -> List[Dict[str, Any]]:
    """Figure 9(f): detection time as the fraction of dirty tuples grows.

    Following the paper, the CFD is the two-attribute ``[ZIP] → [ST]`` with a
    pattern tuple for every zip/state pair of the catalog, so no violation is
    missed.
    """
    config = config or default_config()
    rows: List[Dict[str, Any]] = []
    size = config.fixed_relation_size()
    for noise in config.noise_sweep:
        workload = build_workload(
            size=size,
            noise=noise,
            seed=config.seed,
            num_attrs=2,
            tabsz=None,  # every zip -> state pair
            num_consts=1.0,
        )
        seconds, run = time_detection(workload, form="dnf")
        rows.append(
            {
                "NOISE": noise,
                "seconds": seconds,
                "violations": len(run.report),
            }
        )
    return _emit(rows, "Figure 9(f): scalability in NOISE", verbose)


# ---------------------------------------------------------------------------
# Section 5, "Merging CFDs" (no figure)
# ---------------------------------------------------------------------------
def merged_vs_separate(
    config: Optional[BenchConfig] = None,
    num_cfds: int = 3,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """The merged single-query-pair scheme vs one query pair per CFD."""
    config = config or default_config()
    rows: List[Dict[str, Any]] = []
    for size in config.sz_sweep():
        workload = build_workload(
            size=size,
            noise=config.default_noise,
            seed=config.seed,
            num_attrs=3,
            tabsz=200,
            num_consts=1.0,
            num_cfds=num_cfds,
        )
        separate_seconds, _ = time_detection(workload, strategy="per_cfd", form="cnf")
        merged_seconds, _ = time_detection(workload, strategy="merged")
        rows.append(
            {
                "SZ": size,
                "num_cfds": num_cfds,
                "separate_seconds": separate_seconds,
                "merged_seconds": merged_seconds,
            }
        )
    return _emit(rows, "Merging CFDs: merged vs per-CFD detection", verbose)



# ---------------------------------------------------------------------------
# Ablation (beyond the paper): detection backends
# ---------------------------------------------------------------------------
def backend_ablation(
    config: Optional[BenchConfig] = None,
    tabsz: int = 100,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """Indexed vs in-memory vs SQL detection over the SZ sweep.

    The paper only measures the SQL queries; this ablation adds the two
    in-process backends to quantify what the partition index buys.  The
    per-pattern oracle is quadratic in practice (one relation scan per
    pattern tuple), so ``tabsz`` defaults to a deliberately modest 100 to
    keep the slowest series tolerable; the indexed backend's advantage only
    grows with the tableau.
    """
    config = config or default_config()
    rows: List[Dict[str, Any]] = []
    for size in config.sz_sweep():
        workload = build_workload(
            size=size,
            noise=config.default_noise,
            seed=config.seed,
            num_attrs=3,
            tabsz=tabsz,
            num_consts=0.5,
        )
        indexed_seconds, indexed_report = time_backend(workload, "indexed")
        inmemory_seconds, inmemory_report = time_backend(workload, "inmemory")
        sql_seconds, _ = time_backend(workload, "sql")
        if indexed_report.violating_indices() != inmemory_report.violating_indices():
            raise AssertionError(
                f"indexed and in-memory backends disagree on SZ={size}: "
                f"{indexed_report.summary()} vs {inmemory_report.summary()}"
            )
        rows.append(
            {
                "SZ": size,
                "indexed_seconds": indexed_seconds,
                "inmemory_seconds": inmemory_seconds,
                "sql_seconds": sql_seconds,
                "indexed_speedup": (
                    inmemory_seconds / indexed_seconds if indexed_seconds else float("inf")
                ),
            }
        )
    return _emit(rows, "Ablation: indexed vs in-memory vs SQL detection", verbose)


# ---------------------------------------------------------------------------
# Ablation (beyond the paper): repair engines
# ---------------------------------------------------------------------------
def repair_ablation(
    config: Optional[BenchConfig] = None,
    tabsz: int = 200,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """Incremental vs scan-driven repair over the SZ sweep.

    Section 6 makes repair the expensive half of the pipeline; this ablation
    quantifies what delta-maintained violation state buys the repair loop
    against full re-detection per pass through the scan oracle (the seed
    behaviour).  The workload is the ``[ZIP] → [ST]`` constraint of the NOISE
    experiment (Figure 9(f)) with a ``tabsz``-pattern sample so the scan
    series stays tolerable.
    Every method must reach the identical repaired relation — checked
    outright, the same way ``backend_ablation`` cross-checks detection.
    """
    config = config or default_config()
    rows: List[Dict[str, Any]] = []
    for size in config.sz_sweep():
        workload = build_workload(
            size=size,
            noise=config.default_noise,
            seed=config.seed,
            num_attrs=2,
            tabsz=tabsz,
            num_consts=1.0,
        )
        incremental_seconds, incremental_result = time_repair(workload, "incremental")
        scan_seconds, scan_result = time_repair(workload, "scan")
        if incremental_result.relation != scan_result.relation:
            raise AssertionError(
                f"repair engines disagree on SZ={size}: "
                f"{incremental_result.summary()} vs {scan_result.summary()}"
            )
        rows.append(
            {
                "SZ": size,
                "incremental_seconds": incremental_seconds,
                "scan_seconds": scan_seconds,
                "changes": len(incremental_result.changes),
                "passes": incremental_result.passes,
                "incremental_speedup": (
                    scan_seconds / incremental_seconds
                    if incremental_seconds
                    else float("inf")
                ),
            }
        )
    return _emit(rows, "Ablation: incremental vs scan repair", verbose)


# ---------------------------------------------------------------------------
# Ablation (beyond the paper): end-to-end cleaning pipeline
# ---------------------------------------------------------------------------
def pipeline_throughput(
    config: Optional[BenchConfig] = None,
    tabsz: int = 200,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """End-to-end ``Cleaner.clean`` throughput over the SZ sweep.

    The per-stage experiments time detection and repair in isolation; this
    one times what a user of the pipeline API actually pays — ingest, initial
    detection, the repair fixpoint and the oracle verification together —
    for the auto-selected backends against the indexed-detect/incremental-repair
    pairing.  The workload is the ``[ZIP] → [ST]`` constraint of the repair
    ablation.  Every run must end verified clean — checked outright.
    """
    config = config or default_config()
    rows: List[Dict[str, Any]] = []
    for size in config.sz_sweep():
        workload = build_workload(
            size=size,
            noise=config.default_noise,
            seed=config.seed,
            num_attrs=2,
            tabsz=tabsz,
            num_consts=1.0,
        )
        auto_seconds, auto_result = time_clean(
            workload, detect_method="auto", repair_method="auto"
        )
        pinned_seconds, pinned_result = time_clean(
            workload, detect_method="indexed", repair_method="incremental"
        )
        if not (auto_result.clean and pinned_result.clean):
            raise AssertionError(
                f"pipeline did not reach a clean relation on SZ={size}: "
                f"auto={auto_result.summary()} pinned={pinned_result.summary()}"
            )
        if auto_result.relation != pinned_result.relation:
            raise AssertionError(
                f"auto and pinned pipelines disagree on SZ={size}: "
                f"{auto_result.summary()} vs {pinned_result.summary()}"
            )
        rows.append(
            {
                "SZ": size,
                "auto_seconds": auto_seconds,
                "pinned_seconds": pinned_seconds,
                "auto_tuples_per_second": size / auto_seconds if auto_seconds else float("inf"),
                "auto_backends": "+".join(
                    auto_result.backends[stage] for stage in ("detect", "repair")
                ),
                "changes": len(auto_result.changes),
                "passes": auto_result.passes,
            }
        )
    return _emit(rows, "Ablation: end-to-end cleaning pipeline throughput", verbose)


# ---------------------------------------------------------------------------
# Ablation (beyond the paper): sharded parallel execution
# ---------------------------------------------------------------------------
def parallel_scaling(
    config: Optional[BenchConfig] = None,
    tabsz: int = 300,
    worker_sweep: Tuple[int, ...] = (1, 2, 4),
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """Sharded parallel detection/repair vs the serial engines over workers.

    One fixed-size workload (the ``[ZIP] → [ST]`` constraint of the repair
    ablation), swept over process-pool widths.  Every parallel run is checked
    against the serial result outright — identical violation set, identical
    repaired relation — so the series can only ever show *where* parallelism
    pays, never a wrong answer.  ``workers=1`` rides the serial in-process
    fallback and prices the sharding overhead alone.
    """
    config = config or default_config()
    size = config.fixed_relation_size()
    workload = build_workload(
        size=size,
        noise=config.default_noise,
        seed=config.seed,
        num_attrs=2,
        tabsz=tabsz,
        num_consts=1.0,
    )
    detect_serial_seconds, serial_report = time_backend(workload, "indexed")
    repair_serial_seconds, serial_repair = time_repair(workload, "incremental")
    rows: List[Dict[str, Any]] = []
    for workers in worker_sweep:
        shard_count = max(2, workers)
        detect_seconds, report = time_parallel_detection(
            workload, shard_count=shard_count, workers=workers
        )
        repair_seconds, repaired = time_parallel_repair(
            workload, shard_count=shard_count, workers=workers
        )
        if set(report.violations) != set(serial_report.violations):
            raise AssertionError(
                f"parallel detection (workers={workers}) disagrees with the "
                f"indexed backend on SZ={size}: {report.summary()} vs "
                f"{serial_report.summary()}"
            )
        if repaired.relation != serial_repair.relation:
            raise AssertionError(
                f"parallel repair (workers={workers}) diverged from the "
                f"incremental engine on SZ={size}"
            )
        stats = repaired.parallel_stats
        rows.append(
            {
                "SZ": size,
                "workers": workers,
                "shards": shard_count,
                "mode": stats.mode if stats else "?",
                "detect_serial_seconds": detect_serial_seconds,
                "detect_parallel_seconds": detect_seconds,
                "detect_speedup": (
                    detect_serial_seconds / detect_seconds
                    if detect_seconds
                    else float("inf")
                ),
                "repair_serial_seconds": repair_serial_seconds,
                "repair_parallel_seconds": repair_seconds,
                "repair_speedup": (
                    repair_serial_seconds / repair_seconds
                    if repair_seconds
                    else float("inf")
                ),
            }
        )
    return _emit(rows, "Ablation: sharded parallel vs serial engines", verbose)


# ---------------------------------------------------------------------------
# Ablation: numpy vs pure-python kernels
# ---------------------------------------------------------------------------
def kernels_ablation(
    config: Optional[BenchConfig] = None,
    noise: float = 0.01,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """Numpy vs pure-python kernels for columnar indexed detection.

    The same pre-encoded store, the same detector, the only variable being
    the hot-loop implementation (:mod:`repro.kernels`).  The workload is the
    plain exemption FD at low noise — the pure-``Q^V``, mostly-clean regime
    where the python reference must scan nearly every partition to the end
    while the numpy kernel's fused scan stays in whole-column array passes.
    Reports must agree byte for byte, checked outright.

    Returns an empty series (with a note when verbose) if numpy is not
    installed — the python path is then the only kernel, so there is
    nothing to compare.
    """
    config = config or default_config()
    if not numpy_available():
        if verbose:
            print("kernels ablation skipped: numpy is not installed ([fast] extra)")
        return []
    rows: List[Dict[str, Any]] = []
    for size in config.sz_sweep():
        workload = build_fd_workload(size=size, noise=noise, seed=config.seed)
        python_seconds, python_report = time_kernel_detection(workload, "python")
        numpy_seconds, numpy_report = time_kernel_detection(workload, "numpy")
        if list(python_report.violations) != list(numpy_report.violations):
            raise AssertionError(
                f"kernels disagree on detection at SZ={size}: "
                f"{python_report.summary()} vs {numpy_report.summary()}"
            )
        rows.append(
            {
                "SZ": size,
                "python_detect_seconds": python_seconds,
                "numpy_detect_seconds": numpy_seconds,
                "numpy_speedup": (
                    python_seconds / numpy_seconds if numpy_seconds else float("inf")
                ),
            }
        )
    return _emit(rows, "Ablation: numpy vs python kernels", verbose)


# ---------------------------------------------------------------------------
# Ablation: numpy vs pure-python kernels on the repair fixpoint
# ---------------------------------------------------------------------------
def repair_kernels_ablation(
    config: Optional[BenchConfig] = None,
    noise: float = 0.01,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """Numpy vs pure-python kernels for the columnar incremental repair fixpoint.

    The repair-side twin of :func:`kernels_ablation`: the same pre-encoded
    store contract (:func:`time_kernel_repair`), the same incremental engine,
    the only variable being the kernel behind the batched class re-evaluation,
    partition-delta and candidate-pricing primitives.  Change logs must agree
    byte for byte, checked outright.  Each row also carries a
    ``method="parallel"`` point — the sharded repairer whose per-shard
    incremental fixpoints ride the same batched kernels — timed under the
    numpy kernel for reference (no speedup is derived from it; on one core it
    mostly measures sharding overhead).

    Returns an empty series (with a note when verbose) if numpy is not
    installed — the python path is then the only kernel, so there is
    nothing to compare.
    """
    config = config or default_config()
    if not numpy_available():
        if verbose:
            print(
                "repair_kernels ablation skipped: numpy is not installed "
                "([fast] extra)"
            )
        return []
    rows: List[Dict[str, Any]] = []
    for size in config.sz_sweep():
        workload = build_fd_workload(size=size, noise=noise, seed=config.seed)
        python_seconds, python_result = time_kernel_repair(workload, "python")
        numpy_seconds, numpy_result = time_kernel_repair(workload, "numpy")
        if list(python_result.changes) != list(numpy_result.changes):
            raise AssertionError(
                f"kernels disagree on repair at SZ={size}: "
                f"{len(python_result.changes)} vs {len(numpy_result.changes)} changes"
            )
        parallel_seconds, _ = time_kernel_repair(workload, "numpy", method="parallel")
        rows.append(
            {
                "SZ": size,
                "python_repair_seconds": python_seconds,
                "numpy_repair_seconds": numpy_seconds,
                "parallel_repair_seconds": parallel_seconds,
                "numpy_speedup": (
                    python_seconds / numpy_seconds if numpy_seconds else float("inf")
                ),
            }
        )
    return _emit(rows, "Ablation: numpy vs python repair kernels", verbose)


# ---------------------------------------------------------------------------
# Ablation (beyond the paper): out-of-core cleaning in bounded memory
# ---------------------------------------------------------------------------
def outofcore_scaling(
    config: Optional[BenchConfig] = None,
    noise: float = 0.01,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """End-to-end mmap cleaning at 100K–10M rows with peak RSS tracked.

    The bounded-memory claim of the spill-to-disk mode, measured: rows are
    *streamed* from the tax generator straight into memory-mapped code
    columns (no materialised Python rows), detection and repair run sharded
    over spilled shards that workers mmap from disk, and every series row
    records the process's peak RSS next to its wall time.  The workload is
    the pure-wildcard exemption FD ``[ZIP, MR, CH] → [STX, MTX, CTX]`` —
    the fused-scan regime where the kernels do the work and storage is the
    variable.  The smallest point is cross-checked outright against the
    in-memory columnar pipeline (byte-identical rows and change log), so
    the series can only ever show *cost*, never a different answer.

    ``REPRO_OUTOFCORE_SIZES`` pins the sweep (the CI leg runs ``1000000``
    in a fresh process); ``REPRO_OUTOFCORE_RSS_BUDGET_MB``, when set, turns
    the recorded peak into a hard assertion — the CI bounded-memory gate.
    """
    from repro.config import DetectionConfig, RepairConfig
    from repro.core.cfd import CFD
    from repro.datagen.generator import TaxRecordGenerator, tax_schema
    from repro.io.sources import IterableSource, RelationSource
    from repro.pipeline import Cleaner

    config = config or default_config()
    budget_raw = os.environ.get("REPRO_OUTOFCORE_RSS_BUDGET_MB")
    budget_mb = float(budget_raw) if budget_raw else None
    cfd = CFD.build(
        ["ZIP", "MR", "CH"],
        ["STX", "MTX", "CTX"],
        [["_"] * 6],
        name="exemption_fd",
    )

    def cleaner(storage: str) -> Cleaner:
        return Cleaner(
            detection=DetectionConfig(method="parallel", storage=storage),
            repair=RepairConfig(
                method="parallel", storage=storage, check_consistency=False
            ),
            verify_method="indexed",  # the in-memory oracle would decode every row
        )

    rows: List[Dict[str, Any]] = []
    for index, size in enumerate(config.outofcore_sweep()):
        generator = TaxRecordGenerator(size=size, noise=noise, seed=config.seed)
        source = IterableSource(tax_schema(), generator.iter_rows())
        start = time.perf_counter()
        result = cleaner("mmap").clean(source, [cfd])
        seconds = time.perf_counter() - start
        peak = peak_rss_mb()
        if not result.clean:
            raise AssertionError(
                f"out-of-core cleaning left SZ={size} dirty: {result.summary()}"
            )
        if index == 0 and size <= 200_000:
            baseline = cleaner("columnar").clean(
                RelationSource(generator.generate_relation()), [cfd]
            )
            mismatch = next(
                (
                    position
                    for position in range(size)
                    if tuple(result.relation[position])
                    != tuple(baseline.relation[position])
                ),
                None,
            )
            if mismatch is not None or len(result.changes) != len(baseline.changes):
                raise AssertionError(
                    f"mmap and columnar pipelines diverge at SZ={size} "
                    f"(first row mismatch: {mismatch}): "
                    f"{result.summary()} vs {baseline.summary()}"
                )
        rows.append(
            {
                "SZ": size,
                "seconds": seconds,
                "tuples_per_second": size / seconds if seconds else float("inf"),
                "changes": len(result.changes),
                "clean": result.clean,
                "storage": result.backends["storage"],
                "peak_rss_mb": round(peak, 1),
                "peak_child_rss_mb": round(peak_rss_mb(children=True), 1),
            }
        )
        result.relation.release()
        if budget_mb is not None and peak > budget_mb:
            raise AssertionError(
                f"out-of-core peak RSS {peak:.1f} MiB exceeded the "
                f"REPRO_OUTOFCORE_RSS_BUDGET_MB budget of {budget_mb:.1f} MiB "
                f"at SZ={size}"
            )
    return _emit(rows, "Out-of-core: mmap spill pipeline, bounded memory", verbose)


# ---------------------------------------------------------------------------
# Ablation (beyond the paper): pre-flight static analysis
# ---------------------------------------------------------------------------
def analysis_ablation(
    config: Optional[BenchConfig] = None,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """Static analysis: lint latency, and the detection payoff of ``optimize``.

    Two series in one artifact:

    * ``series="lint"`` — :func:`repro.analysis.analyze` wall time vs
      tableau size, shallow (the exact pass the pipeline pre-flight gate
      runs) next to deep (the chase-backed redundancy checks of
      ``repro lint``).  The shallow pass must stay negligible — it is on
      the path of every cleaning run at the default ``analysis="warn"``.
    * ``series="optimize"`` — indexed detection over the TABSZ tax relation
      under a redundant rule set (the constants tableau plus duplicated
      wildcard FDs, each twin re-scanning every partition) vs the same rule
      set rewritten to its minimal cover, reports checked identical.  The
      speedup is what ``analyze(optimize=True)`` / ``repro lint --optimize``
      buys at detection time — fewer patterns, same violations.
    """
    from repro.analysis import analyze
    from repro.core.cfd import CFD
    from repro.detection.indexed import IndexedDetector
    from repro.reasoning.mincover import minimal_cover

    config = config or default_config()
    lint_rows: List[Dict[str, Any]] = []

    # --- series 1: lint latency vs rule-set size ---------------------------
    relation_probe = build_workload(
        size=1_000, noise=config.default_noise, seed=config.seed, tabsz=50
    )
    schema = relation_probe.relation.schema
    for tabsz in (10, 25, 50, 100, 200):
        cfd = build_workload(
            size=1_000, noise=config.default_noise, seed=config.seed,
            num_attrs=3, tabsz=tabsz,
        ).cfds[0]
        shallow = analyze([cfd], schema, deep=False)
        deep = analyze([cfd], schema)
        lint_rows.append(
            {
                "series": "lint",
                "patterns": tabsz,
                "shallow_lint_seconds": shallow.seconds,
                "deep_lint_seconds": deep.seconds,
                "diagnostics": len(deep),
            }
        )
    _emit(lint_rows, "Static analysis: lint latency vs rule-set size", verbose)

    # --- series 2: redundant rules vs their minimal cover ------------------
    # TABSZ is held at 100: the cover computation chases once per normalised
    # part (quadratic in the rule set), and this series measures the
    # *detection* payoff of the rewrite, not the rewrite itself (whose cost
    # is recorded as ``mincover_seconds``).
    size = config.tabsz_relation_size()
    workload = build_workload(
        size=size, noise=config.default_noise, seed=config.seed,
        num_attrs=3, tabsz=100,
    )
    # The redundancy the linter's CFD002 flags: the wildcard FD behind the
    # constants tableau, duplicated under twin names.  Each twin forces the
    # indexed detector through another full pass over every LHS partition.
    redundant = list(workload.cfds) + [
        CFD.build(["ZIP", "CT"], ["ST"], [["_", "_", "_"]], name=f"zip_city_fd_{i}")
        for i in range(4)
    ]
    detector = IndexedDetector(workload.relation)
    start = time.perf_counter()
    redundant_report = detector.detect(redundant)
    redundant_seconds = time.perf_counter() - start

    start = time.perf_counter()
    cover = minimal_cover(redundant)
    mincover_seconds = time.perf_counter() - start

    start = time.perf_counter()
    optimized_report = IndexedDetector(workload.relation).detect(cover)
    optimized_seconds = time.perf_counter() - start

    if sorted(redundant_report.violating_indices()) != sorted(
        optimized_report.violating_indices()
    ):
        raise AssertionError(
            f"minimal cover changed the violating tuples at SZ={size}: "
            f"{len(redundant_report.violating_indices())} vs "
            f"{len(optimized_report.violating_indices())}"
        )
    optimize_rows: List[Dict[str, Any]] = [
        {
            "series": "optimize",
            "SZ": size,
            "patterns_before": sum(len(cfd.tableau) for cfd in redundant),
            "patterns_after": sum(len(cfd.tableau) for cfd in cover),
            "redundant_detect_seconds": redundant_seconds,
            "optimized_detect_seconds": optimized_seconds,
            "mincover_seconds": mincover_seconds,
            "optimize_speedup": (
                redundant_seconds / optimized_seconds
                if optimized_seconds
                else float("inf")
            ),
        }
    ]
    _emit(optimize_rows, "Static analysis: minimal-cover detection payoff", verbose)
    return lint_rows + optimize_rows


#: Map of experiment name -> driver, used by ``python -m repro.bench``.
ALL_EXPERIMENTS = {
    "fig9a": fig9a_cnf_vs_dnf_constants,
    "fig9b": fig9b_cnf_vs_dnf_mixed,
    "fig9c": fig9c_qc_vs_qv,
    "fig9d": fig9d_tabsz_scaling,
    "fig9e": fig9e_numconsts_scaling,
    "fig9f": fig9f_noise_scaling,
    "merged": merged_vs_separate,
    "backends": backend_ablation,
    "repair": repair_ablation,
    "pipeline": pipeline_throughput,
    "parallel": parallel_scaling,
    "kernels": kernels_ablation,
    "repair_kernels": repair_kernels_ablation,
    "outofcore": outofcore_scaling,
    "analysis": analysis_ablation,
}
