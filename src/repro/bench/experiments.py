"""Experiment drivers: one function per figure of the paper's Section 5.

Each driver returns a list of result rows (dictionaries) — the same series
the corresponding figure plots — and can print them as an aligned table.
Absolute times will differ from the paper's DB2/PowerPC numbers; what
carries over is the *shape* (who wins, monotonicity, crossovers).  The
matching ``benchmarks/test_fig9*.py`` and ``test_merged_vs_separate.py``
files time the same workloads under pytest-benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bench.config import BenchConfig, default_config
from repro.bench.harness import (
    build_workload,
    peak_rss_mb,
    time_detection,
    time_query_split,
)
from repro.bench.reporting import format_table


def _emit(rows: List[Dict[str, Any]], title: str, verbose: bool) -> List[Dict[str, Any]]:
    # Every experiment row carries the process peak RSS at emission time
    # (the counter is process-monotone; within one invocation later series
    # can only show equal-or-higher peaks).
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


#: Map of experiment name -> driver, used by ``python -m repro.bench``.
ALL_EXPERIMENTS = {
    "fig9a": fig9a_cnf_vs_dnf_constants,
    "fig9b": fig9b_cnf_vs_dnf_mixed,
    "fig9c": fig9c_qc_vs_qv,
    "fig9d": fig9d_tabsz_scaling,
    "fig9e": fig9e_numconsts_scaling,
    "fig9f": fig9f_noise_scaling,
    "merged": merged_vs_separate,
}
