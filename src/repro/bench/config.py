"""Benchmark configuration and scaling.

The paper's experiments ran on DB2 with relations of up to 500K tuples and
tableaux of up to 30K patterns; running every point at full size under
pytest-benchmark would make the suite needlessly slow on a laptop without
changing any conclusion.  :class:`BenchConfig` therefore records, for every
figure, both the paper's parameters and the (scaled) defaults used here, and
a single ``scale`` knob (or the ``REPRO_BENCH_SCALE`` environment variable)
lets you dial the sizes back up toward the paper's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Tuple


def _env_scale(default: float = 1.0) -> float:
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


@dataclass(frozen=True)
class BenchConfig:
    """Sizes used by the experiment drivers.

    ``scale`` multiplies every relation size and tableau size; ``scale=1.0``
    is the laptop-friendly default, ``scale=10.0`` reproduces the paper's
    largest relation sizes for Figures 9(a)–(c) and (e)–(f).
    """

    scale: float = 1.0
    #: relation sizes for the SZ sweeps (paper: 10K..100K step 10K)
    sz_sweep_base: Tuple[int, ...] = (10_000, 20_000, 30_000, 40_000, 50_000)
    #: relation size for the TABSZ sweep (paper: 500K)
    tabsz_relation_base: int = 50_000
    #: tableau sizes for the TABSZ sweep (paper: 1K..10K step 1K)
    tabsz_sweep_base: Tuple[int, ...] = (200, 400, 600, 800, 1_000, 1_200, 1_400, 1_600, 1_800, 2_000)
    #: relation size for the NUMCONSTs and NOISE sweeps (paper: 100K)
    fixed_relation_base: int = 30_000
    #: tableau size for the NUMCONSTs sweep (paper: 1K)
    fixed_tabsz: int = 1_000
    #: NUMCONSTs sweep (paper: 100% .. 10%)
    numconsts_sweep: Tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
    #: NOISE sweep (paper: 0% .. 9%)
    noise_sweep: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09)
    #: default NOISE for all other experiments (paper: 5%)
    default_noise: float = 0.05
    #: seed shared by every generator invocation
    seed: int = 42

    # ------------------------------------------------------------------ scaled views
    def sz_sweep(self) -> List[int]:
        return [max(1_000, int(size * self.scale)) for size in self.sz_sweep_base]

    def tabsz_relation_size(self) -> int:
        return max(1_000, int(self.tabsz_relation_base * self.scale))

    def tabsz_sweep(self) -> List[int]:
        return [max(50, int(size * self.scale)) for size in self.tabsz_sweep_base]

    def fixed_relation_size(self) -> int:
        return max(1_000, int(self.fixed_relation_base * self.scale))


def default_config() -> BenchConfig:
    """The configuration used when none is supplied (honours ``REPRO_BENCH_SCALE``)."""
    return BenchConfig(scale=_env_scale())


def quick_config() -> BenchConfig:
    """A deliberately small configuration for smoke tests of the harness itself."""
    return BenchConfig(
        scale=1.0,
        sz_sweep_base=(1_000, 2_000),
        tabsz_relation_base=2_000,
        tabsz_sweep_base=(50, 100),
        fixed_relation_base=2_000,
        fixed_tabsz=100,
        numconsts_sweep=(1.0, 0.5),
        noise_sweep=(0.0, 0.05),
    )
