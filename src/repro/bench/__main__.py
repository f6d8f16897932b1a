"""Command-line entry point: ``python -m repro.bench [experiment ...]``.

Runs the requested experiment drivers (default: all of them) and prints the
series each figure plots.  ``REPRO_BENCH_SCALE`` scales the workload sizes,
e.g. ``REPRO_BENCH_SCALE=10`` approaches the paper's original sizes.
``--json-dir`` additionally writes each series as a ``BENCH_<name>.json``
file for ad-hoc comparison; those files are not committed.  The repository's
performance record is the ``perf/`` benchmark (see ``perf/README.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.config import default_config
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.reporting import write_json


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the experiment series of the paper's Figure 9.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiments to run (default: all; choices: {', '.join(sorted(ALL_EXPERIMENTS))})",
    )
    parser.add_argument("--scale", type=float, default=None, help="workload scale factor")
    parser.add_argument(
        "--json-dir",
        default=None,
        help="also write each series as BENCH_<experiment>.json in this directory",
    )
    args = parser.parse_args(argv)

    unknown = [name for name in args.experiments if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments {unknown}; choices: {sorted(ALL_EXPERIMENTS)}")

    config = default_config()
    if args.scale is not None:
        config = type(config)(scale=args.scale)

    names = args.experiments or sorted(ALL_EXPERIMENTS)
    for name in names:
        driver = ALL_EXPERIMENTS[name]
        rows = driver(config=config, verbose=True)
        if args.json_dir:
            path = write_json(
                args.json_dir, name, rows, metadata={"scale": config.scale}
            )
            print(f"wrote {path}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
