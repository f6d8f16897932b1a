"""Compare benchmark runs of two versions, workload by workload.

    python3 perf/compare.py --base BASE.json... --new NEW.json...

Each file is a record written by ``perf/run.py`` or a baseline file
(``perf/baselines/*.json``, which holds many).  Only untraced runs count.
For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles, the metric's bound, and a verdict:

* ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell;
* ``worse`` — the new median is worse than the base median by more than
  the bound;
* ``better`` — the new median is better by more than the base's quartile
  distance;
* ``unchanged`` — otherwise.

Each workload ends with the median host probe of both sides: a fixed
pure-python loop timed around every repeat, by which ``run.py`` calibrates
its times.  Calibration takes out most of a slow host phase, not all of it:
a side whose probe reads far higher than the other's is worth measuring
again.

Exits with 1 when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from run import quartiles

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(paths: List[Path]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, over every untraced run in ``paths``.

    ``host_probe_s`` collects every repeat's mean host probe, so a side that
    ran in a slow host phase shows it.
    """
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        document = json.loads(path.read_text())
        for run in document.get("runs", [document]):
            if run["trace"]:
                continue
            workload = values[run["workload"]]
            for name, metric in run["result"]["metrics"].items():
                workload[name].append(metric["value"])
            workload["host_probe_s"].extend(
                statistics.mean(sample["host_probes_s"])
                for sample in run["samples"]
                if "host_probes_s" in sample
            )
    return values


def summary(values: List[float]) -> Dict[str, float]:
    found = quartiles(values)
    found["spread"] = (found["p75"] - found["p25"]) / found["median"]
    return found


def verdict(
    base: Dict[str, float], new: Dict[str, float], better: str, bound: float
) -> str:
    if base["spread"] > bound or new["spread"] > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["median"] - base["median"]) / base["median"]
    if worsening > bound:
        return "worse"
    if -worsening * base["median"] > base["p75"] - base["p25"]:
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base, new = load_runs(args.base), load_runs(args.new)

    print(
        f"{'workload':16} {'metric':12} {'base median [p25, p75]':>32} "
        f"{'new median [p25, p75]':>32} {'bound':>6}  verdict"
    )
    worse = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not base[workload][name] or not new[workload][name]:
                print(f"{workload:16} {name:12} {'no runs':>32}")
                continue
            old, now = summary(base[workload][name]), summary(new[workload][name])
            result = verdict(old, now, metric["better"], metric["bound"])
            worse += result == "worse"
            sides = [
                f"{side['median']:.4g} [{side['p25']:.4g}, {side['p75']:.4g}]"
                for side in (old, now)
            ]
            print(
                f"{workload:16} {name:12} {sides[0]:>32} {sides[1]:>32} "
                f"{metric['bound']:>6.0%}  {result}"
            )
        probes = [base[workload]["host_probe_s"], new[workload]["host_probe_s"]]
        if all(probes):
            medians = [f"{statistics.median(side):.4g} s" for side in probes]
            print(f"{workload:16} {'host probe':12} {medians[0]:>32} {medians[1]:>32}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
