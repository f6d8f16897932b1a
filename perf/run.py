"""The repository benchmark: one workload, one seed, one measuring window.

    python3 perf/run.py --workload fd-clean --seed 42 --seconds 25 --trace 0

1. Set-up: writes the workload's input CSV and rule file from ``--seed``,
   several times; ``setup_s`` is the median.
2. Measures: runs the operation repeatedly, each repeat in a fresh child
   process (``perf/op.py``) and one child at a time, until ``--seconds``
   have passed (at least 3 repeats).  ``--trace 1`` alternates untraced and
   traced repeats and reports the per-layer metrics instead.
3. Checks: the first repeat's output goes through an independent check
   (``workloads.check_output``); every other repeat must reproduce its
   fingerprint.
4. Prints every metric with its unit, and as the last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

Every end-to-end time is calibrated to a reference host speed.  The hosts
this benchmark runs on are shared, and for minutes at a time everything on
them, this benchmark included, runs up to 2x slower.  So each timed piece of
work (one set-up, one operation) is bracketed by a fixed pure-python loop,
the host probe, and its time is scaled by ``REFERENCE_PROBE_S`` over the
mean of the two probes: the seconds it would have taken on a host that runs
the probe in ``REFERENCE_PROBE_S``.  The measured times and probes are in
the record, and ``--trace 1`` reports them as ``host.raw_wall_s`` and
``host.probe_s``.

The full record (samples, host profile, labels, check) is written to
``<out>/record-<workload>-seed<seed>-trace<t>.json`` and the spans of the
last traced repeat to ``<out>/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"

#: Timed repeats per run at least, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: Set-up repeats: at least this many, more while they fit the budget.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 1.5
#: A repeat slower than this is killed and counted as failed.
OP_TIMEOUT_S = 150
#: Iterations of the host probe loop.
PROBE_LOOP = 1_000_000
#: The probe's time at full speed on the 2-CPU Xeon VM the workloads were
#: sized on; calibrated times are seconds on a host that fast.
REFERENCE_PROBE_S = 0.065

END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
RATIOS = {
    "parallel.detect.imbalance",
    "parallel.repair.imbalance",
    "repair.partitions_reevaluated_per_change",
    "relation.spill_bytes_per_input_byte",
    "detection.cache_hit_rate",
    "trace.coverage",
}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name in RATIOS:
        return "ratio"
    if name == "repair.cost":
        return "cost"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return "count"


def host_probe() -> float:
    """Seconds for a fixed pure-python loop: how fast the host runs right now."""
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOP):
        total += value * value % 7
    return time.perf_counter() - start


def calibrated(seconds: float, probes: List[float]) -> float:
    """``seconds`` as they would read on a host at the reference speed."""
    return seconds * REFERENCE_PROBE_S / statistics.mean(probes)


def host_profile() -> Dict[str, Any]:
    try:
        import numpy
    except ImportError:
        numpy = None
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            names = (line for line in handle if line.startswith("model name"))
            model = next(names, ":").split(":", 1)[1].strip()
    except OSError:
        pass
    profile: Dict[str, Any] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None,
        "sqlite": sqlite3.sqlite_version,
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            sha = _git("rev-parse", "HEAD")
            status = _git("status", "--porcelain", "--untracked-files=no")
        except (OSError, subprocess.TimeoutExpired):
            pass
        else:
            if sha.returncode == 0:
                profile["git_sha"] = sha.stdout.strip()
                profile["git_dirty"] = bool(status.stdout.strip())
    return profile


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
    )


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        p25 = p75 = values[0]
    else:
        p25, _, p75 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "p25": p25,
        "p75": p75,
        "min": min(values),
        "n": len(values),
    }


def child_env() -> Dict[str, str]:
    """A repeat's environment: no REPRO_* overrides, no BLAS thread pools."""
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_repeat(
    workload: str, work: Path, traced: bool, dump: Optional[Path], trace_out: Path
) -> Dict[str, Any]:
    """One operation in a fresh process; its record, or the reason it failed."""
    command = [sys.executable, str(PERF / "op.py"), "--workload", workload]
    command += ["--dir", str(work), "--trace", "1" if traced else "0"]
    if dump is not None:
        command += ["--dump", str(dump)]
    if traced:
        command += ["--trace-out", str(trace_out)]
    start = time.perf_counter()
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        stdout, stderr = child.communicate()
    finally:
        # Pool workers left behind by a crashed repeat share its session.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    elapsed = time.perf_counter() - start
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        error = f"exit {child.returncode}: {tail}"
        return {"error": error, "traced": traced, "child_s": elapsed}
    record = json.loads(lines[-1])
    record["child_s"] = elapsed
    record["ref_wall_s"] = calibrated(record["wall_s"], record["host_probes_s"])
    return record


def count_failed(
    kind: str, samples: List[Dict[str, Any]], check: Dict[str, Any]
) -> int:
    """Mark each repeat's problems; the number of repeats that failed.

    ``samples[0]`` is the checked repeat.  A repeat fails when it raised,
    when a clean returned ``clean=False``, when its output differs from the
    checked one, or when it left files in the spill dir; the checked repeat
    also fails when the independent check does.
    """
    reference = samples[0].get("fingerprint")
    for sample in samples:
        problems = [sample["error"]] if "error" in sample else []
        if not problems:
            if kind == "clean" and not sample["clean"]:
                problems.append("clean() returned clean=False")
            if sample["fingerprint"] != reference:
                problems.append("output differs from the checked repeat")
            if sample["spill_left"]:
                problems.append(f"{sample['spill_left']} entries left in the spill dir")
        sample["problems"] = problems
    if not check["ok"]:
        samples[0]["problems"].append(f"check: {check['detail']}")
    return sum(1 for sample in samples if sample["problems"])


def measure(args, workload, work: Path, trace_out: Path) -> List[Dict[str, Any]]:
    """The repeats of one window; the first, untraced, writes the checked output."""
    minimum = 2 if args.trace else (1 if args.quick else MIN_REPEATS)
    window_start = time.perf_counter()
    samples: List[Dict[str, Any]] = []
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        dump = None if samples else work / "output.json"
        samples.append(run_repeat(workload.name, work, traced, dump, trace_out))
        if len(samples) < minimum:
            continue
        elapsed = time.perf_counter() - window_start
        if args.quick or elapsed + samples[-1]["child_s"] > args.seconds:
            return samples


def metric_values(
    args, rows: int, samples, setup_samples, check
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics, or with ``--trace 1`` the per-layer ones."""
    ran = [sample for sample in samples if "error" not in sample]
    untraced = [sample for sample in ran if not sample["traced"]]
    traced = [sample for sample in ran if sample["traced"]]
    if not untraced or (args.trace and not traced):
        return {}

    def median(key: str, chosen) -> float:
        return statistics.median(sample[key] for sample in chosen)

    wall = median("ref_wall_s", untraced)
    if not args.trace:
        values = {
            "wall_s": wall,
            "rows_per_s": rows / wall,
            "peak_rss_mb": median("peak_rss_mb", untraced),
            "setup_s": statistics.median(setup_samples),
        }
        return {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    values = {
        name: statistics.median(sample["layers"][name] for sample in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_pct"] = (median("ref_wall_s", traced) / wall - 1.0) * 100.0
    values["worker_peak_rss_mb"] = median("worker_peak_rss_mb", untraced)
    values["check_s"] = check["seconds"]
    values["host.raw_wall_s"] = median("wall_s", untraced)
    values["host.probe_s"] = statistics.median(
        statistics.mean(sample["host_probes_s"]) for sample in ran
    )
    return {
        name: {"value": value, "unit": unit_of(name)} for name, value in values.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".perf_out"))
    parser.add_argument(
        "--quick", action="store_true", help="inputs 20x smaller, one timed repeat"
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print("perf/run.py: the program source (src/repro) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DATA, WORKLOADS, check_output, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    work = args.out / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    trace_out = args.out / f"trace-{workload.name}-seed{args.seed}.json"
    try:
        setups: List[Dict[str, Any]] = []
        budget_start = time.perf_counter()
        while len(setups) < SETUP_MIN_REPEATS or (
            len(setups) < SETUP_MAX_REPEATS
            and time.perf_counter() - budget_start < SETUP_BUDGET_S
        ):
            before = host_probe()
            start = time.perf_counter()
            make_inputs(workload, args.seed, work, args.quick)
            seconds = time.perf_counter() - start
            probes = [before, host_probe()]
            reference = calibrated(seconds, probes)
            setups.append({"seconds": seconds, "probes": probes, "ref_s": reference})
        setup_samples = [setup["ref_s"] for setup in setups]

        samples = measure(args, workload, work, trace_out)

        check = {"ok": False, "detail": "the checked repeat failed", "seconds": 0.0}
        if "error" not in samples[0]:
            start = time.perf_counter()
            dump = json.loads((work / "output.json").read_text())
            ok, detail = check_output(workload, work, dump)
            check = {"ok": ok, "detail": detail, "seconds": time.perf_counter() - start}
        input_bytes = (work / DATA).stat().st_size
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = count_failed(workload.kind, samples, check)
    rows = workload.size(args.quick)
    metrics = metric_values(args, rows, samples, setup_samples, check)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    timed = [s for s in samples if "error" not in s and not s["traced"]]
    traced = [s for s in samples if "error" not in s and s["traced"]]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": args.seconds,
        "inputs": {"rows": rows, "input_bytes": input_bytes, "noise": workload.noise},
        "host": host_profile(),
        "reference_probe_s": REFERENCE_PROBE_S,
        "setup_s": quartiles(setup_samples),
        "setups": setups,
        "wall_s": quartiles([s["ref_wall_s"] for s in timed]) if timed else None,
        "raw_wall_s": quartiles([s["wall_s"] for s in timed]) if timed else None,
        "check": check,
        "labels": traced[-1]["labels"] if traced else None,
        "samples": samples,
        "result": result,
    }
    name = f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path = args.out / name
    record_path.write_text(json.dumps(record, indent=1, default=str))

    for sample in samples:
        for problem in sample["problems"]:
            print(f"FAILED: {problem}")
    print(f"check: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {record_path}")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
