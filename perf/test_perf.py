"""Smoke tests of the benchmark in quick mode (inputs 20x smaller).

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERF))

from run import count_failed  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_output,
    make_inputs,
    output_dump,
    run_operation,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_of_the_code():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload, "--seed", "7"]
        + ["--trace", str(trace), "--quick", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] == (2 if trace else 1)

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        printed = [line for line in lines if line.startswith(f"{name} = ")]
        assert printed and printed[0].endswith(f" {unit}")

    if trace:
        document = json.loads((tmp_path / f"trace-{workload}-seed7.json").read_text())
        assert document["spans"] and document["spans"][0][:2] == ["op", -1]
        detect = WORKLOADS[workload].kind == "detect"
        entry = "sql.detect" if detect else "pipeline.clean"
        assert document["layers"][entry]["calls"] == 1
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def _corrupt(workload: str, dump):
    if WORKLOADS[workload].kind == "detect":
        dump["constant"].pop()
    else:
        dump["changes"][0][3] = "corrupted"


@pytest.mark.parametrize("workload", ["constants-clean", "sql-detect"])
def test_a_corrupted_output_cell_fails_the_check(workload, tmp_path):
    spec = WORKLOADS[workload]
    make_inputs(spec, 7, tmp_path, quick=True)
    dump = output_dump(spec, run_operation(spec, tmp_path))
    ok, detail = check_output(spec, tmp_path, dump)
    assert ok, detail

    _corrupt(workload, dump)
    ok, detail = check_output(spec, tmp_path, dump)
    assert not ok
    samples = [{"fingerprint": "f", "clean": True, "spill_left": 0} for _ in range(3)]
    assert count_failed(spec.kind, samples, {"ok": ok, "detail": detail}) == 1
