"""A pool worker that dies hard, in a real process pool.

Each shard task below does its shard's work and then, in a pool worker
only, touches a sentinel file and calls ``os._exit(1)``, so every worker
dies after it has touched the spilled plan and before it returns a result.
The pool breaks (``BrokenProcessPool``) and ``executor.run_tasks`` reruns
every task serially in this process, where the same task runs to
completion.  The sentinels prove that a worker really died, rather than the
pool failing to start.  The tasks are module-level so that the workers can
unpickle them under any start method.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import tempfile
from pathlib import Path

import pytest

import repro.parallel.engine as engine_module
import repro.parallel.repairer as repairer_module
from repro.config import RepairConfig
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.generator import TaxRecordGenerator
from repro.parallel import executor
from repro.parallel.engine import detect_sharded
from repro.relation.mmap_store import SPILL_ENV
from repro.repair.heuristic import repair

_DETECT_SHARD = engine_module._detect_shard
_REPAIR_SHARD = repairer_module._repair_shard


def _die_in_worker(sentinels, result):
    if multiprocessing.parent_process() is not None:
        Path(sentinels, str(os.getpid())).touch()
        os._exit(1)
    return result


def _detect_then_die(sentinels, payload):
    return _die_in_worker(sentinels, _DETECT_SHARD(payload))


def _repair_then_die(sentinels, payload):
    return _die_in_worker(sentinels, _REPAIR_SHARD(payload))


@pytest.fixture
def sentinels(tmp_path):
    """The directory each dying worker marks with its pid."""
    path = tmp_path / "dead-workers"
    path.mkdir()
    return path


@pytest.fixture
def spill_base(tmp_path, monkeypatch):
    """The anonymous spill base, moved under ``tmp_path``."""
    monkeypatch.delenv(SPILL_ENV, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path / "repro-spill"


@pytest.fixture(scope="module")
def tax():
    return TaxRecordGenerator(size=400, noise=0.06, seed=9).generate_relation()


def _leftovers(base):
    return sorted(path.name for path in base.iterdir()) if base.exists() else []


def test_detection_reruns_serially_after_a_worker_dies(
    tax, spill_base, sentinels, monkeypatch
):
    cfds = [zip_state_cfd()]
    serial = detect_sharded(tax, cfds, shard_count=2, workers=1)
    task = functools.partial(_detect_then_die, str(sentinels))
    monkeypatch.setattr(engine_module, "_detect_shard", task)
    run = detect_sharded(tax, cfds, shard_count=2, workers=2)
    assert _leftovers(sentinels), "no pool worker ran the task and died"
    assert run.stats.shard_count == 2
    assert run.stats.mode == executor.SERIAL
    assert list(run.report.violations) == list(serial.report.violations)
    assert _leftovers(spill_base) == []


def test_repair_reruns_serially_after_a_worker_dies(
    tax, spill_base, sentinels, monkeypatch
):
    cfds = [zip_state_cfd()]

    def parallel(workers):
        config = RepairConfig(method="parallel", shard_count=2, workers=workers)
        return repair(tax, cfds, config=config)

    serial = parallel(1)
    task = functools.partial(_repair_then_die, str(sentinels))
    monkeypatch.setattr(repairer_module, "_repair_shard", task)
    result = parallel(2)
    assert _leftovers(sentinels), "no pool worker ran the task and died"
    assert result.parallel_stats.shard_count == 2
    assert result.parallel_stats.mode == executor.SERIAL
    assert result.clean and serial.clean
    assert result.relation.rows == serial.relation.rows
    assert result.changes == serial.changes
    assert result.total_cost == pytest.approx(serial.total_cost)
    assert _leftovers(spill_base) == []
