"""Parallel detection: agreement with the oracle, executor behaviour, errors."""

from __future__ import annotations

import functools
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import DetectionConfig
from repro.core.satisfaction import find_all_violations
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.cust import cust_cfds, cust_relation
from repro.datagen.generator import TaxRecordGenerator
from repro.detection.engine import detect_violations
from repro.errors import ConfigError, ParallelExecutionError, ReproError
from repro.parallel import executor
from repro.parallel.engine import detect_sharded, find_violations_parallel
from repro.repair.incremental import canonical_order


def _boom(payload):
    raise ValueError(f"worker exploded on {payload!r}")


def _double(payload):
    return payload * 2


class _BrokenPool:
    """A ``ProcessPoolExecutor`` stand-in that fails at one point.

    ``init``: the constructor raises (no semaphores).  ``submit``: the second
    submission raises, after one future is pending.  ``result``: every future
    resolves to ``BrokenProcessPool`` (workers died before running).
    """

    def __init__(self, failure, max_workers):
        if failure == "init":
            raise OSError("sem_open blocked by the sandbox")
        self._failure = failure
        self._submitted = 0

    def submit(self, task, payload):
        self._submitted += 1
        future = Future()
        if self._failure == "submit" and self._submitted > 1:
            raise RuntimeError("cannot start worker processes")
        if self._failure == "result":
            future.set_exception(BrokenProcessPool("worker died on start-up"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestExecutor:
    def test_results_come_back_in_payload_order(self):
        results, mode = executor.run_tasks(_double, [3, 1, 2], workers=2)
        assert results == [6, 2, 4]
        assert mode == executor.PROCESS_POOL

    def test_workers_one_runs_serially(self):
        results, mode = executor.run_tasks(_double, [1, 2], workers=1)
        assert results == [2, 4]
        assert mode == executor.SERIAL

    def test_single_payload_never_pays_for_a_pool(self):
        results, mode = executor.run_tasks(_double, [21], workers=8)
        assert results == [42]
        assert mode == executor.SERIAL

    def test_worker_crash_surfaces_as_repro_error(self):
        with pytest.raises(ParallelExecutionError) as excinfo:
            executor.run_tasks(_boom, [1, 2], workers=2)
        assert "worker" in str(excinfo.value)
        assert "exploded" in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)

    def test_worker_crash_in_serial_fallback_also_wrapped(self):
        with pytest.raises(ParallelExecutionError):
            executor.run_tasks(_boom, [1, 2], workers=1)

    @pytest.mark.parametrize("failure", ["init", "submit", "result"])
    def test_pool_that_cannot_start_falls_back_to_serial(self, monkeypatch, failure):
        monkeypatch.setattr(
            executor, "ProcessPoolExecutor", functools.partial(_BrokenPool, failure)
        )
        results, mode = executor.run_tasks(_double, [1, 2, 3], workers=4)
        assert results == [2, 4, 6]
        assert mode == executor.SERIAL

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ParallelExecutionError):
            executor.run_tasks(_double, [1], workers=0)

    def test_resolve_workers_caps_at_task_count(self):
        assert executor.resolve_workers(16, 3) == 3
        assert executor.resolve_workers(None, 2) <= 2
        assert executor.resolve_workers(2, 16) == 2


class TestParallelDetection:
    @pytest.mark.parametrize("shard_count,workers", [(1, 1), (3, 1), (3, 2), (10, 2)])
    def test_agrees_with_oracle_on_cust(self, shard_count, workers):
        relation, cfds = cust_relation(), cust_cfds()
        report = find_violations_parallel(
            relation, cfds, shard_count=shard_count, workers=workers
        )
        oracle = find_all_violations(relation, cfds)
        assert set(report.violations) == set(oracle.violations)

    def test_report_is_in_canonical_order(self):
        relation, cfds = cust_relation(), cust_cfds()
        report = find_violations_parallel(relation, cfds, shard_count=3, workers=1)
        assert list(report.violations) == canonical_order(report.violations, cfds)

    def test_agrees_with_oracle_on_tax(self):
        relation = TaxRecordGenerator(size=400, noise=0.06, seed=9).generate_relation()
        cfds = [zip_state_cfd()]
        report = find_violations_parallel(relation, cfds, shard_count=4, workers=2)
        oracle = find_all_violations(relation, cfds)
        assert set(report.violations) == set(oracle.violations)

    def test_empty_relation_and_empty_cfds(self, relation_factory):
        empty = relation_factory(["A", "B"], [])
        assert find_violations_parallel(empty, [], workers=1).is_clean()
        assert find_violations_parallel(cust_relation(), [], workers=1).is_clean()

    def test_stats_expose_shards_and_mode(self):
        run = detect_sharded(cust_relation(), cust_cfds(), shard_count=3, workers=2)
        assert run.stats.shard_count == 3
        assert run.stats.mode in (executor.SERIAL, executor.PROCESS_POOL)
        assert sum(t.rows for t in run.stats.timings) == len(cust_relation())
        assert run.stats.summary()["components"] == 4

    def test_registered_as_backend(self):
        from repro.detection.engine import DETECTORS

        assert DETECTORS["parallel"][1], "parallel detection computes over codes"
        report = detect_violations(
            cust_relation(),
            cust_cfds(),
            config=DetectionConfig(method="parallel", shard_count=2, workers=1),
        )
        oracle = find_all_violations(cust_relation(), cust_cfds())
        assert set(report.violations) == set(oracle.violations)

    def test_worker_crash_reaches_caller_as_repro_error(self, monkeypatch):
        from repro.parallel import engine as engine_module

        def explode(payload):
            raise RuntimeError("shard detector died")

        monkeypatch.setattr(engine_module, "_detect_shard", explode)
        with pytest.raises(ReproError) as excinfo:
            find_violations_parallel(
                cust_relation(), cust_cfds(), shard_count=3, workers=1
            )
        assert "shard detector died" in str(excinfo.value)


class TestConfigKnobs:
    def test_workers_rejected_for_serial_backends(self):
        with pytest.raises(ConfigError):
            DetectionConfig(method="indexed", workers=2)
        with pytest.raises(ConfigError):
            DetectionConfig(method="inmemory", shard_count=2)

    def test_workers_allowed_for_parallel_and_auto(self):
        assert DetectionConfig(method="parallel", workers=2).workers == 2
        assert DetectionConfig(workers=2).workers == 2  # dropped if auto runs serial

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ConfigError):
            DetectionConfig(method="parallel", workers=0)
        with pytest.raises(ConfigError):
            DetectionConfig(method="parallel", shard_count=0)

    def test_with_method_drops_knobs_when_pinning_serial(self):
        config = DetectionConfig(workers=4, shard_count=8)
        pinned = config.with_method("inmemory")
        assert pinned.workers is None and pinned.shard_count is None
        kept = config.with_method("parallel")
        assert kept.workers == 4 and kept.shard_count == 8
