"""Property-based equivalence of the python and numpy kernel layers.

The kernel×method grid: for random relations and CFD sets (adversarial
shapes included, see :mod:`strategies`), every columnar-capable detection
method and repair engine must produce the byte-identical violation sequence
/ repair under ``kernel="python"`` and ``kernel="numpy"``.  Together with
``test_storage_agreement.py`` (mmap vs columnar, both against the row
oracles) this pins the full lattice — any single acceleration that drifts
from the pure-Python reference semantics fails here first.

The numpy side runs with the small-input fallback disabled
(:data:`repro.kernels.numpy_kernels.SMALL_INPUT_THRESHOLD` forced to 0), so
the vectorised code paths are exercised even though Hypothesis draws small
relations — otherwise every example would silently delegate back to the
python kernel and the grid would prove nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DetectionConfig, RepairConfig
from repro.detection.engine import detect_violations
from repro.detection.indexed import detect_stream
from repro.errors import RepairError
from repro.kernels import numpy_available
from repro.reasoning.consistency import is_consistent
from repro.repair.heuristic import repair
from tests.integration.strategies import cfds, relations

#: The detection methods whose hot loops go through the kernel layer, plus
#: the oracle as an extra reference point.  The parallel backend runs with
#: workers=1 (serial in-process path) so the property suite does not spin up
#: a pool per example.
DETECTION_METHODS = ("inmemory", "indexed", "parallel")

#: The repair engines whose detection layer is kernel-capable.
REPAIR_METHODS = ("indexed", "incremental", "parallel")

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the numpy kernel needs the [fast] extra"
)


@contextmanager
def force_vectorised():
    """Disable the numpy kernel's small-input fallback for the duration.

    The fallback is a pure speed knob; forcing it off makes every example —
    however small Hypothesis draws it — run the real array code.
    """
    from repro.kernels import numpy_kernels

    previous = numpy_kernels.SMALL_INPUT_THRESHOLD
    numpy_kernels.SMALL_INPUT_THRESHOLD = 0
    try:
        yield
    finally:
        numpy_kernels.SMALL_INPUT_THRESHOLD = previous


def _detection_config(method, kernel):
    if method == "parallel":
        return DetectionConfig(method=method, kernel=kernel, workers=1, shard_count=2)
    return DetectionConfig(method=method, kernel=kernel)


def _repair_config(method, kernel):
    if method == "parallel":
        return RepairConfig(
            method=method, kernel=kernel, workers=1,
            shard_count=2, check_consistency=False,
        )
    return RepairConfig(method=method, kernel=kernel, check_consistency=False)


@requires_numpy
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_detection_agrees_across_kernels(relation, cfd_list):
    for method in DETECTION_METHODS:
        python_report = detect_violations(
            relation, cfd_list, config=_detection_config(method, "python")
        )
        with force_vectorised():
            numpy_report = detect_violations(
                relation, cfd_list, config=_detection_config(method, "numpy")
            )
        assert list(python_report.violations) == list(numpy_report.violations), method


@requires_numpy
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=2))
def test_repair_agrees_across_kernels(relation, cfd_list):
    if not is_consistent(cfd_list):
        return
    for method in REPAIR_METHODS:
        outcomes = {}
        for kernel in ("python", "numpy"):
            try:
                if kernel == "numpy":
                    with force_vectorised():
                        outcomes[kernel] = repair(
                            relation, cfd_list, config=_repair_config(method, kernel)
                        )
                else:
                    outcomes[kernel] = repair(
                        relation, cfd_list, config=_repair_config(method, kernel)
                    )
            except RepairError:
                outcomes[kernel] = "no-progress"
        python_result, numpy_result = outcomes["python"], outcomes["numpy"]
        if python_result == "no-progress" or numpy_result == "no-progress":
            assert python_result == numpy_result, method
            continue
        assert python_result.relation.rows == numpy_result.relation.rows, method
        assert python_result.changes == numpy_result.changes, method
        assert python_result.clean == numpy_result.clean, method
        assert python_result.total_cost == numpy_result.total_cost, method


@requires_numpy
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=2))
def test_streaming_detection_agrees_across_kernels(relation, cfd_list):
    python_report = detect_stream(
        relation.schema, iter(relation), cfd_list, chunk_size=3, kernel="python"
    )
    with force_vectorised():
        numpy_report = detect_stream(
            relation.schema, iter(relation), cfd_list, chunk_size=3, kernel="numpy"
        )
    assert list(python_report.violations) == list(numpy_report.violations)


@requires_numpy
def test_batched_repair_path_is_active():
    """Guard: numpy + columnar really takes the batched fixpoint.

    The hypothesis grid above would still pass if the batched path silently
    fell back to the dict-indexed reference mode (they are byte-identical by
    contract) — so pin the mode bit itself, then assert a deterministic
    repair through the batched primitives matches the reference exactly.
    """
    from repro.datagen.cust import cust_cfds, cust_relation
    from repro.kernels import use_kernel
    from repro.relation.columnar import ColumnStore
    from repro.repair.incremental import RepairState

    rows = cust_relation()
    store = ColumnStore.from_relation(rows)
    with force_vectorised(), use_kernel("numpy"):
        batched = RepairState(store.copy(), cust_cfds())
        assert batched.batched
    with use_kernel("python"):
        reference = RepairState(store.copy(), cust_cfds())
        assert not reference.batched  # no fused_repair_scan on the reference
    with use_kernel("numpy"):
        assert RepairState(rows, cust_cfds()).batched  # a plain relation is encoded
    assert list(batched.report().violations) == list(reference.report().violations)

    results = {}
    for kernel in ("python", "numpy"):
        with force_vectorised():
            results[kernel] = repair(
                rows, cust_cfds(), config=_repair_config("incremental", kernel)
            )
    assert results["python"].changes == results["numpy"].changes
    assert results["python"].relation.rows == results["numpy"].relation.rows


def test_auto_kernel_repair_degrades_gracefully():
    """``kernel="auto"`` repairs identically with or without numpy installed.

    Not numpy-gated on purpose: in the no-numpy environment ``auto`` resolves
    to the python reference (and the batched fixpoint stays off), and the
    result must still be byte-identical to an explicit ``kernel="python"``
    run.  With numpy present the same assertion pins auto == python through
    the batched path.
    """
    from repro.datagen.cust import cust_cfds, cust_relation

    rows = cust_relation()
    auto = repair(rows, cust_cfds(), config=_repair_config("incremental", "auto"))
    reference = repair(
        rows, cust_cfds(), config=_repair_config("incremental", "python")
    )
    assert auto.changes == reference.changes
    assert auto.relation.rows == reference.relation.rows
    assert auto.total_cost == reference.total_cost
    assert auto.clean == reference.clean


def test_kernel_agreement_covers_every_columnar_builtin():
    """Guard: the method lists above cover every kernel-capable builtin."""
    from repro.registry import COLUMNAR_DETECTORS, COLUMNAR_REPAIRERS

    assert COLUMNAR_DETECTORS <= set(DETECTION_METHODS)
    assert COLUMNAR_REPAIRERS <= set(REPAIR_METHODS)
