"""Tests for the batched execution mode of :class:`RepairState`.

The batched path (columnar storage + a ``fused_repair_scan`` kernel) keeps
the same violation-state contract as the dict-indexed reference — these
tests pin the equivalences the mode relies on: a batch of changes applied in
one :meth:`RepairState.apply_changes` call leaves the state byte-identical
to the reference applying them one at a time, no-op entries are not counted,
outside mutation still trips the version guard, and after any batch the
maintained report equals a from-scratch rebuild over the final relation.
"""

from __future__ import annotations

import pytest

from repro.config import RepairConfig
from repro.datagen.cust import cust_cfds, cust_relation
from repro.detection.partition_index import CodePartitionIndex
from repro.errors import DetectionError
from repro.kernels import numpy_available, use_kernel
from repro.relation.columnar import ColumnStore
from repro.repair.heuristic import repair
from repro.repair.incremental import RepairState

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the batched path needs the [fast] extra"
)

#: A change sequence exercising the interesting shapes: a no-op (tuple 0
#: already holds CT='NYC'), an RHS fix, an LHS move off the no-op'd cell
#: (the intermediate class must be dirtied too), a fresh dictionary value,
#: and a trailing no-op.  Three of the five entries actually change a cell.
CHANGES = [
    (0, "CT", "NYC"),  # already holds NYC: must not count as applied
    (3, "ZIP", "10012"),
    (0, "CT", "Chicago"),
    (2, "STR", "somewhere new"),
    (1, "CT", "NYC"),  # already holds NYC: must not count as applied
]
EFFECTIVE = 3


@pytest.fixture
def store():
    store = ColumnStore.from_relation(cust_relation())
    for cfd in cust_cfds():
        for attribute in cfd.attributes:
            store.codes(attribute)
    return store


def batched_state(store):
    with use_kernel("numpy"):
        state = RepairState(store, cust_cfds())
    assert state.batched
    return state


def test_initial_report_matches_reference(store):
    with use_kernel("python"):
        reference = RepairState(store.copy(), cust_cfds())
    assert list(batched_state(store).report().violations) == list(
        reference.report().violations
    )


def test_apply_changes_matches_sequential_reference(store):
    state = batched_state(store)
    with use_kernel("python"):
        reference = RepairState(store.copy(), cust_cfds())
    applied_one_at_a_time = sum(
        reference.apply_change(*change) for change in CHANGES
    )
    with use_kernel("numpy"):
        applied = state.apply_changes(CHANGES)
    assert applied == applied_one_at_a_time == EFFECTIVE
    assert list(state.report().violations) == list(reference.report().violations)
    assert state.relation.rows == reference.relation.rows


def test_apply_changes_matches_fresh_rebuild(store):
    state = batched_state(store)
    with use_kernel("numpy"):
        state.apply_changes(CHANGES)
        rebuilt = RepairState(state.relation, cust_cfds())
    assert list(state.report().violations) == list(rebuilt.report().violations)


def test_noop_batch_applies_nothing(store):
    state = batched_state(store)
    before = state.stats()["changes_applied"]
    with use_kernel("numpy"):
        assert state.apply_changes([(1, "CT", "NYC"), (1, "CT", "NYC")]) == 0
        assert state.apply_changes([]) == 0
    assert state.stats()["changes_applied"] == before
    assert state.relation.version == store.version


def test_apply_change_delegates_to_batch(store):
    state = batched_state(store)
    with use_kernel("numpy"):
        assert state.apply_change(0, "CT", "PHI") is True
        assert state.apply_change(0, "CT", "PHI") is False


def test_outside_mutation_trips_version_guard(store):
    state = batched_state(store)
    store.update(0, "CT", "elsewhere")
    with pytest.raises(DetectionError):
        state.report()
    with use_kernel("numpy"), pytest.raises(DetectionError):
        state.apply_changes([(0, "CT", "NYC")])


def test_reference_mode_apply_changes_loops_apply_change(store):
    with use_kernel("python"):
        state = RepairState(store.copy(), cust_cfds())
        assert not state.batched
        reference = RepairState(store.copy(), cust_cfds())
        applied = state.apply_changes(CHANGES)
        for change in CHANGES:
            reference.apply_change(*change)
    assert applied == EFFECTIVE
    assert list(state.report().violations) == list(reference.report().violations)


def test_int64_overflow_falls_back_to_the_dict_path(store, monkeypatch):
    """Forced composite-key overflow: same repair through the dict path.

    With the stride headroom at 2**40 every two-attribute LHS (the cust
    rules have one) overflows int64, so the batched state cannot be built.
    """
    monkeypatch.setattr(CodePartitionIndex, "HEADROOM", 2**40)
    with use_kernel("numpy"):
        assert RepairState(store, cust_cfds()).batched is False
    results = {
        kernel: repair(
            cust_relation(),
            cust_cfds(),
            config=RepairConfig(method="incremental", kernel=kernel),
        )
        for kernel in ("numpy", "python")
    }
    assert results["numpy"].relation.rows == results["python"].relation.rows
    assert results["numpy"].changes == results["python"].changes
    assert results["numpy"].total_cost == results["python"].total_cost
