"""Property-based agreement of the storage layers, checked against the oracles.

Three nets:

* **round-trip** — a :class:`ColumnStore` driven through the same mutation
  and algebra calls as a row :class:`Relation` stays indistinguishable from
  it (insert/update/delete/project/select/group_by);
* **detection agreement** — for every columnar-capable detection method,
  the ``columnar`` + ``python``-kernel report is the baseline: every
  ``mmap`` × kernel cell must equal it in sequence, and it must equal the
  ``inmemory`` oracle's report as a multiset (the oracle emits in its own
  order);
* **repair agreement** — for every columnar-capable repair engine, the
  ``columnar`` + ``python``-kernel repair is the baseline: every ``mmap`` ×
  kernel cell must equal it, and it must equal the ``scan`` oracle's repair
  byte for byte — relation, changes and cost.  The parallel engine returns
  its change log in shard order, so against the oracle it is held to the
  parallel contract of ``docs/parallel.md``: the same relation, the same
  multiset of changes and the same cost.  Where that contract's cross-shard
  caveat applies (a written RHS attribute is also a grouping attribute), the
  parallel repair may take other cells than the serial one; it is then held
  to the same verdict as the oracle, and a clean result must pass the
  ``inmemory`` detector.

The oracles (``inmemory``, ``sql``, ``scan``) read rows and never see a
store, so they are references here, not cells of the storage axis; ``sql``
reports violating groups rather than tuples and is cross-checked elsewhere.
Relations and CFDs come from :mod:`strategies`, adversarial shapes included.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DetectionConfig, RepairConfig
from repro.detection.engine import detect_violations
from repro.errors import RepairError
from repro.kernels import numpy_available
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.reasoning.consistency import is_consistent
from repro.repair.heuristic import repair
from repro.rules import compile_rules
from tests.integration.strategies import ATTRIBUTES, VALUES, cfds, relations, row

#: The columnar-capable detection methods.  The parallel backend runs with
#: workers=1 (serial in-process path) so the property suite does not spin
#: up a pool per example.
DETECTION_METHODS = ("indexed", "parallel")

#: The columnar-capable repair engines.
REPAIR_METHODS = ("incremental", "parallel")

#: Kernels the mmap cells sweep (the python reference always; numpy when
#: installed — the no-numpy CI job covers the raw-mmap fallback instead).
KERNELS = ("python", "numpy") if numpy_available() else ("python",)

#: The storage × kernel cells compared against the columnar baseline.
MMAP_CELLS = tuple(("mmap", kernel) for kernel in KERNELS)


def _detection_config(method, storage, kernel):
    if method == "parallel":
        return DetectionConfig(
            method=method, storage=storage, workers=1, shard_count=2, kernel=kernel
        )
    return DetectionConfig(method=method, storage=storage, kernel=kernel)


def _repair_config(method, storage, kernel):
    if method == "parallel":
        return RepairConfig(
            method=method,
            storage=storage,
            workers=1,
            shard_count=2,
            check_consistency=False,
            kernel=kernel,
        )
    return RepairConfig(
        method=method, storage=storage, check_consistency=False, kernel=kernel
    )


def _repair_or_none(relation, cfd_list, config):
    """The repair, or ``None`` when the heuristic gives up without progress."""
    try:
        return repair(relation, cfd_list, config=config)
    except RepairError:
        return None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_detection_agrees_across_storages(relation, cfd_list):
    oracle = detect_violations(relation, cfd_list, method="inmemory")
    for method in DETECTION_METHODS:
        baseline = detect_violations(
            relation, cfd_list, config=_detection_config(method, "columnar", "python")
        )
        assert Counter(baseline.violations) == Counter(oracle.violations), method
        for storage, kernel in MMAP_CELLS:
            report = detect_violations(
                relation, cfd_list, config=_detection_config(method, storage, kernel)
            )
            assert list(report.violations) == list(baseline.violations), (
                method,
                kernel,
            )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=2))
def test_repair_agrees_across_storages(relation, cfd_list):
    if not is_consistent(cfd_list):
        return
    oracle = _repair_or_none(
        relation, cfd_list, RepairConfig(method="scan", check_consistency=False)
    )
    crosses_shards = bool(compile_rules(cfd_list).cross_shard_attributes)
    for method in REPAIR_METHODS:
        baseline = _repair_or_none(
            relation, cfd_list, _repair_config(method, "columnar", "python")
        )
        for label, result in [("scan", oracle)] + [
            (cell, _repair_or_none(relation, cfd_list, _repair_config(method, *cell)))
            for cell in MMAP_CELLS
        ]:
            if baseline is None or result is None:
                assert baseline is result, (method, label)
                continue
            assert baseline.clean == result.clean, (method, label)
            if method == "parallel" and label == "scan" and crosses_shards:
                if baseline.clean:
                    residue = detect_violations(
                        baseline.relation, cfd_list, method="inmemory"
                    )
                    assert not residue.violations, (method, label)
                continue
            assert baseline.relation.rows == result.relation.rows, (method, label)
            if method == "parallel" and label == "scan":
                assert Counter(baseline.changes) == Counter(result.changes)
                assert baseline.total_cost == pytest.approx(result.total_cost)
            else:
                assert baseline.changes == result.changes, (method, label)
                assert baseline.total_cost == result.total_cost, (method, label)
            if isinstance(result.relation, MmapColumnStore):
                result.relation.release()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(row, min_size=0, max_size=10))
def test_construction_roundtrip_equivalence(rows):
    schema = Schema("r", ATTRIBUTES)
    plain = Relation(schema, rows)
    store = ColumnStore(schema, rows)
    assert store == plain
    assert store.rows == plain.rows
    assert list(store) == list(plain)
    for attribute in ATTRIBUTES:
        assert store.active_domain(attribute) == plain.active_domain(attribute)


@st.composite
def operations(draw):
    """A random mutation/algebra script applied to both storage layers."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["insert", "update", "delete", "noop"]))
        ops.append(
            (
                kind,
                draw(row),
                draw(st.integers(min_value=0, max_value=30)),
                draw(st.sampled_from(ATTRIBUTES)),
                draw(st.sampled_from(VALUES)),
            )
        )
    return ops


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(row, min_size=1, max_size=6), operations())
def test_mutation_script_equivalence(rows, ops):
    schema = Schema("r", ATTRIBUTES)
    plain = Relation(schema, rows)
    store = ColumnStore(schema, rows)
    for kind, new_row, index, attribute, value in ops:
        if kind == "insert":
            assert store.insert(new_row) == plain.insert(new_row)
        elif kind == "update" and len(plain):
            position = index % len(plain)
            plain.update(position, attribute, value)
            store.update(position, attribute, value)
        elif kind == "delete" and len(plain):
            position = index % len(plain)
            assert store.delete(position) == plain.delete(position)
        assert store.version == plain.version
    assert store == plain
    if len(plain):
        assert store.group_by(["A", "B"]) == plain.group_by(["A", "B"])
        assert store.project(["B", "D"], distinct=True) == plain.project(
            ["B", "D"], distinct=True
        )
        selected_plain = plain.select(lambda r: r["A"] == "v0")
        selected_store = store.select(lambda r: r["A"] == "v0")
        assert selected_store == selected_plain


def test_storage_agreement_is_exercised_for_every_builtin():
    """Guard: every builtin is a grid cell or one of the row oracles."""
    from repro.detection.engine import DETECTORS
    from repro.repair.heuristic import REPAIRERS

    columnar_detectors = {name for name, (_, codes) in DETECTORS.items() if codes}
    columnar_repairers = {name for name, (_, codes) in REPAIRERS.items() if codes}
    assert set(DETECTION_METHODS) == columnar_detectors
    assert set(REPAIR_METHODS) == columnar_repairers
    assert set(DETECTORS) == columnar_detectors | {"inmemory", "sql"}
    assert set(REPAIRERS) == columnar_repairers | {"scan"}
