"""Property-based equivalence of the row, columnar and mmap storage layers.

Three nets, per the columnar acceptance criteria:

* **round-trip** — a :class:`ColumnStore` driven through the same mutation
  and algebra calls as a row :class:`Relation` stays indistinguishable from
  it (insert/update/delete/project/select/group_by);
* **detection agreement** — for random relations and CFD sets, every
  detection method reports the identical violation sequence under
  ``storage="rows"``, ``storage="columnar"`` and ``storage="mmap"`` (the
  memory-mapped backing additionally swept across kernels, pinning the
  mmap × kernel × method grid of the out-of-core acceptance criteria);
* **repair agreement** — every repair engine produces the byte-identical
  repaired relation, change list and cost under every storage.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.detection.engine import detect_violations
from repro.errors import RepairError
from repro.kernels import numpy_available
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.reasoning.consistency import is_consistent
from repro.repair.heuristic import repair

ATTRIBUTES = ("A", "B", "C", "D")
VALUES = ("v0", "v1", "v2")

row = st.tuples(*(st.sampled_from(VALUES) for _ in ATTRIBUTES))
cell = st.one_of(st.sampled_from(VALUES), st.just("_"))

#: Every built-in detection method exercised against both storages.  The
#: parallel backend runs with workers=1 (serial in-process path) so the
#: property suite does not spin up a pool per example.
DETECTION_METHODS = ("inmemory", "sql", "indexed", "parallel")

#: Every built-in repair engine exercised against both storages.
REPAIR_METHODS = ("scan", "indexed", "incremental", "parallel")

#: Kernels the mmap grid sweeps (the python reference always; numpy when
#: installed — the no-numpy CI job covers the raw-mmap fallback instead).
KERNELS = ("python", "numpy") if numpy_available() else ("python",)


@st.composite
def cfds(draw):
    n_lhs = draw(st.integers(min_value=1, max_value=2))
    lhs = list(draw(st.permutations(ATTRIBUTES)))[:n_lhs]
    remaining = [attr for attr in ATTRIBUTES if attr not in lhs]
    n_rhs = draw(st.integers(min_value=1, max_value=2))
    rhs = remaining[:n_rhs]
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pattern = {attr: draw(cell) for attr in lhs}
        pattern.update({attr: draw(cell) for attr in rhs})
        patterns.append(pattern)
    return CFD.build(lhs, rhs, patterns)


@st.composite
def relations(draw):
    rows = draw(st.lists(row, min_size=0, max_size=8))
    return Relation(Schema("r", ATTRIBUTES), rows)


def _detection_config(method, storage, kernel=None):
    if method == "parallel":
        return DetectionConfig(
            method=method, storage=storage, workers=1, shard_count=2, kernel=kernel
        )
    return DetectionConfig(method=method, storage=storage, kernel=kernel)


def _repair_config(method, storage, kernel=None):
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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_detection_agrees_across_storages(relation, cfd_list):
    for method in DETECTION_METHODS:
        rows_report = detect_violations(
            relation, cfd_list, config=_detection_config(method, "rows")
        )
        columnar_report = detect_violations(
            relation, cfd_list, config=_detection_config(method, "columnar")
        )
        assert list(rows_report.violations) == list(columnar_report.violations), method
        for kernel in KERNELS:
            mmap_report = detect_violations(
                relation, cfd_list, config=_detection_config(method, "mmap", kernel)
            )
            assert list(rows_report.violations) == list(mmap_report.violations), (
                method,
                kernel,
            )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=2))
def test_repair_agrees_across_storages(relation, cfd_list):
    if not is_consistent(cfd_list):
        return
    grid = [("rows", None), ("columnar", None)]
    grid += [("mmap", kernel) for kernel in KERNELS]
    for method in REPAIR_METHODS:
        outcomes = {}
        for storage, kernel in grid:
            try:
                outcomes[(storage, kernel)] = repair(
                    relation, cfd_list, config=_repair_config(method, storage, kernel)
                )
            except RepairError:
                outcomes[(storage, kernel)] = "no-progress"
        baseline = outcomes[("rows", None)]
        for (storage, kernel), result in outcomes.items():
            if baseline == "no-progress" or result == "no-progress":
                assert baseline == result, (method, storage, kernel)
                continue
            assert baseline.relation.rows == result.relation.rows, (
                method,
                storage,
                kernel,
            )
            assert baseline.changes == result.changes, (method, storage, kernel)
            assert baseline.clean == result.clean, (method, storage, kernel)
            assert baseline.total_cost == result.total_cost, (method, storage, kernel)
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
    """Guard: the method lists above cover everything the registry ships."""
    from repro.registry import detector_names, repairer_names

    assert set(DETECTION_METHODS) == set(detector_names())
    assert set(REPAIR_METHODS) == set(repairer_names())
