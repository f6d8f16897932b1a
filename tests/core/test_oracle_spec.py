"""The oracle against its specification: the per-pattern scan of Section 2.

:mod:`repro.core.satisfaction` finds each pattern's matching tuples with one
scan per constant-LHS mask and a dict lookup per tuple.
``tests/oracle_spec.py`` keeps the literal reading, one scan per pattern
tuple.  Both must return the same violations in the same order.

The examples pin the cases where the two could part: masks that are empty
(all-wildcard or don't-care LHS) or mixed, several patterns in one bucket,
values that compare equal across types, and a NaN that the lookup finds by
identity but ``==`` does not match.

The oracle reads any storage through ``project_rows``: the same report
must come back from rows, from a column store with its columns pending,
encoded or mixed, and from memory-mapped columns, and neither
detection nor ``Cleaner``'s verify may copy a store into rows.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import satisfaction
from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.detection.engine import detect_violations
from repro.pipeline import Cleaner
from repro.relation.columnar import ColumnStore
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from tests.integration.strategies import ATTRIBUTES, VALUES, relations
from tests.oracle_spec import find_all_violations as spec_find_all_violations

NAN = float("nan")

# Unlike the shared ``cfds()`` strategy, cells may also be the don't-care
# symbol ``@`` of merged tableaux.
cell = st.sampled_from((*VALUES, "_", "@"))


@st.composite
def cfds(draw):
    n_lhs = draw(st.integers(min_value=1, max_value=3))
    lhs = list(draw(st.permutations(ATTRIBUTES)))[:n_lhs]
    remaining = [attr for attr in ATTRIBUTES if attr not in lhs]
    rhs = remaining[: draw(st.integers(min_value=1, max_value=len(remaining)))]
    patterns = [
        [draw(cell) for _ in (*lhs, *rhs)]
        for _ in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    return CFD.build(lhs, rhs, patterns)


def _relation(rows):
    return Relation(Schema("r", ATTRIBUTES), rows)


_ROWS = [
    ("v0", "v0", "v1", "v2"),
    ("v0", "v1", "v1", "v0"),
    ("v0", "v1", "v2", "v0"),
    ("v1", "v1", "v1", "v1"),
    ("v1", "v2", "v1", "v1"),
]


@settings(max_examples=200)
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
@example(  # don't-care cells on both sides
    _relation(_ROWS),
    [CFD.build(["A", "B"], ["C", "D"], [["v0", "@", "@", "_"], ["@", "v1", "_", "@"]])],
)
@example(  # an all-wildcard and an all-don't-care LHS: the empty mask
    _relation(_ROWS),
    [
        CFD.build(
            ["A", "B"], ["C"], [["_", "_", "_"], ["@", "@", "v1"], ["_", "@", "_"]]
        )
    ],
)
@example(  # mixed constant/wildcard LHS, two masks over the same attributes
    _relation(_ROWS),
    [
        CFD.build(
            ["A", "B"], ["C"], [["v0", "_", "_"], ["_", "v1", "v1"], ["v0", "v1", "_"]]
        )
    ],
)
@example(  # duplicate pattern tuples share one bucket entry
    _relation(_ROWS),
    [CFD.build(["A"], ["C"], [["v0", "v1"], ["v0", "v1"], ["v1", "_"], ["v0", "v1"]])],
)
@example(  # the same LHS constants with different RHS constants
    _relation(_ROWS),
    [CFD.build(["A", "B"], ["C"], [["v0", "v1", "v1"], ["v0", "v1", "v2"]])],
)
@example(  # an empty relation
    _relation([]),
    [CFD.build(["A"], ["B"], [["_", "_"], ["v0", "v1"]])],
)
@example(  # 1, 1.0 and True are equal and hash alike; "1" is neither
    _relation(
        [
            (1, "x", "p", "q"),
            (1.0, "y", "p", "q"),
            (True, "x", "p", "q"),
            ("1", "x", "p", "q"),
        ]
    ),
    [
        CFD.build(["A"], ["B"], [[1, "x"], [True, "_"], ["1", "y"], [1.0, "_"]]),
        CFD.build(["A", "C"], ["B"], [[True, "p", "x"], ["1", "_", "_"]]),
    ],
)
@example(  # one NaN object in a pattern and a row: the lookup hits, == does not
    _relation([(NAN, "b1", "c", "d"), (NAN, "b2", "c", "d"), ("a", "b1", "c", "d")]),
    [
        CFD.build(["A"], ["B"], [[NAN, "b1"], [NAN, "_"]]),
        CFD.build(["A", "C"], ["B"], [[NAN, "c", "b1"], ["_", "c", "_"]]),
    ],
)
def test_oracle_matches_the_per_pattern_scan(relation, cfd_list):
    oracle = find_all_violations(relation, cfd_list)
    spec = spec_find_all_violations(relation, cfd_list)
    assert list(oracle.violations) == list(spec.violations)


#: The two states a column-store column can be in.
COLUMN_STATES = ("pending", "encoded")

column_states = st.lists(
    st.sampled_from(COLUMN_STATES), min_size=len(ATTRIBUTES), max_size=len(ATTRIBUTES)
)


def _column_store(relation, states):
    """``relation`` as a column store whose columns are in ``states``."""
    store = ColumnStore.from_relation(relation)
    for attribute, state in zip(store.schema.names, states):
        if state == "encoded":
            store.codes(attribute)
    return store


def _column_states(stored):
    """Per column, whether it is encoded."""
    if not isinstance(stored, ColumnStore):
        return None
    return [codes is not None for codes in stored._codes]


def _storages(relation, states):
    """``relation`` on every storage the oracle may be handed, by name."""
    storages = {"rows": relation}
    for state in COLUMN_STATES:
        storages[state] = _column_store(relation, [state] * len(ATTRIBUTES))
    storages["mixed"] = _column_store(relation, states)
    storages["mmap"] = MmapColumnStore.from_relation(relation)
    return storages


@settings(max_examples=100)
@given(relations(), st.lists(cfds(), min_size=1, max_size=3), column_states)
@example(  # the NaN case of the spec test, on every storage
    _relation([(NAN, "b1", "c", "d"), (NAN, "b2", "c", "d"), ("a", "b1", "c", "d")]),
    [
        CFD.build(["A"], ["B"], [[NAN, "b1"], [NAN, "_"]]),
        CFD.build(["A", "C"], ["B"], [[NAN, "c", "b1"], ["_", "c", "_"]]),
    ],
    ["encoded", "pending", "pending", "encoded"],
)
def test_oracle_reads_every_storage_alike(relation, cfd_list, states):
    """Rows, a column store in each column state and mixed, and spilled
    columns give the same report in the same order."""
    expected = list(find_all_violations(relation, cfd_list).violations)
    storages = _storages(relation, states)
    try:
        for name, stored in storages.items():
            report = find_all_violations(stored, cfd_list)
            assert list(report.violations) == expected, name
    finally:
        storages["mmap"].release()


@settings(max_examples=100)
@given(relations(), st.lists(st.sampled_from(ATTRIBUTES), max_size=5), column_states)
def test_project_rows_is_project_row_per_index(relation, attributes, states):
    """Any attribute list, repeats and the empty list included; reading
    changes no column's state."""
    storages = _storages(relation, states)
    try:
        for name, stored in storages.items():
            before = _column_states(stored)
            assert list(stored.project_rows(attributes)) == [
                stored.project_row(index, attributes) for index in range(len(stored))
            ], name
            assert _column_states(stored) == before, name
    finally:
        storages["mmap"].release()


@pytest.fixture
def no_row_copy(monkeypatch):
    """Make every row copy of a relation fail loudly."""

    def refuse(cls, schema, rows):
        raise AssertionError("the relation was copied into rows")

    monkeypatch.setattr(Relation, "from_validated_rows", classmethod(refuse))


@pytest.mark.parametrize("storage", ["columnar", "mmap"])
def test_inmemory_detection_reads_the_store_it_is_handed(
    cust, cust_constraints, no_row_copy, storage, tmp_path
):
    expected = list(find_all_violations(cust, cust_constraints).violations)
    store = (
        MmapColumnStore.from_relation(cust, spill_dir=tmp_path)
        if storage == "mmap"
        else ColumnStore.from_relation(cust)
    )
    report = detect_violations(store, cust_constraints, method="inmemory")
    assert list(report.violations) == expected


def test_cleaner_verify_reads_the_repaired_store(cust, cust_constraints, no_row_copy):
    result = Cleaner().clean(ColumnStore.from_relation(cust), cust_constraints)
    assert result.backends["verify"] == "inmemory"
    assert isinstance(result.relation, ColumnStore)
    assert result.rounds >= 1 and result.clean


#: The engines the oracle judges, and the encoded storages they run on.
ENGINE_MODULES = (
    "repro.kernels",
    "repro.detection",
    "repro.repair",
    "repro.parallel",
    "repro.sql",
    "repro.relation.columnar",
    "repro.relation.mmap_store",
)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_oracle_imports_no_engine():
    """The verdict stays independent of the engines it judges."""
    tree = ast.parse(Path(satisfaction.__file__).read_text(encoding="utf-8"))
    imported = set(_imported_modules(tree))
    assert not any(name.startswith(".") for name in imported), imported
    offending = sorted(
        name
        for name in imported
        for engine in ENGINE_MODULES
        if name == engine or name.startswith(engine + ".")
    )
    assert not offending, f"repro.core.satisfaction imports {offending}"
