"""Property: the repair-side partition indexes agree with a brute-force regrouping.

``PartitionIndex`` (pure python, every platform) and, when numpy is
installed, ``CodePartitionIndex`` are driven through the same random code
columns and random batches of moves.  After the build and after every batch,
each query (``class_table``, ``find``, ``matching_positions``, ``gather``,
``members_at``, ``key_codes_at``) must equal what regrouping the live code
columns from scratch gives: classes ascending by code key, members ascending.
The array index runs with a drawn ``HEADROOM`` as small as 1, so fresh
values push codes past it and force its rebuild path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple
from unittest import mock

from hypothesis import example, given
from hypothesis import strategies as st

from repro.detection.partition_index import CodePartitionIndex, PartitionIndex
from repro.kernels import numpy_available
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema

ATTRIBUTES = ("A", "B", "C")


@st.composite
def scenarios(draw):
    """Rows over a small domain, an LHS of 0-3 attributes and move batches.

    Initial values come from 0..3 and moved values from 0..9, so moves
    empty classes out and create brand-new ones; pins and gathered position
    subsets are drawn as raw numbers and reduced modulo the live sizes.
    """
    rows = draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * len(ATTRIBUTES)), max_size=12)
    )
    lhs = tuple(draw(st.permutations(ATTRIBUTES))[: draw(st.integers(0, 3))])
    change = st.tuples(
        st.integers(0, max(len(rows) - 1, 0)),
        st.sampled_from(ATTRIBUTES),
        st.integers(0, 9),
    )
    batches = draw(st.lists(st.lists(change, max_size=6), max_size=4)) if rows else []
    pins = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)), max_size=2))
    picks = draw(st.lists(st.integers(0, 50), max_size=4))
    headroom = draw(st.sampled_from([1, 2, 64]))
    return rows, lhs, batches, pins, picks, headroom


def _regroup(store: ColumnStore, lhs: Tuple[str, ...]) -> Dict[tuple, List[int]]:
    """Code key -> ascending members, straight from the live code columns."""
    columns = store.project_codes(lhs)
    groups: Dict[tuple, List[int]] = {}
    for row in range(len(store)):
        groups.setdefault(tuple(column[row] for column in columns), []).append(row)
    return dict(sorted(groups.items()))


def _ints(values) -> List[int]:
    return [int(value) for value in values]


def _check(index, store, lhs, pins, picks) -> None:
    groups = _regroup(store, lhs)
    keys = list(groups)
    assert index.class_count == len(keys)

    order, offsets = index.class_table()
    assert _ints(order) == [row for members in groups.values() for row in members]
    starts, at = [], 0
    for members in groups.values():
        starts.append(at)
        at += len(members)
    assert _ints(offsets) == starts

    for position, key in enumerate(keys):
        assert index.members_at(position) == groups[key]
        assert tuple(index.key_codes_at(position)) == key
        assert index.find(key) == position
    if lhs:
        assert index.find((None,) * len(lhs)) == -1
        # Codes stop at 9 (ten values per dictionary), so 10 is held by no row.
        assert index.find((10,) * len(lhs)) == -1

    constants = [(offset % len(lhs), code) for offset, code in pins] if lhs else []
    assert _ints(index.matching_positions(constants)) == [
        position
        for position, key in enumerate(keys)
        if all(key[offset] == code for offset, code in constants)
    ]

    positions = [pick % len(keys) for pick in picks] if keys else []
    indices, gathered = index.gather(positions)
    assert _ints(indices) == [row for p in positions for row in groups[keys[p]]]
    expected_offsets, at = [], 0
    for position in positions:
        expected_offsets.append(at)
        at += len(groups[keys[position]])
    assert _ints(gathered) == expected_offsets


def _index_classes():
    if numpy_available():
        return (PartitionIndex, CodePartitionIndex)
    return (PartitionIndex,)


@given(scenario=scenarios())
@example(
    # Tuple 0 joins class (1, 0) ahead of tuple 2 and empties class (0, 0);
    # tuple 2 leaves (1, 0) and brings (0, 0) back; tuple 0 opens the new
    # class (1, 5); tuple 1 takes B=8, a code past the headroom of 1.
    scenario=(
        [(0, 0, 0), (0, 1, 0), (1, 0, 0)],
        ("A", "B"),
        [[(0, "A", 1)], [(2, "A", 0)], [(0, "B", 5)], [(1, "A", 7), (1, "B", 8)]],
        [(1, 0)],
        [0, 1, 2],
        1,
    )
)
@example(
    # An LHS with zero attributes: one class holding every row, whatever moves.
    scenario=([(0, 0, 0), (1, 1, 1)], (), [[(0, "A", 9)]], [], [0], 1)
)
def test_indexes_match_brute_force_regrouping(scenario):
    rows, lhs, batches, pins, picks, headroom = scenario
    store = ColumnStore.from_relation(Relation(Schema("r", list(ATTRIBUTES)), rows))
    for attribute in ATTRIBUTES:
        store.codes(attribute)
    with mock.patch.object(CodePartitionIndex, "HEADROOM", headroom):
        indexes = [cls(store, lhs) for cls in _index_classes()]
        for index in indexes:
            _check(index, store, lhs, pins, picks)
        for batch in batches:
            for row, attribute, value in batch:
                store.update(row, attribute, value)
            for index in indexes:
                index.apply_moves(row for row, _attribute, _value in batch)
                _check(index, store, lhs, pins, picks)
